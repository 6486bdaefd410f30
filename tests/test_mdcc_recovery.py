"""Tests for dangling-transaction recovery (§3.2.3) and master behaviour.

An app-server that dies mid-commit must not leave the database wedged:
any node can reconstruct the transaction from the options (which carry the
txid and the full write-set keys) and drive it to a definitive outcome.
"""

from repro.bench import run
from repro.core.coordinator import MDCCCoordinator
from repro.core.options import Option, PhysicalUpdate, RecordId
from repro.core.messages import ProposeFast
from repro.db.cluster import ClusterSpec, build_cluster
from repro.faults import named_schedule
from repro.storage.schema import Constraint, TableSchema
from repro.workloads.micro import MicroBenchmark

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


class CrashingCoordinator(MDCCCoordinator):
    """A coordinator that dies right before sending visibilities —
    learned options but no Learned/Visibility messages ever go out."""

    def _finish(self, tx):
        tx.finished = True  # swallow the outcome: simulated crash


def make_cluster(seed=1):
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=seed))
    cluster.register_table(ITEMS)
    cluster.register_table(TableSchema("orders"))
    return cluster


class TestDanglingRecovery:
    def test_recover_commits_fully_proposed_transaction(self):
        cluster = make_cluster(seed=21)
        cluster.load_record("items", "a", {"stock": 10})
        cluster.load_record("items", "b", {"stock": 20})
        crasher = CrashingCoordinator(
            cluster.transport,
            "crasher",
            "us-west",
            placement=cluster.placement,
            config=cluster.config,
            counters=cluster.counters,
        )
        tx = cluster.begin(crasher)
        cluster.sim.run_until(tx.read("items", "a"), limit=10_000)
        cluster.sim.run_until(tx.read("items", "b"), limit=20_000)
        tx.write("items", "a", {"stock": 11})
        tx.write("items", "b", {"stock": 21})
        tx.commit(txid="dangling-tx")
        cluster.sim.run(until=cluster.sim.now + 10_000)  # options learned, then crash

        # Nothing visible yet: acceptors hold outstanding options.
        assert cluster.read_committed("items", "a").value == {"stock": 10}

        agent = cluster.add_recovery_agent("eu-west")
        fut = agent.recover("dangling-tx", RecordId("items", "a"))
        committed = cluster.sim.run_until(fut, limit=cluster.sim.now + 300_000)
        assert committed is True
        cluster.sim.run(until=cluster.sim.now + 5_000)
        assert cluster.read_committed("items", "a").value == {"stock": 11}
        assert cluster.read_committed("items", "b").value == {"stock": 21}

    def test_recover_aborts_partially_proposed_transaction(self):
        """Coordinator died after proposing only one of two options: the
        missing option proves the tx cannot have committed -> abort."""
        cluster = make_cluster(seed=22)
        cluster.load_record("items", "a", {"stock": 10})
        cluster.load_record("items", "b", {"stock": 20})
        # Craft a half-proposed transaction by hand.
        records = (RecordId("items", "a"), RecordId("items", "b"))
        option_a = Option(
            txid="half-tx",
            record=records[0],
            update=PhysicalUpdate(vread=1, new_value={"stock": 11}),
            writeset=records,
        )
        injector = cluster.add_client("us-west")
        for replica in cluster.placement.replicas(records[0]):
            injector.send(replica, ProposeFast(option=option_a, reply_to=injector.node_id))
        cluster.sim.run(until=cluster.sim.now + 5_000)

        agent = cluster.add_recovery_agent("us-east")
        fut = agent.recover("half-tx", records[0])
        committed = cluster.sim.run_until(fut, limit=cluster.sim.now + 300_000)
        assert committed is False
        cluster.sim.run(until=cluster.sim.now + 5_000)
        # Nothing changed; the outstanding option on "a" was discarded.
        assert cluster.read_committed("items", "a").value == {"stock": 10}
        assert cluster.read_committed("items", "b").value == {"stock": 20}

    def test_record_not_wedged_after_recovery(self):
        """After recovery clears a dangling option, new transactions on
        the same record proceed normally."""
        cluster = make_cluster(seed=23)
        cluster.load_record("items", "a", {"stock": 10})
        records = (RecordId("items", "a"),)
        dangling = Option(
            txid="wedge-tx",
            record=records[0],
            update=PhysicalUpdate(vread=1, new_value={"stock": 99}),
            writeset=records,
        )
        injector = cluster.add_client("us-west")
        for replica in cluster.placement.replicas(records[0]):
            injector.send(replica, ProposeFast(option=dangling, reply_to=injector.node_id))
        cluster.sim.run(until=cluster.sim.now + 5_000)

        # The dangling accepted option blocks new writes (validSingle).
        blocked_tx = cluster.begin(injector)
        cluster.sim.run_until(blocked_tx.read("items", "a"), limit=cluster.sim.now + 10_000)
        blocked_tx.write("items", "a", {"stock": 5})
        blocked = cluster.sim.run_until(
            blocked_tx.commit(), limit=cluster.sim.now + 300_000
        )
        assert not blocked.committed  # rejected while option outstanding

        agent = cluster.add_recovery_agent("us-west")
        fut = agent.recover("wedge-tx", records[0])
        cluster.sim.run_until(fut, limit=cluster.sim.now + 300_000)
        cluster.sim.run(until=cluster.sim.now + 5_000)

        retry = cluster.begin(injector)
        cluster.sim.run_until(retry.read("items", "a"), limit=cluster.sim.now + 10_000)
        value = dict(retry.observed_value("items", "a"))
        value["stock"] = 5
        retry.write("items", "a", value)
        outcome = cluster.sim.run_until(retry.commit(), limit=cluster.sim.now + 300_000)
        assert outcome.committed

    def test_concurrent_recovery_agents_agree(self):
        cluster = make_cluster(seed=24)
        cluster.load_record("items", "a", {"stock": 10})
        crasher = CrashingCoordinator(
            cluster.transport,
            "crasher",
            "ap-northeast",
            placement=cluster.placement,
            config=cluster.config,
            counters=cluster.counters,
        )
        tx = cluster.begin(crasher)
        cluster.sim.run_until(tx.read("items", "a"), limit=10_000)
        tx.write("items", "a", {"stock": 7})
        tx.commit(txid="race-tx")
        cluster.sim.run(until=cluster.sim.now + 10_000)

        agents = [
            cluster.add_recovery_agent("us-west"),
            cluster.add_recovery_agent("eu-west"),
        ]
        futures = [a.recover("race-tx", RecordId("items", "a")) for a in agents]
        results = [
            cluster.sim.run_until(f, limit=cluster.sim.now + 300_000) for f in futures
        ]
        assert results[0] == results[1]
        cluster.sim.run(until=cluster.sim.now + 5_000)
        expected = {"stock": 7} if results[0] else {"stock": 10}
        assert cluster.read_committed("items", "a").value == expected


class TestMasterFailover:
    def test_commit_completes_when_master_dc_is_down(self):
        """A collision whose designated master is unreachable fails over
        to the next master candidate."""
        cluster = make_cluster(seed=25)
        cluster.load_record("items", "hot", {"stock": 50})
        record = RecordId("items", "hot")
        master_dc = cluster.placement.master_dc(record)
        # Two conflicting writers force a collision; master's DC is dead.
        other_dcs = [dc for dc in cluster.placement.datacenters if dc != master_dc]
        cluster.fail_datacenter(master_dc)
        c1 = cluster.add_client(other_dcs[0])
        c2 = cluster.add_client(other_dcs[1])
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        cluster.sim.run_until(t1.read("items", "hot"), limit=cluster.sim.now + 20_000)
        cluster.sim.run_until(t2.read("items", "hot"), limit=cluster.sim.now + 20_000)
        t1.write("items", "hot", {"stock": 49})
        t2.write("items", "hot", {"stock": 48})
        f1, f2 = t1.commit(), t2.commit()
        o1 = cluster.sim.run_until(f1, limit=cluster.sim.now + 900_000)
        o2 = cluster.sim.run_until(f2, limit=cluster.sim.now + 900_000)
        assert o1.committed != o2.committed


class TestFinishedRecoveriesLetGo:
    def test_a_finished_recovery_keeps_only_its_verdict(self):
        """After a coordinator-crash run every recovery agent holds no
        replies, options or decisions — only the resolved future per
        txid, which a repeated recover() returns without a second run."""
        schedule = named_schedule(
            "coordinator-crash", start_ms=2_000.0, duration_ms=20_000.0
        )
        cluster = build_cluster(
            ClusterSpec(seed=7, master_policy=schedule.master_policy)
        )
        agents = []
        add_recovery_agent = cluster.add_recovery_agent

        def recording(*args, **kwargs):
            agents.append(add_recovery_agent(*args, **kwargs))
            return agents[-1]

        cluster.add_recovery_agent = recording
        bench = MicroBenchmark(num_items=150, min_stock=500, max_stock=1_000)
        result = run(
            cluster, bench, schedule, num_clients=8, warmup_ms=2_000.0,
            measure_ms=20_000.0,
        )
        assert result.clean and result.recovery_outcomes
        finished = 0
        for agent in agents:
            assert agent._by_txid == {} and agent._by_request == {}
            for txid, future in agent._done.items():
                assert future.done
                finished += 1
                started = cluster.counters.get("recovery.started")
                sent = cluster.network.stats.messages_sent
                assert agent.recover(txid, RecordId("items", "x")) is future
                assert cluster.counters.get("recovery.started") == started
                assert cluster.network.stats.messages_sent == sent
        assert finished >= len(result.recovery_outcomes)
