"""Tests for the anti-entropy replica-repair agent."""

import pytest

from repro.db.checkers import check_replica_convergence
from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(seed=1, **spec):
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=seed, **spec))
    cluster.register_table(ITEMS)
    return cluster


def run_tx(cluster, fut, limit_ms=300_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


def commit_write(cluster, client, key, value):
    tx = cluster.begin(client)
    run_tx(cluster, tx.read("items", key))
    tx.write("items", key, value)
    outcome = run_tx(cluster, tx.commit())
    assert outcome.committed
    drain(cluster)
    return outcome


class TestSweepBasics:
    def test_sweep_on_healthy_cluster_repairs_nothing(self):
        cluster = make_cluster(seed=1)
        cluster.load_record("items", "a", {"stock": 5})
        client = cluster.add_client("us-west")
        commit_write(cluster, client, "a", {"stock": 4})

        agent = cluster.add_anti_entropy_agent("us-west")
        report = run_tx(cluster, agent.sweep("items", ["a"]))
        assert report.records_swept == 1
        assert report.replicas_repaired == 0
        assert report.records_with_lag == 0
        assert report.unreachable_replies == 0

    def test_sweep_empty_key_list(self):
        cluster = make_cluster(seed=2)
        agent = cluster.add_anti_entropy_agent("us-west")
        report = run_tx(cluster, agent.sweep("items", []))
        assert report.records_swept == 0

    def test_sweep_repairs_stale_replica_after_outage(self):
        cluster = make_cluster(seed=3)
        cluster.load_record("items", "a", {"stock": 10})
        client = cluster.add_client("us-west")

        cluster.fail_datacenter("us-east")
        commit_write(cluster, client, "a", {"stock": 7})
        cluster.recover_datacenter("us-east")

        # us-east missed the update; it diverges until repaired.
        assert len(check_replica_convergence(cluster, "items", ["a"])) == 1

        agent = cluster.add_anti_entropy_agent("us-west")
        report = run_tx(cluster, agent.sweep("items", ["a"]))
        drain(cluster)
        assert report.records_with_lag == 1
        assert report.replicas_repaired == 1
        assert check_replica_convergence(cluster, "items", ["a"]) == []
        east = cluster.read_committed("items", "a", dc="us-east")
        assert east.value == {"stock": 7}

    def test_sweep_during_outage_reports_unreachable(self):
        cluster = make_cluster(seed=4)
        cluster.load_record("items", "a", {"stock": 10})
        cluster.fail_datacenter("us-east")
        agent = cluster.add_anti_entropy_agent("us-west")
        report = run_tx(cluster, agent.sweep("items", ["a"]))
        assert report.unreachable_replies == 1
        assert report.records_swept == 1

    def test_repair_is_monotone_never_rolls_back(self):
        """A CatchUp carrying an older version must be a no-op."""
        from repro.core.messages import CatchUp
        from repro.core.options import RecordId

        cluster = make_cluster(seed=5)
        cluster.load_record("items", "a", {"stock": 10})
        client = cluster.add_client("us-west")
        commit_write(cluster, client, "a", {"stock": 9})

        record = RecordId("items", "a")
        node = cluster.storage_nodes[cluster.placement.replica_in(record, "us-west")]
        before = node.store.read("items", "a")
        node.handle_catch_up(
            CatchUp(record=record, version=1, value={"stock": 10}, exists=True),
            src_id="whoever",
        )
        after = node.store.read("items", "a")
        assert after.version == before.version
        assert after.value == before.value

    def test_sweep_repairs_multiple_records(self):
        cluster = make_cluster(seed=6)
        keys = [f"k{i}" for i in range(8)]
        for key in keys:
            cluster.load_record("items", key, {"stock": 10})
        client = cluster.add_client("us-west")

        cluster.fail_datacenter("eu-west")
        for key in keys[:5]:
            commit_write(cluster, client, key, {"stock": 3})
        cluster.recover_datacenter("eu-west")

        agent = cluster.add_anti_entropy_agent("us-west")
        report = run_tx(cluster, agent.sweep("items", keys))
        drain(cluster)
        assert report.records_swept == 8
        assert report.records_with_lag == 5
        assert report.replicas_repaired == 5
        assert check_replica_convergence(cluster, "items", keys) == []


class TestPeriodicSweeps:
    def test_periodic_sweep_heals_eventually(self):
        cluster = make_cluster(seed=7)
        cluster.load_record("items", "a", {"stock": 10})
        client = cluster.add_client("us-west")

        agent = cluster.add_anti_entropy_agent("us-west")
        agent.start_periodic("items", ["a"], interval_ms=10_000)

        cluster.fail_datacenter("ap-northeast")
        commit_write(cluster, client, "a", {"stock": 2})
        cluster.recover_datacenter("ap-northeast")
        assert len(check_replica_convergence(cluster, "items", ["a"])) == 1

        drain(cluster, ms=25_000)  # at least one periodic sweep fires
        assert check_replica_convergence(cluster, "items", ["a"]) == []
        agent.stop()

    def test_stop_cancels_future_sweeps(self):
        cluster = make_cluster(seed=8)
        cluster.load_record("items", "a", {"stock": 10})
        agent = cluster.add_anti_entropy_agent("us-west")
        agent.start_periodic("items", ["a"], interval_ms=5_000)
        agent.stop()
        before = cluster.counters.get("antientropy.sweeps")
        drain(cluster, ms=30_000)
        assert cluster.counters.get("antientropy.sweeps") == before

    def test_restart_replaces_previous_schedule(self):
        cluster = make_cluster(seed=9)
        cluster.load_record("items", "a", {"stock": 10})
        agent = cluster.add_anti_entropy_agent("us-west")
        agent.start_periodic("items", ["a"], interval_ms=5_000)
        agent.start_periodic("items", ["a"], interval_ms=50_000)
        drain(cluster, ms=20_000)
        # Only the 50s schedule is live: no sweep within the first 20s.
        assert cluster.counters.get("antientropy.sweeps") == 0

    def test_bad_interval_rejected(self):
        cluster = make_cluster(seed=10)
        agent = cluster.add_anti_entropy_agent("us-west")
        with pytest.raises(ValueError):
            agent.start_periodic("items", ["a"], interval_ms=0)


class TestCatchUpDoubleApply:
    def test_catchup_then_visibility_does_not_double_apply(self):
        """Regression: a CatchUp whose value already folds in delta D must
        mark D executed, or D's late visibility re-applies it (this once
        drove replicas below the stock constraint under hot contention)."""
        from repro.core.messages import CatchUp, Visibility
        from repro.core.options import CommutativeUpdate, Option, RecordId

        cluster = make_cluster(seed=20)
        cluster.load_record("items", "i", {"stock": 5})
        record = RecordId("items", "i")
        node = cluster.storage_nodes[cluster.placement.replica_in(record, "us-west")]
        option = Option(
            txid="t1",
            record=record,
            update=CommutativeUpdate.of(stock=-2),
            writeset=(record,),
        )

        node.handle_catch_up(
            CatchUp(
                record=record,
                version=2,
                value={"stock": 3},  # t1's -2 already folded in
                exists=True,
                applied_ids=(option.option_id,),
            ),
            src_id="master",
        )
        node.handle_visibility(Visibility(option=option, committed=True), "c")
        assert node.store.read("items", "i").value == {"stock": 3}

    def test_stale_catchup_does_not_mark_foreign_ids_applied(self):
        """A replica that is NOT behind must ignore the ids of a stale
        CatchUp: its own value may not contain those effects."""
        from repro.core.messages import CatchUp, Visibility
        from repro.core.options import CommutativeUpdate, Option, RecordId

        cluster = make_cluster(seed=21)
        cluster.load_record("items", "i", {"stock": 10})
        record = RecordId("items", "i")
        node = cluster.storage_nodes[cluster.placement.replica_in(record, "us-west")]
        # Local replica moves ahead on its own.
        node.store.record("items", "i").commit_delta("stock", -1, option_id="t9:x")

        option = Option(
            txid="t2",
            record=record,
            update=CommutativeUpdate.of(stock=-3),
            writeset=(record,),
        )
        node.handle_catch_up(
            CatchUp(
                record=record,
                version=1,  # older than local version 2: no-op
                value={"stock": 7},
                exists=True,
                applied_ids=(option.option_id,),
            ),
            src_id="master",
        )
        # t2's delta is NOT in the local value; its visibility must apply.
        node.handle_visibility(Visibility(option=option, committed=True), "c")
        assert node.store.read("items", "i").value == {"stock": 6}


class TestRepairUnderCommutativeLoad:
    def test_commutative_lag_repaired(self):
        """A replica that missed commutative deltas during an outage is
        brought to the quorum-committed value."""
        cluster = make_cluster(seed=11)
        cluster.load_record("items", "a", {"stock": 100})
        client = cluster.add_client("us-west")

        cluster.fail_datacenter("us-east")
        for _ in range(3):
            tx = cluster.begin(client)
            tx.decrement("items", "a", "stock", 5)
            assert run_tx(cluster, tx.commit()).committed
        drain(cluster)
        cluster.recover_datacenter("us-east")

        agent = cluster.add_anti_entropy_agent("us-west")
        run_tx(cluster, agent.sweep("items", ["a"]))
        drain(cluster)
        east = cluster.read_committed("items", "a", dc="us-east")
        assert east.value["stock"] == 85
        assert check_replica_convergence(cluster, "items", ["a"]) == []

    def test_same_version_divergence_escalates_to_recovery(self):
        """Replicas at the SAME version holding different delta sets.

        Five deltas, each committed while a different one of the five
        replicas was dark, leave every replica at version 5 with a
        different value — and no replica holds the full set, so
        version-based catch-up sees nothing to do.  The sweep must notice
        ids applied at a peer but wholly unknown locally (the propose
        itself was lost, nothing is pending) and escalate those
        transactions to the recovery agent, whose closing visibility
        broadcast carries the payloads the dark replicas never saw."""
        cluster = make_cluster(seed=12)
        dcs = cluster.placement.datacenters
        assert len(dcs) == 5
        cluster.load_record("items", "a", {"stock": 100})
        clients = {dc: cluster.add_client(dc) for dc in dcs}

        for index, dark in enumerate(dcs):
            cluster.fail_datacenter(dark)
            tx = cluster.begin(clients[dcs[index - 1]])
            tx.decrement("items", "a", "stock", 2**index)
            assert run_tx(cluster, tx.commit()).committed
            drain(cluster)
            cluster.recover_datacenter(dark)

        # Each replica missed a different delta: all at version 5, all
        # different, so the version-based catch-up is blind to it.
        versions = {
            cluster.read_committed("items", "a", dc=dc).version for dc in dcs
        }
        values = {
            cluster.read_committed("items", "a", dc=dc).value["stock"]
            for dc in dcs
        }
        assert versions == {5} and len(values) == 5

        agent = cluster.add_anti_entropy_agent("us-west")
        agent.attach_recovery(cluster.add_recovery_agent("us-west"))
        report = run_tx(cluster, agent.sweep("items", ["a"]))
        assert report.records_with_lag == 0
        # One escalation per delta: each is missing at one replica.
        assert report.recoveries_triggered == len(dcs)
        drain(cluster, ms=30_000)
        run_tx(cluster, agent.sweep("items", ["a"]))
        drain(cluster, ms=30_000)

        assert check_replica_convergence(cluster, "items", ["a"]) == []
        for dc in dcs:
            assert cluster.read_committed("items", "a", dc=dc).value == {
                "stock": 69
            }


class TestCatchUpCoversLag:
    """A replica the round's CatchUp repairs gets nothing else for the
    ids that CatchUp carries: no re-driven visibility, no recovery."""

    def _recovering_agent(self, cluster):
        agent = cluster.add_anti_entropy_agent("us-west")
        recovery = cluster.add_recovery_agent("us-west")
        agent.attach_recovery(recovery)
        return agent

    def test_lag_only_damage_gets_one_catch_up_and_nothing_else(self):
        cluster = make_cluster(seed=13)
        cluster.load_record("items", "a", {"stock": 100})
        client = cluster.add_client("us-west")

        cluster.fail_datacenter("us-east")
        for _ in range(3):
            tx = cluster.begin(client)
            tx.decrement("items", "a", "stock", 5)
            assert run_tx(cluster, tx.commit()).committed
        drain(cluster)
        cluster.recover_datacenter("us-east")
        assert len(check_replica_convergence(cluster, "items", ["a"])) == 1

        agent = self._recovering_agent(cluster)
        report = run_tx(cluster, agent.sweep("items", ["a"]))
        drain(cluster)
        assert (report.records_with_lag, report.replicas_repaired) == (1, 1)
        assert report.visibilities_redriven == 0
        assert report.recoveries_triggered == 0
        assert cluster.counters.get("recovery.started") == 0
        assert check_replica_convergence(cluster, "items", ["a"]) == []
        assert cluster.read_committed("items", "a", dc="us-east").value == {
            "stock": 85
        }

    def test_lagging_replica_missing_an_id_the_freshest_lacks_is_escalated(self):
        """us-east lags behind the freshest replica and also lacks a delta
        that only a less fresh replica applied.  The CatchUp carries the
        freshest replica's ids, so the ids us-east misses that the
        freshest holds are not escalated; the one it does not hold is."""
        from repro.core.options import RecordId

        cluster = make_cluster(seed=14)
        cluster.load_record("items", "a", {"stock": 100})
        record = RecordId("items", "a")
        dcs = cluster.placement.datacenters

        def stored(dc):
            node_id = cluster.placement.replica_in(record, dc)
            return cluster.storage_nodes[node_id].store.record("items", "a")

        applied = {
            "us-west": ("t1", "t2", "t3"),   # freshest, v4, lacks tx
            "us-east": ("t1",),              # lagging, v2
            "eu-west": ("t1", "tx"),         # holds tx, v3
            "ap-northeast": ("t1", "t2"),
            "ap-southeast": ("t1", "t2"),
        }
        assert set(applied) == set(dcs)
        for dc, txids in applied.items():
            for txid in txids:
                stored(dc).commit_delta("stock", -1, option_id=f"{txid}:{record}")

        escalated = []

        class Recovery:
            def recover(self, txid, hint_record):
                escalated.append((txid, hint_record))

        agent = cluster.add_anti_entropy_agent("us-west")
        agent.attach_recovery(Recovery())
        report = run_tx(cluster, agent.sweep("items", ["a"]))
        assert report.replicas_repaired == 4
        assert report.visibilities_redriven == 0
        assert escalated == [("tx", record)]
        assert report.recoveries_triggered == 1
        drain(cluster)
        # The CatchUp landed: t2 and t3 are executed at us-east now.
        assert stored("us-east").current_version == 4
        assert {f"t2:{record}", f"t3:{record}"} <= stored("us-east").applied_ids
