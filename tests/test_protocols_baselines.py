"""Tests for the baseline protocols: 2PC, QW-3/QW-4, Megastore*."""

import pytest

from repro.core.options import RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.protocols.base import get_protocol
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(protocol, seed=1):
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, partitions_per_table=1, seed=seed)
    )
    cluster.register_table(ITEMS)
    return cluster


def run_tx(cluster, fut, limit_ms=300_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


class TestTwoPC:
    def test_commit_applies_everywhere(self):
        cluster = make_cluster("2pc")
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        drain(cluster)
        for snap in cluster.committed_snapshots("items", "i").values():
            assert snap.value == {"stock": 9}

    def test_two_round_trips(self):
        """2PC pays two full rounds to ALL replicas — roughly twice the
        farthest RTT (~210ms from us-west)."""
        cluster = make_cluster("2pc", seed=2)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert 380 <= outcome.latency_ms <= 520

    def test_conflicting_transactions_one_aborts(self):
        cluster = make_cluster("2pc", seed=3)
        cluster.load_record("items", "hot", {"stock": 50})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("eu-west")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        run_tx(cluster, t1.read("items", "hot"))
        run_tx(cluster, t2.read("items", "hot"))
        t1.write("items", "hot", {"stock": 49})
        t2.write("items", "hot", {"stock": 48})
        o1 = run_tx(cluster, t1.commit())
        o2 = run_tx(cluster, t2.commit())
        assert not (o1.committed and o2.committed)

    def test_aborts_when_replica_unreachable(self):
        """2PC needs ALL replicas; a failed DC forces an abort on timeout
        (the blocking weakness the paper calls out)."""
        cluster = make_cluster("2pc", seed=4)
        cluster.load_record("items", "i", {"stock": 10})
        cluster.fail_datacenter("ap-southeast")
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit(), limit_ms=600_000)
        assert not outcome.committed

    def test_commutative_prepare_respects_constraint(self):
        cluster = make_cluster("2pc", seed=5)
        cluster.load_record("items", "scarce", {"stock": 2})
        client = cluster.add_client("us-west")

        def buy(amount):
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", "scarce"))
            tx.decrement("items", "scarce", "stock", amount)
            return run_tx(cluster, tx.commit())

        assert buy(2).committed
        drain(cluster)
        assert not buy(1).committed  # stock exhausted -> version check fails
        drain(cluster)
        for snap in cluster.committed_snapshots("items", "scarce").values():
            assert snap.value["stock"] == 0

    def test_locks_released_after_abort(self):
        cluster = make_cluster("2pc", seed=6)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        # A tx with stale vread aborts...
        tx = cluster.begin(client)
        tx._writeset.put("items", "i", 99, {"stock": 1})
        assert not run_tx(cluster, tx.commit()).committed
        drain(cluster)
        # ...and the record is still writable.
        tx2 = cluster.begin(client)
        run_tx(cluster, tx2.read("items", "i"))
        tx2.write("items", "i", {"stock": 9})
        assert run_tx(cluster, tx2.commit()).committed


class TestQuorumWrites:
    def test_qw3_faster_than_qw4(self):
        latencies = {}
        for proto in ("qw3", "qw4"):
            cluster = make_cluster(proto, seed=7)
            cluster.load_record("items", "i", {"stock": 10})
            client = cluster.add_client("us-west")
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", "i"))
            tx.write("items", "i", {"stock": 9})
            latencies[proto] = run_tx(cluster, tx.commit()).latency_ms
        # From us-west: 3rd closest is Tokyo (120ms), 4th is EU (170ms).
        assert latencies["qw3"] < latencies["qw4"]

    def test_qw_never_aborts(self):
        cluster = make_cluster("qw3", seed=8)
        cluster.load_record("items", "hot", {"stock": 1})
        outcomes = []
        futures = []
        for dc in cluster.placement.datacenters:
            client = cluster.add_client(dc)
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", "hot"))
            tx.write("items", "hot", {"stock": 0})
            futures.append(tx.commit())
        outcomes = [run_tx(cluster, f) for f in futures]
        assert all(o.committed for o in outcomes)

    def test_qw_violates_stock_constraint(self):
        """The guarantee gap the paper's comparison rests on: QW commits
        everything, so concurrent decrements oversell."""
        cluster = make_cluster("qw3", seed=9)
        cluster.load_record("items", "scarce", {"stock": 2})
        futures = []
        for dc in cluster.placement.datacenters:
            client = cluster.add_client(dc)
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", "scarce"))
            # LWW write computed from a (stale) local read: lost updates.
            value = dict(tx.observed_value("items", "scarce"))
            value["stock"] = value["stock"] - 1
            tx.write("items", "scarce", value)
            futures.append(tx.commit())
        outcomes = [run_tx(cluster, f) for f in futures]
        drain(cluster, 10_000)
        assert all(o.committed for o in outcomes)  # 5 "successful" buys
        final = cluster.read_committed("items", "scarce").value["stock"]
        assert final > 2 - 5  # updates were lost: stock did NOT drop by 5

    def test_replicas_converge_lww(self):
        cluster = make_cluster("qw4", seed=10)
        cluster.load_record("items", "i", {"stock": 10})
        futures = []
        for index, dc in enumerate(cluster.placement.datacenters):
            client = cluster.add_client(dc)
            tx = cluster.begin(client)
            tx._writeset.put("items", "i", 1, {"stock": index})
            futures.append(tx.commit())
        for fut in futures:
            run_tx(cluster, fut)
        drain(cluster, 10_000)
        values = {
            snap.value["stock"]
            for snap in cluster.committed_snapshots("items", "i").values()
        }
        assert len(values) == 1  # all replicas agree on the last writer


class TestMegastore:
    def test_commit_and_replication(self):
        cluster = make_cluster("megastore", seed=11)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        drain(cluster, 10_000)
        for snap in cluster.committed_snapshots("items", "i").values():
            assert snap.value == {"stock": 9}

    def test_local_master_is_fast_at_zero_load(self):
        cluster = make_cluster("megastore", seed=12)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")  # co-located with master
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        # One master->quorum round trip (3rd closest from us-west: 120ms).
        assert outcome.latency_ms <= 200

    def test_conflicting_transactions_abort_at_master(self):
        cluster = make_cluster("megastore", seed=13)
        cluster.load_record("items", "hot", {"stock": 50})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("us-west")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        run_tx(cluster, t1.read("items", "hot"))
        run_tx(cluster, t2.read("items", "hot"))
        t1.write("items", "hot", {"stock": 49})
        t2.write("items", "hot", {"stock": 48})
        f1, f2 = t1.commit(), t2.commit()
        o1, o2 = run_tx(cluster, f1), run_tx(cluster, f2)
        assert o1.committed != o2.committed

    def test_non_conflicting_transactions_batch(self):
        """Paxos-CP: disjoint transactions share a log position instead of
        serializing one-at-a-time."""
        cluster = make_cluster("megastore", seed=14)
        for i in range(4):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        clients = [cluster.add_client("us-west") for _ in range(4)]
        futures = []
        for i, client in enumerate(clients):
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", f"i{i}"))
            tx.write("items", f"i{i}", {"stock": 9})
            futures.append(tx.commit())
        outcomes = [run_tx(cluster, f) for f in futures]
        assert all(o.committed for o in outcomes)
        # All four rode few log positions (batching), so the slowest
        # latency stays near one replication round, not four.
        assert max(o.latency_ms for o in outcomes) < 450

    def test_serialization_queues_under_load(self):
        """The Megastore* bottleneck: a burst of conflicting-or-not
        transactions serializes through log positions, so tail latency
        grows with the queue."""
        cluster = make_cluster("megastore", seed=15)
        for i in range(40):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        clients = [cluster.add_client("us-west") for _ in range(40)]
        futures = []
        for i, client in enumerate(clients):
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", f"i{i}"))
            tx.write("items", f"i{i}", {"stock": 9})
            futures.append(tx.commit())
        outcomes = [run_tx(cluster, f, limit_ms=900_000) for f in futures]
        assert all(o.committed for o in outcomes)
        latencies = sorted(o.latency_ms for o in outcomes)
        # 40 txs / batch 4 = ~10 sequential positions of ~120ms each:
        # the tail must be several times the head.
        assert latencies[-1] > 3 * latencies[0]

    def test_multiple_partitions_rejected(self):
        """A single entity group: asking for more partitions collapses to
        one, on every deployment built from a spec."""
        spec = ClusterSpec(protocol="megastore", partitions_per_table=2)
        assert spec.effective_partitions == 1
        cluster = build_cluster(spec)
        assert cluster.placement.partitions_per_table == 1
        assert sorted(cluster.storage_nodes) == sorted(
            f"store-{dc}-p0" for dc in cluster.placement.datacenters
        )


class TestAbortPathsThroughProtocolInterface:
    """Conflict/abort paths for every baseline, driven through the
    :class:`~repro.protocols.base.Protocol` descriptors: the roles come
    from the registry factories and the observed behavior must match the
    descriptor's declared abort vocabulary."""

    def test_twopc_aborted_participant_releases_its_lock(self):
        """An aborted 2PC participant (prepare lost to a conflict) must
        release on the abort decision — the loser's lock cannot outlive
        the round."""
        descriptor = get_protocol("2pc")
        assert "lock-conflict" in descriptor.abort_reasons
        cluster = make_cluster("2pc", seed=31)
        cluster.load_record("items", "hot", {"stock": 10})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("us-east")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        run_tx(cluster, t1.read("items", "hot"))
        run_tx(cluster, t2.read("items", "hot"))
        t1.write("items", "hot", {"stock": 9})
        t2.write("items", "hot", {"stock": 8})
        f1, f2 = t1.commit(), t2.commit()
        o1, o2 = run_tx(cluster, f1), run_tx(cluster, f2)
        # Racing all-replica prepares conflict: at least one aborts (both
        # may — each can win a subset of replicas and concede).
        assert not (o1.committed and o2.committed)
        drain(cluster, 30_000)
        # The abort released every participant lock: a fresh transaction
        # on the same record commits without waiting anything out.
        t3 = cluster.begin(c1)
        run_tx(cluster, t3.read("items", "hot"))
        t3.write("items", "hot", {"stock": 7})
        assert run_tx(cluster, t3.commit()).committed
        for node in cluster.storage_nodes.values():
            assert not node._locks

    def test_quorum_write_divergence_is_real_and_unflagged(self):
        """QW declares NO abort vocabulary — and indeed commits through a
        partition, leaving the cut-off replica divergent (the guarantee
        gap the paper's §5.2 comparison rests on)."""
        descriptor = get_protocol("qw3")
        assert descriptor.abort_reasons == ()
        cluster = make_cluster("qw3", seed=32)
        cluster.load_record("items", "i", {"stock": 10})
        cluster.fail_datacenter("ap-southeast")
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        assert run_tx(cluster, tx.commit()).committed  # W=3 of 4 alive
        drain(cluster, 30_000)
        snapshots = cluster.committed_snapshots("items", "i")
        versions = {node: snap.version for node, snap in snapshots.items()}
        behind = cluster.placement.replica_in(RecordId("items", "i"), "ap-southeast")
        assert versions[behind] == 1  # diverged silently
        assert all(v == 2 for node, v in versions.items() if node != behind)

    def test_megastore_log_position_conflict_aborts_exactly_one(self):
        descriptor = get_protocol("megastore")
        assert descriptor.abort_reasons == ("log-position-conflict",)
        cluster = make_cluster("megastore", seed=33)
        cluster.load_record("items", "hot", {"stock": 10})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("us-west")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        run_tx(cluster, t1.read("items", "hot"))
        run_tx(cluster, t2.read("items", "hot"))
        t1.write("items", "hot", {"stock": 9})
        t2.write("items", "hot", {"stock": 8})
        f1, f2 = t1.commit(), t2.commit()
        o1, o2 = run_tx(cluster, f1), run_tx(cluster, f2)
        # Both contend for the same log position: the master serializes,
        # exactly one wins it.
        assert o1.committed != o2.committed
        drain(cluster, 30_000)
        values = {
            snap.value["stock"]
            for snap in cluster.committed_snapshots("items", "hot").values()
        }
        assert len(values) == 1

    def test_repcommit_minority_dc_partition_aborts(self):
        """Replicated Commit's declared minority/vote-timeout aborts: a
        proposer cut off from a majority of DCs gives up instead of
        blocking, and the healed cluster is immediately writable."""
        descriptor = get_protocol("repcommit")
        assert "minority" in descriptor.abort_reasons
        assert "vote-timeout" in descriptor.abort_reasons
        cluster = make_cluster("repcommit", seed=34)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        for dc in ("us-east", "eu-west", "ap-northeast"):
            cluster.fail_datacenter(dc)
        tx.write("items", "i", {"stock": 9})
        assert not run_tx(cluster, tx.commit(), limit_ms=600_000).committed
        for dc in ("us-east", "eu-west", "ap-northeast"):
            cluster.recover_datacenter(dc)
        drain(cluster, 30_000)
        tx2 = cluster.begin(client)
        run_tx(cluster, tx2.read("items", "i"))
        tx2.write("items", "i", {"stock": 8})
        assert run_tx(cluster, tx2.commit()).committed
