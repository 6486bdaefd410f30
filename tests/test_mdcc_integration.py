"""End-to-end MDCC protocol tests over the simulated five-DC WAN.

These exercise the full stack — coordinator, acceptors, master recovery,
visibility — and check the paper's headline guarantees: one-round-trip
fast commits, write-write conflict detection (no lost updates), atomic
durability across records, commutative commits, and constraint safety.
"""

import pytest

from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(protocol="mdcc", seed=1):
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, partitions_per_table=1, seed=seed)
    )
    cluster.register_table(ITEMS)
    cluster.register_table(TableSchema("orders"))
    return cluster


def run_tx(cluster, fut, limit_ms=120_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


class TestFastPathCommit:
    def test_single_record_write_commits(self):
        cluster = make_cluster()
        cluster.load_record("items", "i1", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i1"))
        tx.write("items", "i1", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        assert outcome.fast_path

    def test_one_round_trip_latency(self):
        """The headline: commit in a single wide-area round trip — the RTT
        to the 4th-closest data center (EU @ 170ms from us-west)."""
        cluster = make_cluster(seed=3)
        cluster.load_record("items", "i1", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i1"))
        tx.write("items", "i1", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        assert 150 <= outcome.latency_ms <= 230  # ~1 RTT, not 2

    def test_replicas_converge(self):
        cluster = make_cluster()
        cluster.load_record("items", "i1", {"stock": 10})
        client = cluster.add_client("eu-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i1"))
        tx.write("items", "i1", {"stock": 5})
        run_tx(cluster, tx.commit())
        drain(cluster)
        for snap in cluster.committed_snapshots("items", "i1").values():
            assert snap.value == {"stock": 5}
            assert snap.version == 2

    def test_commit_from_any_datacenter(self):
        """Master-bypassing: every DC commits in ~1 round trip without
        talking to any master."""
        cluster = make_cluster(seed=4)
        for index, dc in enumerate(cluster.placement.datacenters):
            key = f"i-{dc}"
            cluster.load_record("items", key, {"stock": 10})
            client = cluster.add_client(dc)
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", key))
            tx.write("items", key, {"stock": 3})
            outcome = run_tx(cluster, tx.commit())
            assert outcome.committed and outcome.fast_path, dc

    def test_multi_record_transaction_commits_atomically(self):
        cluster = make_cluster()
        cluster.load_record("items", "a", {"stock": 1})
        cluster.load_record("items", "b", {"stock": 2})
        client = cluster.add_client("us-east")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "a"))
        run_tx(cluster, tx.read("items", "b"))
        tx.write("items", "a", {"stock": 11})
        tx.write("items", "b", {"stock": 12})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        drain(cluster)
        assert cluster.read_committed("items", "a").value == {"stock": 11}
        assert cluster.read_committed("items", "b").value == {"stock": 12}

    def test_read_only_transaction_is_free(self):
        cluster = make_cluster()
        cluster.load_record("items", "i1", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i1"))
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        assert outcome.latency_ms == 0.0

    def test_insert_and_delete(self):
        cluster = make_cluster()
        client = cluster.add_client("ap-northeast")
        tx = cluster.begin(client)
        tx.insert("orders", "o1", {"total": 42})
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster)
        assert cluster.read_committed("orders", "o1").value == {"total": 42}

        tx2 = cluster.begin(client)
        run_tx(cluster, tx2.read("orders", "o1"))
        tx2.delete("orders", "o1")
        assert run_tx(cluster, tx2.commit()).committed
        drain(cluster)
        snap = cluster.read_committed("orders", "o1")
        assert not snap.exists


class TestWriteWriteConflicts:
    def test_stale_read_version_aborts(self):
        cluster = make_cluster()
        cluster.load_record("items", "i1", {"stock": 10})
        client = cluster.add_client("us-west")
        # First tx commits, bumping the version.
        tx1 = cluster.begin(client)
        run_tx(cluster, tx1.read("items", "i1"))
        tx1.write("items", "i1", {"stock": 9})
        assert run_tx(cluster, tx1.commit()).committed
        drain(cluster)
        # Second tx writes with the OLD version.
        tx2 = cluster.begin(client)
        tx2._writeset.put("items", "i1", 1, {"stock": 8})  # stale vread=1
        outcome = run_tx(cluster, tx2.commit())
        assert not outcome.committed
        drain(cluster)
        assert cluster.read_committed("items", "i1").value == {"stock": 9}

    def test_concurrent_writers_at_most_one_commits(self):
        """No lost updates: concurrent write-write conflict resolves to
        exactly one winner (collision -> master arbitration)."""
        cluster = make_cluster(seed=7)
        cluster.load_record("items", "hot", {"stock": 100})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("ap-southeast")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        run_tx(cluster, t1.read("items", "hot"))
        run_tx(cluster, t2.read("items", "hot"))
        t1.write("items", "hot", {"stock": 99})
        t2.write("items", "hot", {"stock": 98})
        f1, f2 = t1.commit(), t2.commit()
        o1 = run_tx(cluster, f1)
        o2 = run_tx(cluster, f2)
        assert o1.committed != o2.committed  # exactly one wins
        drain(cluster)
        winner_stock = 99 if o1.committed else 98
        for snap in cluster.committed_snapshots("items", "hot").values():
            assert snap.value["stock"] == winner_stock

    def test_double_insert_one_wins(self):
        cluster = make_cluster(seed=11)
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("eu-west")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        t1.insert("orders", "o-dup", {"by": "west"})
        t2.insert("orders", "o-dup", {"by": "europe"})
        o1 = run_tx(cluster, t1.commit())
        o2 = run_tx(cluster, t2.commit())
        assert o1.committed != o2.committed
        drain(cluster)
        snap = cluster.read_committed("orders", "o-dup")
        assert snap.exists

    def test_conflicting_multirecord_transactions_no_deadlock(self):
        """§3.2.2: t1 and t2 both write records r1 and r2 concurrently.
        The deadlock-avoidance policy guarantees progress: never both
        commit, and neither blocks forever."""
        cluster = make_cluster(seed=13)
        cluster.load_record("items", "r1", {"stock": 10})
        cluster.load_record("items", "r2", {"stock": 20})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("ap-southeast")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        for t in (t1, t2):
            run_tx(cluster, t.read("items", "r1"))
            run_tx(cluster, t.read("items", "r2"))
        t1.write("items", "r1", {"stock": 11})
        t1.write("items", "r2", {"stock": 21})
        t2.write("items", "r1", {"stock": 12})
        t2.write("items", "r2", {"stock": 22})
        f1, f2 = t1.commit(), t2.commit()
        o1 = run_tx(cluster, f1, limit_ms=300_000)
        o2 = run_tx(cluster, f2, limit_ms=300_000)
        assert not (o1.committed and o2.committed)
        drain(cluster)
        # Atomic durability: the surviving state is one tx's writes or none.
        r1 = cluster.read_committed("items", "r1").value["stock"]
        r2 = cluster.read_committed("items", "r2").value["stock"]
        assert (r1, r2) in [(11, 21), (12, 22), (10, 20)]


class TestCommutative:
    def test_concurrent_decrements_all_commit(self):
        cluster = make_cluster(seed=8)
        cluster.load_record("items", "hot", {"stock": 100})
        outcomes = []
        futures = []
        for dc in cluster.placement.datacenters:
            client = cluster.add_client(dc)
            tx = cluster.begin(client)
            tx.decrement("items", "hot", "stock", 2)
            futures.append(tx.commit())
        for fut in futures:
            outcomes.append(run_tx(cluster, fut))
        assert all(o.committed for o in outcomes)
        assert all(o.fast_path for o in outcomes)
        drain(cluster)
        for snap in cluster.committed_snapshots("items", "hot").values():
            assert snap.value["stock"] == 90

    def test_constraint_never_violated_under_burst(self):
        """Sell exactly the stock, never more, across waves of buyers."""
        cluster = make_cluster(seed=9)
        cluster.load_record("items", "scarce", {"stock": 5})
        clients = [
            cluster.add_client(dc)
            for dc in cluster.placement.datacenters
            for _ in range(2)
        ]
        committed = 0
        for _wave in range(3):
            futures = []
            for client in clients:
                tx = cluster.begin(client)
                tx.decrement("items", "scarce", "stock", 1)
                futures.append(tx.commit())
            for fut in futures:
                outcome = run_tx(cluster, fut, limit_ms=600_000)
                committed += outcome.committed
            drain(cluster)
        assert committed == 5  # exactly the stock
        for snap in cluster.committed_snapshots("items", "scarce").values():
            assert snap.value["stock"] == 0

    def test_increment_unconstrained_attribute(self):
        cluster = make_cluster(seed=10)
        cluster.load_record("items", "i", {"stock": 5, "views": 0})
        client = cluster.add_client("eu-west")
        tx = cluster.begin(client)
        tx.increment("items", "i", "views", 1)
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster)
        assert cluster.read_committed("items", "i").value["views"] == 1

    def test_mixed_deltas_one_transaction(self):
        cluster = make_cluster(seed=12)
        cluster.load_record("items", "i", {"stock": 5, "sold": 0})
        client = cluster.add_client("us-east")
        tx = cluster.begin(client)
        tx.decrement("items", "i", "stock", 2)
        tx.increment("items", "i", "sold", 2)
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster)
        value = cluster.read_committed("items", "i").value
        assert value == {"stock": 3, "sold": 2}


class TestVariants:
    def test_fast_variant_converts_deltas_to_physical(self):
        cluster = make_cluster("fast", seed=5)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.decrement("items", "i", "stock", 3)
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        drain(cluster)
        assert cluster.read_committed("items", "i").value["stock"] == 7

    def test_fast_variant_requires_read_before_delta(self):
        cluster = make_cluster("fast", seed=5)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        with pytest.raises(ValueError, match="requires a prior read"):
            tx.decrement("items", "i", "stock", 1)

    def test_multi_variant_routes_via_master(self):
        cluster = make_cluster("multi", seed=6)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        assert not outcome.fast_path
        drain(cluster)
        for snap in cluster.committed_snapshots("items", "i").values():
            assert snap.value["stock"] == 9

    def test_multi_variant_conflict_detection(self):
        cluster = make_cluster("multi", seed=14)
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
        assert o1.committed != o2.committed


class TestDataCenterFailure:
    def test_commits_continue_through_dc_failure(self):
        """§5.3.4: MDCC seamlessly tolerates a full DC outage."""
        cluster = make_cluster(seed=15)
        cluster.load_record("items", "i", {"stock": 100})
        client = cluster.add_client("us-west")
        # Healthy commit first.
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 99})
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster)
        # Kill the closest DC to us-west.
        cluster.fail_datacenter("us-east")
        tx2 = cluster.begin(client)
        run_tx(cluster, tx2.read("items", "i"))
        tx2.write("items", "i", {"stock": 98})
        outcome = run_tx(cluster, tx2.commit())
        assert outcome.committed

    def test_latency_increases_after_failure(self):
        cluster = make_cluster(seed=16)
        cluster.load_record("items", "i", {"stock": 100})
        client = cluster.add_client("us-west")

        def one_commit(new_stock):
            tx = cluster.begin(client)
            run_tx(cluster, tx.read("items", "i"))
            tx.write("items", "i", {"stock": new_stock})
            return run_tx(cluster, tx.commit())

        before = one_commit(99)
        drain(cluster)
        cluster.fail_datacenter("us-east")
        after = one_commit(98)
        # Pre-failure: wait on EU (170ms RTT).  Post: Singapore (210ms).
        assert after.latency_ms > before.latency_ms

    def test_commutative_commits_survive_failure(self):
        cluster = make_cluster(seed=17)
        cluster.load_record("items", "i", {"stock": 100})
        cluster.fail_datacenter("ap-northeast")
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        tx.decrement("items", "i", "stock", 1)
        assert run_tx(cluster, tx.commit()).committed

    def test_two_dc_failures_block_fast_commits_but_not_forever(self):
        """With only 3 of 5 DCs alive a fast quorum (4) is unreachable;
        the coordinator escalates to the master whose classic quorum (3)
        still works."""
        cluster = make_cluster(seed=18)
        cluster.load_record("items", "i", {"stock": 100})
        cluster.fail_datacenter("ap-northeast")
        cluster.fail_datacenter("ap-southeast")
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 99})
        outcome = run_tx(cluster, tx.commit(), limit_ms=600_000)
        assert outcome.committed
        assert not outcome.fast_path  # had to go through the master
