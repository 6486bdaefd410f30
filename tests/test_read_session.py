"""Tests for §4.2 session guarantees (monotonic reads, read-your-writes)."""

from repro.db.cluster import ClusterSpec, build_cluster
from repro.db.reads import ReadSession
from repro.storage.schema import TableSchema

ITEMS = TableSchema("items")


def make_cluster(seed=1):
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=seed))
    cluster.register_table(ITEMS)
    return cluster


def run_tx(cluster, fut, limit_ms=300_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


class TestReadYourWrites:
    def test_session_sees_own_write_immediately(self):
        """Right after commit — before visibilities reach the local
        replica — a session read escalates and returns the new value."""
        cluster = make_cluster(seed=1)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        session = ReadSession(client)

        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "x"))
        tx.write("items", "x", {"v": 2})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        session.note_commit(outcome, tx.writeset)

        # No drain: the local replica may not have executed yet.
        reply = run_tx(cluster, session.read("items", "x"))
        assert reply.value == {"v": 2}

    def test_aborted_write_does_not_raise_floor(self):
        cluster = make_cluster(seed=2)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        session = ReadSession(client)

        tx = cluster.begin(client)
        tx._writeset.put("items", "x", 99, {"v": 5})  # stale guard: aborts
        outcome = run_tx(cluster, tx.commit())
        assert not outcome.committed
        session.note_commit(outcome, tx.writeset)
        assert session.floor("items", "x") == 0


class TestMonotonicReads:
    def test_floor_rises_with_observed_versions(self):
        cluster = make_cluster(seed=3)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        session = ReadSession(client)
        reply = run_tx(cluster, session.read("items", "x"))
        assert session.floor("items", "x") == reply.version

    def test_no_older_version_after_remote_observation(self):
        """A session that observed a fresh version via quorum never
        regresses to the stale local replica."""
        cluster = make_cluster(seed=4)
        cluster.load_record("items", "x", {"v": 1})
        writer = cluster.add_client("us-east")
        reader = cluster.add_client("us-west")
        session = ReadSession(reader)

        # A remote writer commits; block the visibility from reaching
        # the reader's local replica by failing its DC link first.
        cluster.network.partition("us-west", "us-east")
        tx = cluster.begin(writer)
        run_tx(cluster, tx.read("items", "x"))
        tx.write("items", "x", {"v": 2})
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster)

        # The reader's session observes the fresh version via quorum read.
        from repro.db.reads import quorum_read

        fresh = run_tx(cluster, quorum_read(reader, "items", "x"))
        assert fresh.version >= 2
        session.observe("items", "x", fresh.version)

        # The local replica is still stale, but the session never shows it.
        local = cluster.read_committed("items", "x", dc="us-west")
        assert local.version < fresh.version
        reply = run_tx(cluster, session.read("items", "x"))
        assert reply.version >= fresh.version
        cluster.network.heal_partition("us-west", "us-east")

    def test_fresh_local_replica_answers_without_escalation(self):
        cluster = make_cluster(seed=5)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        session = ReadSession(client)
        first = run_tx(cluster, session.read("items", "x"))
        before = cluster.counters.get("acceptor.reads")
        second = run_tx(cluster, session.read("items", "x"))
        after = cluster.counters.get("acceptor.reads")
        assert second.version >= first.version
        # One local read only — no quorum fan-out.
        assert after - before == 1
