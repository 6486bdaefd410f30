"""Tests for §4.4 read-set validation (serializable transactions).

The paper: "as we already check the write-set for transactions, the
protocol could easily be extended to also consider read-sets, allowing us
to leverage optimistic concurrency control techniques and ultimately
provide full serializability."  These tests exercise that extension:
write-skew prevention, validated read-only transactions, read-read
non-conflicts, and the interplay with commutative updates.
"""

import pytest

from repro.core.options import ReadValidation
from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import TableSchema

ITEMS = TableSchema("items")


def make_cluster(protocol="mdcc", seed=1):
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, partitions_per_table=1, seed=seed)
    )
    cluster.register_table(ITEMS)
    return cluster


def run_tx(cluster, fut, limit_ms=300_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


class TestReadValidationUpdate:
    def test_negative_vread_rejected(self):
        with pytest.raises(ValueError):
            ReadValidation(vread=-1)

    def test_vread_zero_asserts_absence(self):
        assert ReadValidation(vread=0).vread == 0

    def test_validations_commute_in_options(self):
        from repro.core.options import Option, RecordId

        r = RecordId("items", "x")
        a = Option(txid="t1", record=r, update=ReadValidation(vread=3))
        b = Option(txid="t2", record=r, update=ReadValidation(vread=3))
        assert a.commutes_with(b)
        assert b.commutes_with(a)
        assert a.is_validation and not a.is_commutative


class TestWriteSkew:
    """The canonical anomaly read-committed-without-lost-updates allows
    and serializability forbids: two transactions each read both records
    and write the *other* one."""

    def _write_skew(self, serializable, protocol="mdcc", seed=2):
        cluster = make_cluster(protocol, seed=seed)
        cluster.load_record("items", "x", {"v": 5})
        cluster.load_record("items", "y", {"v": 5})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("us-east")
        t1 = cluster.begin(c1, serializable=serializable)
        t2 = cluster.begin(c2, serializable=serializable)
        for tx in (t1, t2):
            run_tx(cluster, tx.read("items", "x"))
            run_tx(cluster, tx.read("items", "y"))
        t1.write("items", "x", {"v": 0})  # decided using y
        t2.write("items", "y", {"v": 0})  # decided using x
        f1, f2 = t1.commit(), t2.commit()
        o1 = run_tx(cluster, f1)
        o2 = run_tx(cluster, f2)
        drain(cluster)
        return o1.committed, o2.committed

    def test_default_isolation_allows_write_skew(self):
        c1, c2 = self._write_skew(serializable=False)
        assert c1 and c2  # disjoint write-sets: both commit

    def test_serializable_forbids_write_skew(self):
        c1, c2 = self._write_skew(serializable=True)
        # Both aborting is a legal OCC outcome of the symmetric race; both
        # committing is the write-skew anomaly and must not happen.
        assert not (c1 and c2)

    def test_serializable_staggered_write_skew_one_commits(self):
        """When the transactions do not race (t1 fully commits first), t1
        must commit and t2 must abort on its stale validated read."""
        cluster = make_cluster(seed=21)
        cluster.load_record("items", "x", {"v": 5})
        cluster.load_record("items", "y", {"v": 5})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("us-east")

        t1 = cluster.begin(c1, serializable=True)
        t2 = cluster.begin(c2, serializable=True)
        for tx in (t1, t2):
            run_tx(cluster, tx.read("items", "x"))
            run_tx(cluster, tx.read("items", "y"))
        t1.write("items", "x", {"v": 0})
        assert run_tx(cluster, t1.commit()).committed
        drain(cluster)

        t2.write("items", "y", {"v": 0})  # validated read of x is stale now
        assert not run_tx(cluster, t2.commit()).committed

    def test_serializable_write_skew_under_2pc(self):
        c1, c2 = self._write_skew(serializable=True, protocol="2pc", seed=3)
        assert not (c1 and c2)


class TestValidatedReads:
    def test_read_only_serializable_commit(self):
        cluster = make_cluster(seed=4)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client, serializable=True)
        run_tx(cluster, tx.read("items", "x"))
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed

    def test_stale_read_aborts(self):
        cluster = make_cluster(seed=5)
        cluster.load_record("items", "x", {"v": 1})
        reader = cluster.add_client("us-west")
        writer = cluster.add_client("us-west")

        tx = cluster.begin(reader, serializable=True)
        run_tx(cluster, tx.read("items", "x"))

        # Another transaction overwrites x before the reader commits.
        w = cluster.begin(writer)
        run_tx(cluster, w.read("items", "x"))
        w.write("items", "x", {"v": 2})
        assert run_tx(cluster, w.commit()).committed
        drain(cluster)

        outcome = run_tx(cluster, tx.commit())
        assert not outcome.committed

    def test_concurrent_readers_do_not_conflict(self):
        cluster = make_cluster(seed=6)
        cluster.load_record("items", "x", {"v": 1})
        futures = []
        for dc in ("us-west", "us-east", "eu-west"):
            tx = cluster.begin(cluster.add_client(dc), serializable=True)
            run_tx(cluster, tx.read("items", "x"))
            futures.append(tx.commit())
        for fut in futures:
            assert run_tx(cluster, fut).committed

    def test_validated_absence(self):
        """vread=0 asserts the record does not exist at commit time."""
        cluster = make_cluster(seed=7)
        client = cluster.add_client("us-west")
        tx = cluster.begin(client, serializable=True)
        reply = run_tx(cluster, tx.read("items", "ghost"))
        assert not reply.exists
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed

    def test_validated_absence_fails_after_insert(self):
        cluster = make_cluster(seed=8)
        reader = cluster.add_client("us-west")
        writer = cluster.add_client("us-west")
        tx = cluster.begin(reader, serializable=True)
        run_tx(cluster, tx.read("items", "ghost"))

        w = cluster.begin(writer)
        w.insert("items", "ghost", {"v": 1})
        assert run_tx(cluster, w.commit()).committed
        drain(cluster)

        assert not run_tx(cluster, tx.commit()).committed

    def test_written_records_not_double_validated(self):
        """A record that is both read and written carries only the write
        (whose vread guard subsumes the validation)."""
        cluster = make_cluster(seed=9)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client, serializable=True)
        run_tx(cluster, tx.read("items", "x"))
        tx.write("items", "x", {"v": 2})
        fut = tx.commit()
        assert len(tx.writeset) == 1  # one option, not two
        assert run_tx(cluster, fut).committed

    def test_unsupported_protocols_rejected(self):
        for protocol in ("qw3", "qw4", "megastore"):
            cluster = make_cluster(protocol, seed=10)
            client = cluster.add_client("us-west")
            with pytest.raises(ValueError):
                cluster.begin(client, serializable=True)


class TestValidationVsWriters:
    def test_pending_validation_blocks_writer_until_visibility(self):
        """Between propose and visibility a validation holds a short read
        lock; a write proposed in that window is rejected at the acceptors
        and the writer aborts (it can retry with a fresh read)."""
        cluster = make_cluster(seed=11)
        cluster.load_record("items", "x", {"v": 1})
        reader = cluster.add_client("us-west")
        writer = cluster.add_client("us-west")

        tx = cluster.begin(reader, serializable=True)
        run_tx(cluster, tx.read("items", "x"))
        w = cluster.begin(writer)
        run_tx(cluster, w.read("items", "x"))
        w.write("items", "x", {"v": 99})

        read_fut = tx.commit()  # proposes the validation first
        write_fut = w.commit()
        read_outcome = run_tx(cluster, read_fut)
        write_outcome = run_tx(cluster, write_fut)
        drain(cluster)
        assert read_outcome.committed
        assert not write_outcome.committed

    def test_commutative_delta_rejected_while_validation_pending(self):
        cluster = make_cluster(seed=12)
        cluster.load_record("items", "x", {"v": 10})
        reader = cluster.add_client("us-west")
        writer = cluster.add_client("us-west")

        tx = cluster.begin(reader, serializable=True)
        run_tx(cluster, tx.read("items", "x"))
        d = cluster.begin(writer)
        d.decrement("items", "x", "v", 1)

        read_fut = tx.commit()
        delta_fut = d.commit()
        assert run_tx(cluster, read_fut).committed
        delta_outcome = run_tx(cluster, delta_fut)
        drain(cluster)
        # The delta either lost to the read lock or was serialized after
        # the validation by the master — never a torn schedule.
        snapshot = cluster.read_committed("items", "x")
        if delta_outcome.committed:
            assert snapshot.value["v"] == 9
        else:
            assert snapshot.value["v"] == 10

    def test_validation_after_commit_does_not_bump_version(self):
        cluster = make_cluster(seed=13)
        cluster.load_record("items", "x", {"v": 1})
        client = cluster.add_client("us-west")
        before = cluster.read_committed("items", "x").version

        tx = cluster.begin(client, serializable=True)
        run_tx(cluster, tx.read("items", "x"))
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster)

        after = cluster.read_committed("items", "x").version
        assert after == before  # validations execute as no-ops

    def test_sequential_serializable_transactions(self):
        """Validations leave the record writable afterwards."""
        cluster = make_cluster(seed=14)
        cluster.load_record("items", "x", {"v": 0})
        client = cluster.add_client("us-west")
        for expected in range(3):
            tx = cluster.begin(client, serializable=True)
            reply = run_tx(cluster, tx.read("items", "x"))
            assert reply.value["v"] == expected
            tx.write("items", "x", {"v": expected + 1})
            assert run_tx(cluster, tx.commit()).committed
            drain(cluster)
