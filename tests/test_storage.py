"""Unit tests for the storage substrate: schemas, records, store, WAL."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    Constraint,
    Record,
    RecordStore,
    Snapshot,
    StorageError,
    TableSchema,
    WriteAheadLog,
)
from repro.storage.partition import stable_hash


class TestConstraint:
    def test_allows_within_bounds(self):
        c = Constraint(minimum=0, maximum=10)
        assert c.allows(0) and c.allows(10) and c.allows(5)

    def test_rejects_out_of_bounds(self):
        c = Constraint(minimum=0, maximum=10)
        assert not c.allows(-1)
        assert not c.allows(11)

    def test_one_sided_bounds(self):
        assert Constraint(minimum=0).allows(1e12)
        assert not Constraint(maximum=5).allows(6)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Constraint(minimum=10, maximum=0)

    def test_bounded_flags(self):
        assert Constraint(minimum=0).bounded_below
        assert not Constraint(minimum=0).bounded_above


class TestTableSchema:
    def test_constraint_lookup(self):
        schema = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
        assert schema.constraint("stock").minimum == 0
        assert schema.constraint("price") is None

    def test_check_value(self):
        schema = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
        assert schema.check_value({"stock": 3, "name": "x"})
        assert not schema.check_value({"stock": -1})
        assert schema.check_value({"name": "no stock attribute"})

    def test_check_value_non_numeric_constrained_attr(self):
        schema = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
        assert not schema.check_value({"stock": "many"})


class TestRecord:
    def test_fresh_record_absent_at_version_zero(self):
        record = Record("items", "k1")
        assert not record.exists
        assert record.current_version == 0
        snap = record.snapshot()
        assert (snap.exists, snap.value, snap.version) == (False, None, 0)

    def test_commit_value_bumps_version(self):
        record = Record("items", "k1")
        assert record.commit_value({"stock": 5}) == 1
        assert record.commit_value({"stock": 4}) == 2
        snap = record.snapshot()
        assert snap.version == 2
        assert snap.value == {"stock": 4}

    def test_snapshot_value_is_a_copy(self):
        record = Record("items", "k1")
        record.commit_value({"stock": 5})
        snap = record.snapshot()
        snap.value["stock"] = 999
        assert record.snapshot().value == {"stock": 5}

    def test_commit_value_copies_input(self):
        record = Record("items", "k1")
        value = {"stock": 5}
        record.commit_value(value)
        value["stock"] = 0
        assert record.snapshot().value == {"stock": 5}

    def test_delete_leaves_tombstone_version(self):
        record = Record("items", "k1")
        record.commit_value({"stock": 5})
        assert record.commit_delete() == 2
        assert not record.exists
        assert record.current_version == 2
        assert record.snapshot() == Snapshot(exists=False, value=None, version=2)

    def test_reinsert_after_delete(self):
        record = Record("items", "k1")
        record.commit_value({"stock": 5})
        record.commit_delete()
        assert record.commit_value({"stock": 9}) == 3
        assert record.exists

    def test_commit_delta(self):
        record = Record("items", "k1")
        record.commit_value({"stock": 5})
        record.commit_delta("stock", -2)
        assert record.snapshot().value["stock"] == 3

    def test_commit_delta_on_missing_attr_starts_from_zero(self):
        record = Record("items", "k1")
        record.commit_value({"name": "a"})
        record.commit_delta("count", 4)
        assert record.snapshot().value["count"] == 4

    def test_commit_delta_on_absent_record_raises(self):
        with pytest.raises(ValueError):
            Record("items", "k1").commit_delta("stock", 1)

    def test_commit_delta_non_numeric_raises(self):
        record = Record("items", "k1")
        record.commit_value({"stock": "lots"})
        with pytest.raises(ValueError):
            record.commit_delta("stock", 1)

    def test_absent_and_deleted_share_one_representation(self):
        record = Record("items", "k1")
        assert record.snapshot() == Snapshot(False, None, 0)
        assert record.catch_up(5, None, ("opt-a",))
        assert not record.exists
        assert record.snapshot() == Snapshot(False, None, 5)
        assert record.applied_ids == {"opt-a"}
        with pytest.raises(ValueError):
            record.commit_delta("stock", 1)
        assert record.commit_value({"stock": 3}) == 6
        assert record.snapshot() == Snapshot(True, {"stock": 3}, 6)
        record.commit_delete()
        with pytest.raises(ValueError):
            record.commit_delta("stock", 1)
        assert not record.catch_up(4, {"stock": 9}, ("opt-b",))
        assert record.snapshot() == Snapshot(False, None, 7)
        assert record.applied_ids == {"opt-a"}

    def test_retained_memory_does_not_grow_with_commits(self):
        record = Record("items", "k1")
        record.commit_value({"stock": 0})
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(5000):
                record.commit_delta("stock", 1)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert record.snapshot() == Snapshot(True, {"stock": 5000}, 5001)
        assert retained < 64 * 1024

    def test_snapshot_attribute_helper(self):
        record = Record("items", "k1")
        record.commit_value({"stock": 7})
        assert record.snapshot().attribute("stock") == 7
        assert record.snapshot().attribute("ghost", -1) == -1
        assert Record("items", "k2").snapshot().attribute("x", "d") == "d"


class TestRecordStore:
    def make_store(self):
        store = RecordStore()
        store.register_table(TableSchema("items", constraints={"stock": Constraint(minimum=0)}))
        return store

    def test_register_duplicate_table_rejected(self):
        store = self.make_store()
        with pytest.raises(StorageError):
            store.register_table(TableSchema("items"))

    def test_unknown_table_raises(self):
        store = self.make_store()
        with pytest.raises(StorageError):
            store.read("ghost", "k")
        with pytest.raises(StorageError):
            store.record("ghost", "k")

    def test_read_absent_key_clean(self):
        store = self.make_store()
        snap = store.read("items", "nope")
        assert (snap.exists, snap.version) == (False, 0)

    def test_record_created_lazily_peek_does_not_create(self):
        store = self.make_store()
        assert store.peek("items", "k") is None
        store.record("items", "k")
        assert store.peek("items", "k") is not None

    def test_write_read_roundtrip(self):
        store = self.make_store()
        store.record("items", "k").commit_value({"stock": 3})
        snap = store.read("items", "k")
        assert snap.exists and snap.value == {"stock": 3} and snap.version == 1

    def test_scan_sorted_live_only(self):
        store = self.make_store()
        store.record("items", "b").commit_value({"stock": 1})
        store.record("items", "a").commit_value({"stock": 2})
        store.record("items", "c").commit_value({"stock": 3})
        store.record("items", "c").commit_delete()
        keys = [key for key, _ in store.scan("items")]
        assert keys == ["a", "b"]
        assert store.count("items") == 2

    def test_schema_lookup(self):
        store = self.make_store()
        assert store.schema("items").constraint("stock").minimum == 0
        assert store.tables == ("items",)


class TestPartitioners:
    def test_stable_hash_deterministic(self):
        assert stable_hash("item:1") == stable_hash("item:1")
        assert stable_hash("item:1") != stable_hash("item:2")

    def test_hash_partitioner_covers_range(self):
        # the placement rule ReplicaMap.partition_of applies
        partitions = {stable_hash(f"items:k{i}") % 4 for i in range(200)}
        assert partitions == {0, 1, 2, 3}


class TestWriteAheadLog:
    def test_append_assigns_monotonic_lsns(self):
        wal = WriteAheadLog()
        first = wal.append("option-learned", txid="t1")
        second = wal.append("visibility", txid="t1", status=True)
        assert (first.lsn, second.lsn) == (1, 2)
        assert wal.last_lsn == 2
        assert len(wal) == 2

    def test_entries_since(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append("e", index=i)
        tail = wal.entries_since(3)
        assert [entry.payload["index"] for entry in tail] == [3, 4]

    def test_entries_of_kind(self):
        wal = WriteAheadLog()
        wal.append("a")
        wal.append("b")
        wal.append("a")
        assert len(wal.entries_of_kind("a")) == 2

    def test_replay_filtered(self):
        wal = WriteAheadLog()
        wal.append("option", txid="t1")
        wal.append("noise")
        wal.append("option", txid="t2")
        seen = []
        count = wal.replay(lambda entry: seen.append(entry.payload["txid"]), kind="option")
        assert count == 2
        assert seen == ["t1", "t2"]

    def test_truncate_through(self):
        wal = WriteAheadLog()
        for i in range(10):
            wal.append("e", index=i)
        removed = wal.truncate_through(7)
        assert removed == 7
        assert [entry.lsn for entry in wal] == [8, 9, 10]
        # LSNs keep increasing after truncation.
        assert wal.append("later").lsn == 11

    def test_payload_copied_on_append(self):
        wal = WriteAheadLog()
        payload = {"keys": [1, 2]}
        entry = wal.append("e", **payload)
        assert entry.payload == {"keys": [1, 2]}


class TestWalCheckpoint:
    """The checkpoint cut the elastic-membership bootstrap leans on."""

    def test_checkpoint_returns_cut_lsn(self):
        wal = WriteAheadLog()
        for i in range(4):
            wal.append("e", index=i)
        assert wal.checkpoint() == 4
        assert wal.last_checkpoint == 4
        assert wal.checkpoints == [4]

    def test_checkpoint_on_empty_log_is_zero(self):
        wal = WriteAheadLog()
        assert wal.checkpoint() == 0
        assert wal.last_checkpoint == 0

    def test_cut_is_stable_under_later_appends(self):
        wal = WriteAheadLog()
        wal.append("before")
        cut = wal.checkpoint()
        wal.append("after-1")
        wal.append("after-2")
        assert cut == 1
        assert wal.last_checkpoint == 1
        # entries_since(cut) is exactly the post-snapshot suffix.
        assert [e.kind for e in wal.entries_since(cut)] == ["after-1", "after-2"]

    def test_multiple_checkpoints_ordered(self):
        wal = WriteAheadLog()
        wal.append("a")
        first = wal.checkpoint()
        wal.append("b")
        wal.append("c")
        second = wal.checkpoint()
        assert wal.checkpoints == [first, second] == [1, 3]
        assert wal.last_checkpoint == second

    def test_truncate_through_cut_keeps_suffix_and_lsns(self):
        wal = WriteAheadLog()
        for i in range(6):
            wal.append("e", index=i)
        cut = wal.checkpoint()
        wal.append("post-cut")
        removed = wal.truncate_through(cut)
        assert removed == 6
        assert [entry.kind for entry in wal] == ["post-cut"]
        # The cut marker survives truncation and new LSNs stay monotonic.
        assert wal.last_checkpoint == cut == 6
        assert wal.append("later").lsn == 8

    def test_replay_from_checkpoint(self):
        wal = WriteAheadLog()
        wal.append("old", index=0)
        cut = wal.checkpoint()
        wal.append("new", index=1)
        wal.append("new", index=2)
        seen = []
        count = wal.replay(lambda entry: seen.append(entry.payload["index"]), from_lsn=cut)
        assert count == 2
        assert seen == [1, 2]


class TestWalRetention:
    """An entry is kept while an id it waits on is unresolved."""

    def test_entry_dropped_once_its_id_resolves(self):
        wal = WriteAheadLog()
        learned = wal.append("option-learned", waits_on=("o1",), txid="t1")
        wal.append("option-learned", waits_on=("o2",), txid="t2")
        assert wal.resolve("o1") == 1
        assert [entry.lsn for entry in wal] == [2]
        assert learned.waits_on == ("o1",)
        assert (len(wal), wal.retained) == (2, 1)

    def test_entry_waiting_on_several_ids_needs_them_all(self):
        wal = WriteAheadLog()
        wal.append("classic-adopt", waits_on=("o1", "o2", "o1"))
        assert wal.resolve("o1") == 0
        assert wal.retained == 1
        assert wal.resolve("o2") == 1
        assert wal.retained == 0

    def test_empty_wait_list_is_written_but_not_kept(self):
        wal = WriteAheadLog()
        entry = wal.append("visibility", waits_on=(), option_id="o1")
        assert entry.lsn == 1 and wal.last_lsn == 1
        assert (len(wal), wal.retained) == (1, 0)

    def test_entry_naming_no_ids_waits_for_truncation(self):
        wal = WriteAheadLog()
        wal.append("snapshot-bootstrap", records=3)
        wal.append("option-learned", waits_on=("o1",))
        assert wal.resolve("o1") == 1
        assert wal.resolve("o1") == 0  # resolving twice is a no-op
        assert [entry.kind for entry in wal] == ["snapshot-bootstrap"]
        assert wal.truncate_through(wal.last_lsn) == 1
        assert wal.retained == 0

    def test_resolve_reaches_only_entries_written_before_it(self):
        wal = WriteAheadLog()
        wal.append("a", waits_on=("t1",))
        wal.resolve("t1")
        late = wal.append("b", waits_on=("t1",))
        assert list(wal) == [late]
        wal.resolve("t1")
        assert wal.retained == 0

    def test_truncated_entry_leaves_no_index_behind(self):
        wal = WriteAheadLog()
        wal.append("a", waits_on=("t1", "t2"))
        wal.append("b", waits_on=("t2",))
        assert wal.truncate_through(1) == 1
        assert wal.resolve("t1") == 0
        assert wal.resolve("t2") == 1
        assert wal.retained == 0

    def test_payload_object_kept_as_is(self):
        wal = WriteAheadLog()
        payload = ("any", "object")
        assert wal.append("option-learned", payload, waits_on=("o1",)).payload is payload

    def test_checkpoint_after_full_truncate_does_not_go_backwards(self):
        wal = WriteAheadLog()
        for i in range(10):
            wal.append("e", index=i)
        first = wal.checkpoint()
        assert wal.truncate_through(10) == 10
        assert wal.retained == 0
        assert wal.last_lsn == 10
        assert wal.checkpoint() == first == 10
        assert wal.append("later").lsn == 11

    def test_checkpoint_after_every_entry_resolved(self):
        wal = WriteAheadLog()
        wal.append("option-learned", waits_on=("o1",))
        wal.resolve("o1")
        assert wal.retained == 0
        assert wal.checkpoint() == 1

    def test_retained_memory_does_not_grow_with_resolved_options(self):
        wal = WriteAheadLog()
        ids = [f"t{i}:items/k" for i in range(5000)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for option_id in ids:
                wal.append("option-learned", option_id, waits_on=(option_id,))
                wal.resolve(option_id)
                wal.append("visibility", waits_on=(), option_id=option_id)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert (len(wal), wal.retained) == (10_000, 0)
        assert retained < 64 * 1024


# One WAL operation: ("append", kind, waits_on or None) | ("resolve", id)
# | ("truncate", lsn) | ("checkpoint",).
_WAL_IDS = st.sampled_from(["a", "b", "c", "d"])
_WAL_OPS = st.one_of(
    st.tuples(
        st.just("append"),
        st.sampled_from(["x", "y"]),
        st.one_of(st.none(), st.lists(_WAL_IDS, max_size=3).map(tuple)),
    ),
    st.tuples(st.just("resolve"), _WAL_IDS),
    st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("checkpoint")),
)


class TestWalAgainstListModel:
    """Random operation sequences against a plain-list reference: a list
    of [lsn, kind, ids still open (None: no ids)], scanned on every
    operation."""

    @given(st.lists(_WAL_OPS, max_size=40))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_reference_model(self, ops):
        wal = WriteAheadLog()
        model = []
        appends = 0
        issued = set()
        cuts = []
        for op in ops:
            if op[0] == "append":
                _, kind, waits_on = op
                entry = wal.append(kind, waits_on=waits_on, n=appends)
                appends += 1
                assert entry.lsn == appends and entry.lsn not in issued
                issued.add(entry.lsn)
                if waits_on is None:
                    model.append([entry.lsn, kind, None])
                elif waits_on:
                    model.append([entry.lsn, kind, set(waits_on)])
            elif op[0] == "resolve":
                for kept in model:
                    if kept[2] is not None:
                        kept[2].discard(op[1])
                expected = sum(1 for kept in model if kept[2] == set())
                model = [kept for kept in model if kept[2] != set()]
                assert wal.resolve(op[1]) == expected
            elif op[0] == "truncate":
                expected = sum(1 for kept in model if kept[0] <= op[1])
                model = [kept for kept in model if kept[0] > op[1]]
                assert wal.truncate_through(op[1]) == expected
            else:
                cut = wal.checkpoint()
                assert cut == appends
                assert not cuts or cut >= cuts[-1]
                cuts.append(cut)
            assert [(e.lsn, e.kind) for e in wal] == [(k[0], k[1]) for k in model]
            assert [e.payload["n"] + 1 for e in wal] == [k[0] for k in model]
            assert len(wal) == appends == wal.last_lsn
            assert wal.retained == len(model)
        assert wal.checkpoints == cuts


class TestStoreSnapshot:
    """Deterministic full-store iteration (the bootstrap stream source)."""

    def make_store(self):
        store = RecordStore()
        store.register_table(
            TableSchema("items", constraints={"stock": Constraint(minimum=0)})
        )
        store.register_table(TableSchema("orders"))
        return store

    def test_sorted_by_table_then_key(self):
        store = self.make_store()
        store.record("orders", "o2").commit_value({"qty": 2})
        store.record("items", "z").commit_value({"stock": 1})
        store.record("items", "a").commit_value({"stock": 2})
        store.record("orders", "o1").commit_value({"qty": 1})
        dump = [(table, key) for table, key, _, _ in store.snapshot()]
        assert dump == [("items", "a"), ("items", "z"), ("orders", "o1"), ("orders", "o2")]

    def test_iteration_order_independent_of_insertion_order(self):
        a, b = self.make_store(), self.make_store()
        for key in ("k3", "k1", "k2"):
            a.record("items", key).commit_value({"stock": 1})
        for key in ("k2", "k3", "k1"):
            b.record("items", key).commit_value({"stock": 1})
        dump_a = [(t, k, s.version) for t, k, s, _ in a.snapshot()]
        dump_b = [(t, k, s.version) for t, k, s, _ in b.snapshot()]
        assert dump_a == dump_b

    def test_includes_tombstones_unlike_scan(self):
        store = self.make_store()
        store.record("items", "kept").commit_value({"stock": 1})
        deleted = store.record("items", "gone")
        deleted.commit_value({"stock": 2})
        deleted.commit_delete()
        assert [key for key, _ in store.scan("items")] == ["kept"]
        dump = {key: snap for _, key, snap, _ in store.snapshot()}
        assert set(dump) == {"kept", "gone"}
        assert dump["gone"].exists is False
        assert dump["gone"].version == 2  # the joiner learns the delete

    def test_skips_never_committed_records(self):
        store = self.make_store()
        store.record("items", "touched")  # created lazily, never committed
        store.record("items", "real").commit_value({"stock": 1})
        assert [key for _, key, _, _ in store.snapshot()] == ["real"]

    def test_applied_ids_sorted_and_carried(self):
        store = self.make_store()
        record = store.record("items", "k")
        record.commit_value({"stock": 5}, option_id="opt-b")
        record.commit_delta("stock", -1.0, option_id="opt-a")
        (_, _, snap, applied_ids), = list(store.snapshot())
        assert applied_ids == ("opt-a", "opt-b")
        assert snap.value == {"stock": 4}
