"""The shared participant kernel on its own (protocols/participant.py):
every prepare verdict from a minimal input, ``apply`` of each update
type, and the lock/decided bookkeeping of ``LockingStorageRole``."""

import pytest

from repro.core.config import MDCCConfig
from repro.core.messages import RcApply, RcPrepare
from repro.core.options import (
    CommutativeUpdate,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
)
from repro.core.topology import ReplicaMap
from repro.db.cluster import ClusterSpec, build_cluster
from repro.protocols.participant import (
    PREPARED,
    REASONS,
    LockingStorageRole,
    apply,
    validate,
    write_base,
)
from repro.protocols.twopc import DecisionMessage, PrepareRequest
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.storage.schema import Constraint, TableSchema
from repro.storage.store import RecordStore
from repro.transport.simnet import SimTransport

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0, maximum=20)})
HERE = RecordId("items", "i")  # loaded at version 1 with stock 10
MISSING = RecordId("items", "nope")


def make_store():
    store = RecordStore()
    store.register_table(ITEMS)
    store.record("items", "i").commit_value({"stock": 10, "name": "x"})
    return store


def make_participant():
    sim = Simulator()
    transport = SimTransport(sim, Network(sim, rng_registry=RngRegistry(seed=1)))
    node = LockingStorageRole(
        transport,
        "store-us-west-p0",
        "us-west",
        ReplicaMap(["us-west"]),
        MDCCConfig(),
    )
    node.store.register_table(ITEMS)
    node.store.record("items", "i").commit_value({"stock": 10})
    return node


VERDICTS = [
    # (case, record, update, expected verdict)
    ("write at the version read", HERE, PhysicalUpdate(1, {"stock": 9}), PREPARED),
    ("insert of an absent record", MISSING, PhysicalUpdate(0, {"stock": 1}), PREPARED),
    ("delete at the version read", HERE, PhysicalUpdate(1, None, is_delete=True), PREPARED),
    ("stale vread", HERE, PhysicalUpdate(7, {"stock": 9}), "stale-read"),
    ("stale delete", HERE, PhysicalUpdate(7, None, is_delete=True), "stale-read"),
    ("schema violation", HERE, PhysicalUpdate(1, {"stock": -1}), "constraint"),
    ("non-numeric constrained value", HERE, PhysicalUpdate(1, {"stock": "many"}), "constraint"),
    ("read validation hit", HERE, ReadValidation(1), PREPARED),
    ("validated absence", MISSING, ReadValidation(0), PREPARED),
    ("read validation miss", HERE, ReadValidation(2), "stale-read"),
    ("delta within bounds", HERE, CommutativeUpdate.of(stock=-10), PREPARED),
    ("delta below minimum", HERE, CommutativeUpdate.of(stock=-11), "escrow-limit"),
    ("delta above maximum", HERE, CommutativeUpdate.of(stock=11), "escrow-limit"),
    ("delta on an unconstrained attribute", HERE, CommutativeUpdate.of(sold=-99), PREPARED),
    ("delta on a missing record", MISSING, CommutativeUpdate.of(stock=1), "stale-read"),
]


@pytest.mark.parametrize(
    "record,update,expected",
    [case[1:] for case in VERDICTS],
    ids=[case[0] for case in VERDICTS],
)
def test_validate_verdicts(record, update, expected):
    assert validate(make_store(), record, update) == expected


def test_validate_rejects_delta_on_non_numeric_attribute():
    store = make_store()
    store.record("items", "j").commit_value({"stock": "many"})
    update = CommutativeUpdate.of(stock=-1)
    assert validate(store, RecordId("items", "j"), update) == "constraint"


def test_validate_takes_no_lock_and_changes_nothing():
    store = make_store()
    validate(store, HERE, PhysicalUpdate(1, {"stock": 9}))
    assert store.read("items", "i").version == 1


APPLIES = [
    # (update, what apply reports, resulting (exists, value, version))
    (PhysicalUpdate(1, {"stock": 3}), "applied", (True, {"stock": 3}, 2)),
    # unconditional: the caller, not apply, decides whether vread matters
    (PhysicalUpdate(9, {"stock": 3}), "applied", (True, {"stock": 3}, 2)),
    (PhysicalUpdate(1, None, is_delete=True), "applied", (False, None, 2)),
    (CommutativeUpdate.of(stock=-4), "delta", (True, {"stock": 6, "name": "x"}, 2)),
    (ReadValidation(1), "noop", (True, {"stock": 10, "name": "x"}, 1)),
]


@pytest.mark.parametrize("update,report,state", APPLIES)
def test_apply_each_update_type(update, report, state):
    store = make_store()
    assert apply(store.record("items", "i"), update) == report
    snap = store.read("items", "i")
    assert (snap.exists, snap.value, snap.version) == state


def test_write_base_is_the_version_a_full_write_replaces():
    assert write_base(PhysicalUpdate(4, {"stock": 1})) == 4
    assert write_base(PhysicalUpdate(4, None, is_delete=True)) == 4
    assert write_base(CommutativeUpdate.of(stock=1)) is None
    assert write_base(ReadValidation(4)) is None


class TestLocking:
    UPDATE = PhysicalUpdate(1, {"stock": 9})

    def test_prepare_locks_and_is_idempotent_for_the_holder(self):
        node = make_participant()
        assert node.prepare("t1", HERE, self.UPDATE) == PREPARED
        assert node.prepare("t1", HERE, self.UPDATE) == PREPARED
        assert node._locks == {HERE: "t1"}

    def test_foreign_lock_conflicts_even_for_a_valid_update(self):
        node = make_participant()
        node.prepare("t1", HERE, self.UPDATE)
        assert node.prepare("t2", HERE, ReadValidation(1)) == "lock-conflict"
        assert node._locks == {HERE: "t1"}

    def test_failed_validation_takes_no_lock(self):
        node = make_participant()
        assert node.prepare("t1", HERE, PhysicalUpdate(5, {"stock": 9})) == "stale-read"
        assert not node._locks

    def test_release_drops_only_the_deciders_lock_and_reports_duplicates(self):
        node = make_participant()
        node.prepare("t1", HERE, self.UPDATE)
        assert node.release("t2", HERE) is True  # t2 never held it
        assert node._locks == {HERE: "t1"}
        assert node.release("t1", HERE) is True
        assert not node._locks
        assert node.release("t1", HERE) is False  # duplicate decision

    def test_prepare_after_decision_is_refused(self):
        node = make_participant()
        node.release("t1", HERE)
        assert node.prepare("t1", HERE, self.UPDATE) == "decided"
        assert not node._locks

    def test_every_reason_is_reachable(self):
        """REASONS is the vocabulary the 2pc/repcommit descriptors
        publish; each entry is produced by a case in this file."""
        produced = {case[3] for case in VERDICTS} | {"lock-conflict", "decided"}
        assert produced - {PREPARED} == set(REASONS)


# ----------------------------------------------------------------------
# The same participant behind both protocols' own messages
# ----------------------------------------------------------------------
def _two_pc_messages(txid, record, update, reply_to):
    updates = ((record, update),)
    return (
        DecisionMessage(txid=txid, updates=updates, commit=False),
        PrepareRequest(txid=txid, updates=updates),
    )


def _rep_commit_messages(txid, record, update, reply_to):
    updates = ((record, update),)
    return (
        RcApply(txid=txid, updates=updates, commit=False),
        RcPrepare(txid=txid, updates=updates, reply_to=reply_to),
    )


@pytest.mark.parametrize(
    "protocol,messages",
    [("2pc", _two_pc_messages), ("repcommit", _rep_commit_messages)],
)
def test_prepare_after_decision_does_not_strand_lock(protocol, messages):
    """A prepare that arrives after its own (aborted) decision must not
    acquire the lock: nothing would ever release it, and every later
    transaction on the record would abort (regression for the abort storm
    this once caused in 2PC under link jitter; Replicated Commit's per-DC
    2PC has the same reorder hazard)."""
    cluster = build_cluster(ClusterSpec(protocol=protocol, partitions_per_table=1, seed=7))
    cluster.register_table(ITEMS)
    cluster.load_record("items", "i", {"stock": 10})
    node = cluster.storage_nodes[cluster.placement.replica_in(HERE, "us-west")]
    assert isinstance(node, LockingStorageRole)
    client = cluster.add_client("us-west")

    # Replies go back to the coordinator (the client for 2PC, a storage
    # node for Replicated Commit), which ignores the unknown txid.
    update = PhysicalUpdate(vread=1, new_value={"stock": 9})
    for message in messages("t-lost", HERE, update, node.node_id):
        node.on_message(message, client.node_id)

    assert HERE not in node._locks
    tx = cluster.begin(client)
    cluster.sim.run_until(tx.read("items", "i"), limit=cluster.sim.now + 300_000)
    tx.write("items", "i", {"stock": 5})
    outcome = cluster.sim.run_until(tx.commit(), limit=cluster.sim.now + 300_000)
    assert outcome.committed
