"""The baselines travel one message per (transaction, storage node).

2PC, quorum writes and Replicated Commit's in-DC 2PC send each storage
node its slice of the write-set in one message per type, and each node
answers for the slice's records in one reply.  Only the transport unit
changes: the participant locks, validates, logs, applies and releases
every record of a slice on its own, and the client tallies every reply
per (record, replica).
"""

import pytest

from repro.core.coordinator import WriteSet
from repro.core.messages import RcApply, RcPrepare, RcPrepareReply
from repro.core.options import CommutativeUpdate, PhysicalUpdate, RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.protocols.quorumwrites import QWAck, QWWrite
from repro.protocols.twopc import (
    DecisionAck,
    DecisionMessage,
    PrepareReply,
    PrepareRequest,
)
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(protocol, partitions_per_table=1, seed=1):
    cluster = build_cluster(
        ClusterSpec(
            protocol=protocol, partitions_per_table=partitions_per_table, seed=seed
        )
    )
    cluster.register_table(ITEMS)
    return cluster


def keys_by_partition(cluster, count=40):
    """partition -> item keys stored there."""
    out = {}
    for i in range(count):
        key = f"k{i}"
        out.setdefault(cluster.placement.partition_of("items", key), []).append(key)
    return out


# ----------------------------------------------------------------------
# Message counts of one transaction
# ----------------------------------------------------------------------
#: messages per type of one committed transaction whose three records
#: sit on two partitions, with R replicas (one per data center):
#: 2 nodes per data center hold a slice of the write-set.
GROUPED = {
    "2pc": lambda r: {
        "PrepareRequest": 2 * r,
        "PrepareReply": 2 * r,
        "DecisionMessage": 2 * r,
        "DecisionAck": 2 * r,
    },
    "qw3": lambda r: {"QWWrite": 2 * r, "QWAck": 2 * r},
    "repcommit": lambda r: {
        "RcCommitRequest": r,
        "RcPrepare": 2 * r,
        "RcPrepareReply": 2 * r,
        "RcVote": r,
        "RcDecision": r,
        "RcApply": 2 * r,
    },
}


@pytest.mark.parametrize("protocol", sorted(GROUPED))
def test_one_message_per_transaction_node_and_type(protocol):
    cluster = make_cluster(protocol, partitions_per_table=2)
    by_partition = keys_by_partition(cluster)
    keys = by_partition[0][:2] + by_partition[1][:1]
    writeset = WriteSet()
    for key in keys:
        cluster.load_record("items", key, {"stock": 10})
        writeset.put("items", key, vread=1, value={"stock": 9})
    client = cluster.add_client("us-west")
    outcome = cluster.sim.run_until(
        client.commit(writeset), limit=cluster.sim.now + 60_000
    )
    assert outcome.committed
    cluster.sim.run(until=cluster.sim.now + 5_000)
    replicas = len(cluster.placement.datacenters)
    assert cluster.network.stats.per_type == GROUPED[protocol](replicas)
    for key in keys:
        for snap in cluster.committed_snapshots("items", key).values():
            assert snap.value == {"stock": 9}


# ----------------------------------------------------------------------
# The participant: a slice is its records prepared one by one
# ----------------------------------------------------------------------
RECORDS = [RecordId("items", f"k{i}") for i in range(3)]


def participant(protocol):
    """store-us-west-p0 (holding every record) with its outbound messages
    captured, not sent."""
    cluster = make_cluster(protocol)
    for record in RECORDS:
        cluster.load_record(record.table, record.key, {"stock": 10})
    node = cluster.storage_nodes["store-us-west-p0"]
    node.sent = []
    node.send = lambda dst, message: node.sent.append((dst, message))
    return node


def slice_of(node):
    """A write on k0, a delta on k1 and a write on k2, all valid."""
    version = {r: node.store.read(r.table, r.key).version for r in RECORDS}
    k0, k1, k2 = RECORDS
    return (
        (k0, PhysicalUpdate(vread=version[k0], new_value={"stock": 7})),
        (k1, CommutativeUpdate.of(stock=-1.0)),
        (k2, PhysicalUpdate(vread=version[k2], new_value={"stock": 3})),
    )


def two_pc(txid, updates, commit):
    return (
        PrepareRequest(txid=txid, updates=updates),
        DecisionMessage(txid=txid, updates=updates, commit=commit),
    )


def rep_commit(txid, updates, commit):
    return (
        RcPrepare(txid=txid, updates=updates, reply_to="coordinator"),
        RcApply(txid=txid, updates=updates, commit=commit),
    )


PROTOCOLS = [("2pc", two_pc), ("repcommit", rep_commit)]


def verdict(message):
    """(records, ok) of a prepare reply of either protocol."""
    if isinstance(message, PrepareReply):
        return message.records, message.ok
    assert isinstance(message, RcPrepareReply)
    return message.records, message.vote


@pytest.mark.parametrize("protocol,messages", PROTOCOLS)
def test_one_locked_record_fails_the_slice_and_the_abort_releases_the_rest(
    protocol, messages
):
    node = participant(protocol)
    updates = slice_of(node)
    k0, k1, k2 = RECORDS
    assert node.prepare("t-holder", k1, CommutativeUpdate.of(stock=-2.0)) == "prepared"
    prepare, abort = messages("t1", updates, commit=False)

    node.on_message(prepare, "coordinator")
    [(dst, reply)] = node.sent
    assert dst == "coordinator"
    assert verdict(reply) == ((k0, k1, k2), False)
    if protocol == "repcommit":
        assert reply.reason == "lock-conflict"
    # every record was tried in message order: the valid ones are locked
    assert node._locks == {k0: "t1", k1: "t-holder", k2: "t1"}
    assert [entry.payload["ok"] for entry in node.wal] == [True, False, True]

    node.on_message(abort, "coordinator")
    assert node._locks == {k1: "t-holder"}
    values = [node.store.read(r.table, r.key).value["stock"] for r in RECORDS]
    assert values == [10, 10, 10]
    if protocol == "2pc":
        ack = DecisionAck(txid="t1", records=(k0, k1, k2))
        assert node.sent[-1] == ("coordinator", ack)


@pytest.mark.parametrize("protocol,messages", PROTOCOLS)
def test_a_decision_overtaking_a_slice_strands_no_lock(protocol, messages):
    node = participant(protocol)
    updates = slice_of(node)
    prepare, abort = messages("t-lost", updates, commit=False)
    node.on_message(abort, "coordinator")
    node.on_message(prepare, "coordinator")
    assert node._locks == {}
    replies = [
        verdict(m) for _dst, m in node.sent if isinstance(m, (PrepareReply, RcPrepareReply))
    ]
    assert replies == [(tuple(RECORDS), False)]
    # a later transaction on the same records prepares cleanly
    node.sent.clear()
    node.on_message(messages("t2", slice_of(node), commit=True)[0], "coordinator")
    assert verdict(node.sent[-1][1]) == (tuple(RECORDS), True)


@pytest.mark.parametrize("protocol,messages", PROTOCOLS)
def test_a_committed_slice_applies_each_record_once(protocol, messages):
    node = participant(protocol)
    updates = slice_of(node)
    prepare, commit = messages("t1", updates, commit=True)
    node.on_message(prepare, "coordinator")
    node.on_message(commit, "coordinator")
    node.on_message(commit, "coordinator")  # a duplicate delivery
    values = [node.store.read(r.table, r.key).value["stock"] for r in RECORDS]
    assert values == [7, 9, 3]
    assert node._locks == {}


def test_a_qw_write_applies_each_record_of_its_slice_once():
    node = participant("qw3")
    write = QWWrite(txid="t1", updates=slice_of(node), timestamp=1.0, writer="app")
    node.on_message(write, "app")
    node.on_message(write, "app")  # a duplicate delivery
    values = [node.store.read(r.table, r.key).value["stock"] for r in RECORDS]
    assert values == [7, 9, 3]
    ack = QWAck(txid="t1", records=tuple(RECORDS))
    assert [m for _dst, m in node.sent] == [ack, ack]
    assert node.counters.get("qw.writes") == 6


# ----------------------------------------------------------------------
# The client: every grouped reply reaches the per-record tally
# ----------------------------------------------------------------------
def test_grouped_qw_acks_reach_the_write_quorum_per_record():
    cluster = make_cluster("qw3", partitions_per_table=2)
    by_partition = keys_by_partition(cluster)
    a, b = (RecordId("items", key) for key in by_partition[0][:2])
    c = RecordId("items", by_partition[1][0])
    for record in (a, b, c):
        cluster.load_record(record.table, record.key, {"stock": 10})
    client = cluster.add_client("us-west")
    client.send = client.broadcast = lambda *args: None  # replies come by hand
    writeset = WriteSet()
    for record in (a, b, c):
        writeset.put(record.table, record.key, vread=1, value={"stock": 9})
    future = client.commit(writeset, txid="t1")
    first, second = cluster.placement.replicas(a), cluster.placement.replicas(c)

    for replica in first[:3]:  # a write quorum for a only
        client.handle_qw_ack(QWAck(txid="t1", records=(a,)), replica)
    for replica in second[:3]:  # ... and for c
        client.handle_qw_ack(QWAck(txid="t1", records=(c,)), replica)
    assert not future.done  # b has no ack yet
    for replica in first[:2]:
        client.handle_qw_ack(QWAck(txid="t1", records=(a, b)), replica)
    assert not future.done  # b: 2 of 3
    client.handle_qw_ack(QWAck(txid="t1", records=(a, b)), first[4])
    assert future.done and future.result().committed
