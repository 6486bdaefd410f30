"""The fast path travels one message per (transaction, replica set).

A transaction's options whose records share a replica set are proposed
in one ``ProposeFastBatch``, voted on in one ``FastReplyBatch`` and made
visible in one ``VisibilityBatch``; a lone option keeps the bare
``ProposeFast`` / ``FastReply`` / ``Visibility``.  Only the transport unit
changes: an acceptor decides, logs, fences and answers every option of a
batch exactly as it would the bare proposal carrying it alone.
"""

import pytest

from repro.core.messages import (
    FastReply,
    FastReplyBatch,
    ProposeClassic,
    ProposeFast,
    ProposeFastBatch,
)
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
)
from repro.db.cluster import ClusterSpec, build_cluster
from repro.paxos.ballot import Ballot, BallotRange
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(seed=1, partitions_per_table=1, **spec):
    cluster = build_cluster(
        ClusterSpec(partitions_per_table=partitions_per_table, seed=seed, **spec)
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
@pytest.mark.parametrize(
    "partitions, split",
    [
        (1, (3,)),  # one replica set: every type batched
        (2, (2, 1)),  # two sets: a batch and a lone option
        (3, (1, 1, 1)),  # three sets: no batch at all
    ],
)
def test_one_message_per_replica_set_and_type(partitions, split):
    cluster = make_cluster(partitions_per_table=partitions)
    by_partition = keys_by_partition(cluster)
    keys = [key for partition, n in enumerate(split) for key in by_partition[partition][:n]]
    for key in keys:
        cluster.load_record("items", key, {"stock": 10})
    tx = cluster.begin(cluster.add_client("us-west"))
    for key in keys:
        tx.decrement("items", key, "stock", 1)
    outcome = cluster.sim.run_until(tx.commit(), limit=cluster.sim.now + 60_000)
    assert outcome.committed and outcome.fast_path
    cluster.sim.run(until=cluster.sim.now + 5_000)
    replicas = len(cluster.placement.datacenters)
    batched = sum(1 for n in split if n > 1) * replicas
    bare = sum(1 for n in split if n == 1) * replicas
    expected = {
        name: count
        for name, count in (
            ("ProposeFastBatch", batched),
            ("FastReplyBatch", batched),
            ("VisibilityBatch", batched),
            ("ProposeFast", bare),
            ("FastReply", bare),
            ("Visibility", bare),
        )
        if count
    }
    assert cluster.network.stats.per_type == expected
    assert sum(expected.values()) == 3 * len(split) * replicas


# ----------------------------------------------------------------------
# The acceptor: a batch is its options proposed one by one
# ----------------------------------------------------------------------
RECORDS = [RecordId("items", f"k{i}") for i in range(3)]


def acceptor(cluster):
    """store-us-west-p0 with its outbound messages captured, not sent."""
    node = cluster.storage_nodes["store-us-west-p0"]
    node.sent = []
    node.send = lambda dst, message: node.sent.append((dst, message))
    return node


def fresh_acceptor():
    cluster = make_cluster()
    for record in RECORDS:
        cluster.load_record(record.table, record.key, {"stock": 10})
    return acceptor(cluster)


def transactions(versions):
    """Three transactions over k0..k2 whose options are accepted and
    rejected between them: a physical write conflicting with a pending
    one, a delta past the demarcation limit, read validations."""
    k0, k1, k2 = RECORDS

    def tx(txid, *updates):
        writeset = tuple(record for record, _update in updates)
        return [
            Option(txid=txid, record=record, update=update, writeset=writeset)
            for record, update in updates
        ]

    return [
        tx(
            "t1",
            (k0, PhysicalUpdate(vread=versions[k0], new_value={"stock": 9})),
            (k1, CommutativeUpdate.of(stock=-1.0)),
            (k2, ReadValidation(vread=versions[k2])),
        ),
        tx(
            "t2",
            (k0, PhysicalUpdate(vread=versions[k0], new_value={"stock": 8})),
            (k1, CommutativeUpdate.of(stock=-2.0)),
            (k2, ReadValidation(vread=versions[k2])),
        ),
        tx("t3", (k1, CommutativeUpdate.of(stock=-500.0)), (k2, ReadValidation(vread=0))),
    ]


def observed(node):
    """Everything an acceptor's decisions leave behind."""
    replies = []
    for dst, message in node.sent:
        assert dst == "app-1"
        replies.extend(message.replies if isinstance(message, FastReplyBatch) else [message])
    return {
        "statuses": {oid: option.status for oid, option in node._option_log.items()},
        "cstructs": {
            str(record): [(o.option_id, o.status) for o in node.record_state(record).cstruct]
            for record in RECORDS
        },
        "wal": [(entry.kind, entry.payload) for entry in node.wal],
        "replies": replies,
    }


def test_a_batch_decides_exactly_as_its_bare_proposals():
    batched, bare = fresh_acceptor(), fresh_acceptor()
    versions = {record: batched.record_state(record).version for record in RECORDS}
    for options in transactions(versions):
        batched.handle_propose_fast_batch(
            ProposeFastBatch(options=tuple(options), reply_to="app-1"), "app-1"
        )
        for option in options:
            bare.handle_propose_fast(ProposeFast(option=option, reply_to="app-1"), "app-1")
    assert [type(m).__name__ for _dst, m in batched.sent] == ["FastReplyBatch"] * 3
    assert [type(m).__name__ for _dst, m in bare.sent] == ["FastReply"] * 8
    result = observed(batched)
    assert result == observed(bare)
    assert set(result["statuses"].values()) == {OptionStatus.ACCEPTED, OptionStatus.REJECTED}
    assert len(result["wal"]) == 8


def test_mixed_eras_answer_fast_records_and_forward_classic_ones():
    node = fresh_acceptor()
    classic = RECORDS[0]
    node.record_state(classic).mastership.grant(
        BallotRange(0, None, Ballot(1, fast=False, proposer="m"))
    )
    options = transactions({record: 1 for record in RECORDS})[0]
    node.handle_propose_fast_batch(
        ProposeFastBatch(options=tuple(options), reply_to="app-1"), "app-1"
    )
    forwarded = [(dst, m) for dst, m in node.sent if isinstance(m, ProposeClassic)]
    answered = [m for _dst, m in node.sent if not isinstance(m, ProposeClassic)]
    assert forwarded == [
        (node.placement.master_node(classic), ProposeClassic(option=options[0], reply_to="app-1"))
    ]
    assert len(answered) == 1 and isinstance(answered[0], FastReplyBatch)
    assert [reply.option_id for reply in answered[0].replies] == [
        option.option_id for option in options[1:]
    ]
    assert node.counters.get("acceptor.forwarded_to_master") == 1


def test_a_lone_surviving_vote_goes_bare():
    node = fresh_acceptor()
    for record in RECORDS[:2]:
        node.record_state(record).mastership.grant(
            BallotRange(0, None, Ballot(1, fast=False, proposer="m"))
        )
    options = transactions({record: 1 for record in RECORDS})[0]
    node.handle_propose_fast_batch(
        ProposeFastBatch(options=tuple(options), reply_to="app-1"), "app-1"
    )
    answered = [m for _dst, m in node.sent if not isinstance(m, ProposeClassic)]
    assert answered == [
        FastReply(option_id=options[2].option_id, txid="t1", status=OptionStatus.ACCEPTED)
    ]


def test_a_stale_epoch_batch_gets_no_reply():
    cluster = make_cluster(datacenters=("us-west", "us-east", "eu-west"), elastic=True)
    for record in RECORDS:
        cluster.load_record(record.table, record.key, {"stock": 10})
    cluster.membership.begin_join("ap-southeast")
    cluster.membership.admit("ap-southeast")
    node = acceptor(cluster)
    before = node.counters.get("reconfig.stale_epoch_dropped")
    options = transactions({record: 1 for record in RECORDS})[0]
    node.handle_propose_fast_batch(
        ProposeFastBatch(options=tuple(options), reply_to="app-1", epoch=0), "app-1"
    )
    assert node.sent == []
    assert len(node.wal) == 0
    # one fence per option, as three bare proposals would have met
    assert node.counters.get("reconfig.stale_epoch_dropped") == before + 3


# ----------------------------------------------------------------------
# The batches themselves
# ----------------------------------------------------------------------
def test_a_batch_carries_one_transaction():
    options = transactions({record: 1 for record in RECORDS})
    mixed = (options[0][0], options[1][1])
    with pytest.raises(ValueError):
        ProposeFastBatch(options=mixed, reply_to="app-1")
    with pytest.raises(ValueError):
        ProposeFastBatch(options=(), reply_to="app-1")
    with pytest.raises(ValueError):
        FastReplyBatch(replies=())
    batch = ProposeFastBatch(options=tuple(options[0]), reply_to="app-1")
    assert batch.txid == "t1"
    vote = FastReply(
        option_id=options[1][0].option_id, txid="t2", status=OptionStatus.REJECTED
    )
    assert FastReplyBatch(replies=(vote, vote)).txid == "t2"


def test_the_learner_tallies_a_batch_as_its_votes():
    """Every vote of a reply batch reaches the per-option tally: three
    batches from a fast quorum's worth of replicas learn all options."""
    cluster = make_cluster()
    for record in RECORDS:
        cluster.load_record(record.table, record.key, {"stock": 10})
    client = cluster.add_client("us-west")
    tx = cluster.begin(client)
    for record in RECORDS:
        tx.decrement("items", record.key, "stock", 1)
    future = tx.commit(txid="tx-manual")
    votes = tuple(
        FastReply(option_id=f"tx-manual:{record}", txid="tx-manual", status=OptionStatus.ACCEPTED)
        for record in RECORDS
    )
    fast_size = cluster.placement.quorums().fast_size
    for replica in cluster.placement.replicas(RECORDS[0])[:fast_size]:
        client.handle_fast_reply_batch(FastReplyBatch(replies=votes), replica)
    assert future.done and future.result().committed
