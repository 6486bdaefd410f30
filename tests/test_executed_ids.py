"""``RecordState.is_executed`` answers for every way an option gets executed.

A replica stores an executed option's id once: in ``Record.applied_ids``
when the option was folded into the value (a commit, or a catch-up that
adopted a value containing it), otherwise in the state's no-op set (a
read validation, a physical write already superseded here).  Exactly-once
visibility, Phase 2 adoption and dangling-transaction status all read
the union through ``is_executed``.
"""

from repro.core.messages import CatchUp, ProposeFast, StatusReply, StatusRequest, Visibility
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    RecordId,
)
from repro.db.cluster import ClusterSpec, build_cluster
from repro.paxos.ballot import Ballot
from repro.paxos.cstruct import CStruct
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
RECORD = RecordId("items", "i")


def _cluster():
    """An MDCC cluster holding ``items/i`` (stock 10, version 1)."""
    cluster = build_cluster(ClusterSpec(protocol="mdcc", partitions_per_table=1, seed=3))
    cluster.register_table(ITEMS)
    cluster.load_record("items", "i", {"stock": 10})
    return cluster


def _capture(node):
    """Collect what ``node`` sends in ``node.sent`` instead of sending it."""
    node.sent = []
    node.send = lambda dst, message: node.sent.append(message)
    return node


def _replica():
    cluster = _cluster()
    return cluster, _capture(
        cluster.storage_nodes[cluster.placement.replica_in(RECORD, "us-west")]
    )


def _write(txid, vread, stock):
    return Option(
        txid=txid,
        record=RECORD,
        update=PhysicalUpdate(vread=vread, new_value={"stock": stock}),
        writeset=(RECORD,),
    )


def _delta(txid, amount):
    return Option(
        txid=txid,
        record=RECORD,
        update=CommutativeUpdate.of(stock=amount),
        writeset=(RECORD,),
    )


def _commit(node, option):
    node.handle_propose_fast(ProposeFast(option=option, reply_to="app"), "app")
    node.handle_visibility(Visibility(option=option, committed=True), "app")


def test_commits_are_executed_through_the_applied_ids_alone():
    _cluster, node = _replica()
    state = node.record_state(RECORD)
    delta, write = _delta("t1", -2), _write("t2", 2, 5)
    for option in (delta, write):
        assert not state.is_executed(option.option_id)
        _commit(node, option)
        assert state.is_executed(option.option_id) and state.settled(option.option_id)
    assert set(state.record.applied_ids) == {delta.option_id, write.option_id}
    assert not state._noop_ids
    assert node.store.read("items", "i").value == {"stock": 5}


def test_a_committed_read_validation_is_executed_without_being_applied():
    cluster = _cluster()
    client = cluster.add_client("us-west")
    tx = cluster.begin(client, serializable=True)
    cluster.sim.run_until(tx.read("items", "i"), limit=cluster.sim.now + 60_000)
    tx.write("items", "j", {"stock": 2})  # an insert; i is only read
    outcome = cluster.sim.run_until(tx.commit(), limit=cluster.sim.now + 60_000)
    assert outcome.committed
    cluster.sim.run(until=cluster.sim.now + 5_000)
    for node_id in cluster.placement.replicas(RECORD):
        node = cluster.storage_nodes[node_id]
        state = node.record_state(RECORD)
        (validation,) = [o for o in node._option_log.values() if o.is_validation]
        option_id = validation.option_id
        assert state.is_executed(option_id)
        assert option_id in state._noop_ids
        assert option_id not in state.record.applied_ids
        assert state.version == 1  # a validation commits no version
        # Dangling-transaction recovery sees it as executed.
        _capture(node).handle_status_request(
            StatusRequest(txid=validation.txid, record=RECORD, request_id=1), "agent"
        )
        (reply,) = node.sent
        assert isinstance(reply, StatusReply)
        assert reply.executed and reply.status is OptionStatus.ACCEPTED


def test_a_superseded_physical_write_is_executed_as_a_noop():
    _cluster, node = _replica()
    state = node.record_state(RECORD)
    late = _write("t1", 1, 9)
    node.handle_catch_up(
        CatchUp(record=RECORD, version=3, value={"stock": 4}, exists=True, applied_ids=("t0:x",)),
        "master",
    )
    node.handle_visibility(Visibility(option=late, committed=True), "app")
    assert state.is_executed(late.option_id)
    assert late.option_id in state._noop_ids
    assert late.option_id not in state.record.applied_ids
    assert node.store.read("items", "i").value == {"stock": 4}
    assert node.wal.retained == 0


def test_catch_up_ids_are_executed_and_a_late_duplicate_visibility_is_a_noop():
    _cluster, node = _replica()
    state = node.record_state(RECORD)
    delta = _delta("t1", -2)
    node.handle_propose_fast(ProposeFast(option=delta, reply_to="app"), "app")
    assert state.pending_options() == [state.cstruct.command(delta.option_id)]
    node.handle_catch_up(
        CatchUp(
            record=RECORD,
            version=2,
            value={"stock": 8},  # t1's -2 already folded in
            exists=True,
            applied_ids=(delta.option_id,),
        ),
        "master",
    )
    assert state.is_executed(delta.option_id)
    assert delta.option_id in state.record.applied_ids
    assert not state._noop_ids and not state.pending_options()
    appended = len(node.wal)
    for _ in range(2):
        node.handle_visibility(Visibility(option=delta, committed=True), "app")
    assert node.store.read("items", "i").value == {"stock": 8}
    assert state.version == 2
    assert (len(node.wal) - appended, node.wal.retained) == (2, 0)


def test_adopt_keeps_executed_options_accepted():
    _cluster, node = _replica()
    state = node.record_state(RECORD)
    applied = _write("t1", 1, 9)
    _commit(node, applied)
    superseded = _write("t0", 1, 3)
    node.handle_visibility(Visibility(option=superseded, committed=True), "app")
    assert superseded.option_id in state._noop_ids
    proposal = CStruct(
        [
            applied.with_status(OptionStatus.REJECTED),
            superseded.with_status(OptionStatus.PENDING),
        ]
    )
    adopted = state.adopt(proposal, Ballot(2, fast=False, proposer="m"))
    assert adopted.command(applied.option_id).status is OptionStatus.ACCEPTED
    assert adopted.command(superseded.option_id).status is OptionStatus.ACCEPTED
