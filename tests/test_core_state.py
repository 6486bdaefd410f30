"""Unit tests for per-record acceptor state (SetCompatible & visibility)."""

from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    RecordId,
)
from repro.core.state import RecordState
from repro.paxos.ballot import Ballot, BallotRange
from repro.paxos.quorum import QuorumSpec
from repro.storage.record import Record
from repro.storage.schema import Constraint, TableSchema

SPEC = QuorumSpec.for_replication(5)
SCHEMA = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
RID = RecordId("items", "k")


def make_state(value=None):
    record = Record("items", "k")
    if value is not None:
        record.commit_value(value)
    return RecordState(record=record, schema=SCHEMA, spec=SPEC)


def phys_option(txid, vread, value):
    return Option(
        txid=txid,
        record=RID,
        update=PhysicalUpdate(vread=vread, new_value=value),
        writeset=(RID,),
    )


def delta_option(txid, **deltas):
    return Option(
        txid=txid,
        record=RID,
        update=CommutativeUpdate.of(**deltas),
        writeset=(RID,),
    )


class TestMode:
    def test_fresh_record_is_fast(self):
        state = make_state()
        assert state.is_fast
        assert state.version == 0

    def test_classic_grant_switches_mode(self):
        state = make_state({"stock": 5})
        state.mastership.grant(
            BallotRange(1, 100, Ballot(1, fast=False, proposer="m"))
        )
        assert not state.is_fast

    def test_mode_returns_to_fast_after_range(self):
        state = make_state({"stock": 5})
        state.mastership.grant(BallotRange(1, 1, Ballot(1, fast=False, proposer="m")))
        assert not state.is_fast
        state.record.commit_value({"stock": 4})  # version 2 > range end
        assert state.is_fast


class TestPhysicalDecide:
    def test_valid_read_accepts(self):
        state = make_state({"stock": 5})
        decided = state.accept_fast(phys_option("t1", 1, {"stock": 4}))
        assert decided.accepted

    def test_stale_read_rejects(self):
        state = make_state({"stock": 5})
        decided = state.accept_fast(phys_option("t1", 0, {"stock": 4}))
        assert decided.rejected

    def test_second_outstanding_option_rejected(self):
        """§3.2.2 deadlock avoidance: the conflicting follow-up is actively
        rejected, not blocked."""
        state = make_state({"stock": 5})
        first = state.accept_fast(phys_option("t1", 1, {"stock": 4}))
        second = state.accept_fast(phys_option("t2", 1, {"stock": 3}))
        assert first.accepted and second.rejected

    def test_insert_requires_absence(self):
        state = make_state()
        ok = state.accept_fast(phys_option("t1", 0, {"stock": 9}))
        assert ok.accepted
        state.apply_visibility(ok, committed=True)
        dup = state.accept_fast(phys_option("t2", 0, {"stock": 8}))
        assert dup.rejected

    def test_duplicate_propose_returns_same_decision(self):
        state = make_state({"stock": 5})
        opt = phys_option("t1", 1, {"stock": 4})
        first = state.accept_fast(opt)
        second = state.accept_fast(opt)
        assert first.status == second.status


class TestCommutativeDecide:
    def test_delta_accepted_within_budget(self):
        state = make_state({"stock": 10})
        decided = state.accept_fast(delta_option("t1", stock=-2))
        assert decided.accepted

    def test_delta_rejected_on_missing_record(self):
        state = make_state()
        decided = state.accept_fast(delta_option("t1", stock=-1))
        assert decided.rejected

    def test_delta_rejected_with_pending_physical(self):
        state = make_state({"stock": 10})
        state.accept_fast(phys_option("t1", 1, {"stock": 9}))
        decided = state.accept_fast(delta_option("t2", stock=-1))
        assert decided.rejected

    def test_physical_rejected_with_pending_delta(self):
        state = make_state({"stock": 10})
        state.accept_fast(delta_option("t1", stock=-1))
        decided = state.accept_fast(phys_option("t2", 1, {"stock": 9}))
        assert decided.rejected

    def test_demarcation_limit_enforced(self):
        # stock 5, L = (5-4)/5 * 5 = 1: projections below 1 rejected.
        state = make_state({"stock": 5})
        accepted = 0
        for i in range(6):
            if state.accept_fast(delta_option(f"t{i}", stock=-1)).accepted:
                accepted += 1
        assert accepted == 4  # down to projection 1 >= L

    def test_unconstrained_attribute_skips_demarcation(self):
        state = make_state({"stock": 5, "views": 0})
        for i in range(20):
            decided = state.accept_fast(delta_option(f"t{i}", views=1))
            assert decided.accepted

    def test_abort_frees_escrow_budget(self):
        state = make_state({"stock": 5})
        options = [delta_option(f"t{i}", stock=-1) for i in range(4)]
        for option in options:
            assert state.accept_fast(option).accepted
        blocked = state.accept_fast(delta_option("t9", stock=-1))
        assert blocked.rejected
        # Abort two of the pending options: budget returns.
        state.apply_visibility(options[0], committed=False)
        state.apply_visibility(options[1], committed=False)
        retry = state.accept_fast(delta_option("t10", stock=-1))
        assert retry.accepted


class TestVisibility:
    def test_commit_applies_value_and_bumps_version(self):
        state = make_state({"stock": 5})
        opt = state.accept_fast(phys_option("t1", 1, {"stock": 4}))
        assert state.apply_visibility(opt, committed=True)
        assert state.record.snapshot().value == {"stock": 4}
        assert state.version == 2

    def test_duplicate_visibility_is_noop(self):
        state = make_state({"stock": 5})
        opt = state.accept_fast(phys_option("t1", 1, {"stock": 4}))
        state.apply_visibility(opt, committed=True)
        assert not state.apply_visibility(opt, committed=True)
        assert state.version == 2

    def test_abort_leaves_value_untouched(self):
        state = make_state({"stock": 5})
        opt = state.accept_fast(phys_option("t1", 1, {"stock": 4}))
        state.apply_visibility(opt, committed=False)
        assert state.record.snapshot().value == {"stock": 5}
        assert state.version == 1

    def test_visibility_for_unseen_option_applies(self):
        """A replica that missed the propose still converges via the
        visibility message (it carries the full option)."""
        state = make_state({"stock": 5})
        unseen = phys_option("ghost", 1, {"stock": 4})
        assert state.apply_visibility(unseen, committed=True)
        assert state.record.snapshot().value == {"stock": 4}

    def test_out_of_order_visibility_buffered(self):
        state = make_state({"stock": 5})
        second = phys_option("t2", 2, {"stock": 3})
        first = phys_option("t1", 1, {"stock": 4})
        assert not state.apply_visibility(second, committed=True)  # gap
        assert state.version == 1
        state.apply_visibility(first, committed=True)
        # The deferred write drained automatically.
        assert state.version == 3
        assert state.record.snapshot().value == {"stock": 3}

    def test_delta_visibility_applies_once(self):
        state = make_state({"stock": 5})
        opt = delta_option("t1", stock=-2)
        state.accept_fast(opt)
        assert state.apply_visibility(opt, committed=True)
        assert not state.apply_visibility(opt, committed=True)
        assert state.record.snapshot().value["stock"] == 3

    def test_delta_on_missing_record_deferred(self):
        state = make_state()
        delta = delta_option("t2", stock=-1)
        assert not state.apply_visibility(delta, committed=True)
        insert = phys_option("t1", 0, {"stock": 10})
        state.apply_visibility(insert, committed=True)
        # Deferred delta drains once the record exists.
        assert state.record.snapshot().value["stock"] == 9

    def test_catch_up_jumps_versions(self):
        state = make_state({"stock": 5})
        assert state.catch_up(7, {"stock": 1})
        assert state.version == 7
        assert state.record.snapshot().value == {"stock": 1}
        assert not state.catch_up(3, {"stock": 9})  # stale: ignored

    def test_final_rejection_never_resurrected_by_adopt(self):
        from repro.paxos.cstruct import CStruct

        state = make_state({"stock": 5})
        opt = phys_option("t1", 1, {"stock": 4})
        state.apply_visibility(opt, committed=False)  # final abort
        adopted = state.adopt(
            CStruct([opt.with_status(OptionStatus.ACCEPTED)]),
            Ballot(1, fast=False, proposer="m"),
        )
        assert adopted.command(opt.option_id).rejected


class TestUnsettledOptions:
    """What a repair probe reports: every option decided here whose
    outcome has not arrived, wherever it now sits."""

    def ids(self, state):
        return [option.option_id for option in state.unsettled_options()]

    def test_pending_and_locally_rejected_options_are_reported(self):
        state = make_state({"stock": 5})
        first = phys_option("t1", 1, {"stock": 4})
        second = phys_option("t2", 1, {"stock": 3})
        assert state.accept_fast(first).status is OptionStatus.ACCEPTED
        assert state.accept_fast(second).status is OptionStatus.REJECTED
        assert self.ids(state) == [first.option_id, second.option_id]
        state.apply_visibility(second, committed=False)
        assert self.ids(state) == [first.option_id]
        state.apply_visibility(first, committed=True)
        assert self.ids(state) == []

    def test_an_option_an_era_close_drops_is_reported_until_settled(self):
        state = make_state({"stock": 5})
        winner = phys_option("t1", 1, {"stock": 4})
        loser = phys_option("t2", 1, {"stock": 3})
        state.accept_fast(winner)
        assert state.accept_fast(loser).status is OptionStatus.REJECTED
        # t1's commit closes the era: t2 leaves the cstruct, its abort
        # visibility still to come.
        state.apply_visibility(winner, committed=True)
        assert state.cstruct.commands == ()
        assert self.ids(state) == [loser.option_id]
        state.apply_visibility(loser, committed=False)
        assert self.ids(state) == []
        assert state._orphans is None

    def test_an_option_a_classic_round_leaves_out_is_reported(self):
        from repro.paxos.cstruct import CStruct

        state = make_state({"stock": 5})
        dropped = phys_option("t1", 1, {"stock": 4})
        state.accept_fast(dropped)
        kept = phys_option("t2", 1, {"stock": 3})
        state.adopt(
            CStruct([kept.with_status(OptionStatus.ACCEPTED)]),
            Ballot(1, fast=False, proposer="m"),
        )
        assert self.ids(state) == [kept.option_id, dropped.option_id]
        # A catch-up carrying its id settles it.
        state.catch_up(3, {"stock": 4}, applied_ids=(dropped.option_id,))
        assert dropped.option_id not in self.ids(state)
