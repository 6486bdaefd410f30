"""Per-record acceptor state: ballots, cstruct, pending options, bases.

This is the state behind Algorithm 3.  One :class:`RecordState` instance
lives on each storage node for each record it replicates, and implements:

* the mode decision — is the record's current instance fast or classic
  (driven by granted :class:`~repro.paxos.ballot.BallotRange` metadata)?
* ``SetCompatible`` (lines 83-99) — the active accept/reject decision for
  physical updates (validRead ∧ validSingle) and commutative updates
  (escrow + quorum demarcation, §3.4.2);
* ``ApplyVisibility`` (lines 100-103) — executing accepted options, which
  advances the record's committed version;
* replica catch-up — applying visibilities that arrive out of order or for
  proposals this replica never saw.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Union

from repro.core.demarcation import demarcation_limits, escrow_accepts
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    ReadValidation,
)
from repro.paxos.ballot import Ballot, BallotRange, INITIAL_FAST_BALLOT
from repro.paxos.cstruct import CStruct
from repro.paxos.multi import MastershipState
from repro.paxos.quorum import QuorumSpec
from repro.storage.record import Record
from repro.storage.schema import TableSchema

__all__ = ["RecordState"]

#: Shared empty cstruct — immutable, so every record starts on it and every
#: record that drains its last pending option can point back at it.
_EMPTY_CSTRUCT = CStruct()

#: The id set of a record that has none yet, shared until the first add.
_NO_IDS: FrozenSet[str] = frozenset()


def _ignore(option_id: str) -> None:
    """The default :attr:`RecordState.on_settled`: nobody is listening."""


class RecordState:
    """Everything one storage node knows about one record's protocol state.

    A storage node keeps one per record it has touched, so an idle record
    costs only the slots below: every container starts as a shared empty
    one (or ``None``) and is created on its first write.
    """

    __slots__ = (
        "record",
        "schema",
        "spec",
        "demarcation",
        "mastership",
        "accepted_ballot",
        "cstruct",
        "_noop_ids",
        "rejected",
        "on_settled",
        "_orphans",
        "base_values",
        "_deferred_physical",
        "_deferred_deltas",
        "_limits_cache",
        "trace_hook",
    )

    def __init__(
        self,
        record: Record,
        schema: TableSchema,
        spec: QuorumSpec,
        demarcation: bool = True,
        on_settled: Callable[[str], object] = _ignore,
    ) -> None:
        self.record = record
        self.schema = schema
        self.spec = spec
        self.demarcation = demarcation
        self.mastership = MastershipState()
        #: ballot of the most recently accepted cstruct (bal_a).
        self.accepted_ballot: Optional[Ballot] = None
        #: the current instance's accepted option structure (val_a).
        self.cstruct = _EMPTY_CSTRUCT
        #: An option is executed here (its commit-visibility applied,
        #: exactly once) when its id is in ``record.applied_ids`` — folded
        #: into the value — or in this set: executed as a no-op, i.e. a
        #: read validation or a physical write already superseded here.
        #: See :meth:`is_executed`.
        self._noop_ids: Union[FrozenSet[str], Set[str]] = _NO_IDS
        #: option ids whose abort-visibility arrived — *final* rejections.
        #: (Tentative local ✗ decisions live only in the cstruct statuses;
        #: a master's classic round may overrule those, but never these.)
        self.rejected: Union[FrozenSet[str], Set[str]] = _NO_IDS
        #: called with an option id once it is executed or finally
        #: rejected — its outcome is then in the store (the storage node
        #: passes its WAL's ``resolve``).
        self.on_settled = on_settled
        #: options that left the cstruct (an era close, or a classic round
        #: adopting a cstruct without them) before their outcome arrived,
        #: by id — kept only until settled, so a repair probe can still
        #: report them.
        self._orphans: Optional[Dict[str, Option]] = None
        #: demarcation base value X per attribute (§3.4.2), set lazily at
        #: first commutative accept and refreshed by master classic rounds.
        self.base_values: Optional[Dict[str, float]] = None
        #: physical visibilities waiting for an earlier version (vread -> option)
        self._deferred_physical: Optional[Dict[int, Option]] = None
        #: commutative visibilities waiting for the record to exist
        self._deferred_deltas: Optional[List[Option]] = None
        #: memoized demarcation windows keyed by everything they derive
        #: from — dropped whenever the bases reset (refresh/era close).
        self._limits_cache: Optional[Dict[tuple, "DemarcationLimits"]] = None
        #: ``hook(reason, attribute)`` invoked at the demarcation decision
        #: site when an escrow window rejects a delta.  Set by the storage
        #: node only while tracing is on; ``None`` costs one attribute
        #: check on the (already exceptional) reject path.
        self.trace_hook = None

    # ------------------------------------------------------------------
    # Mode / ballot queries
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Committed version = the record's current Paxos instance number."""
        return self.record.current_version

    def effective_range(self) -> BallotRange:
        return self.mastership.effective_range(self.record.current_version)

    def effective_ballot(self) -> Ballot:
        if not self.mastership.ranges:
            # No grants ever made: the implicit default fast ballot.
            return INITIAL_FAST_BALLOT
        return self.mastership.effective_range(self.record.current_version).ballot

    @property
    def is_fast(self) -> bool:
        return self.effective_ballot().fast

    def promised_ballot(self) -> Ballot:
        """The lowest ballot this replica may still vote in: the effective
        ballot, or the ballot it last accepted a cstruct at when that is
        higher — accepting at a ballot promises it, also for a stable
        master that skipped Phase 1 and so was never granted a range."""
        effective = self.effective_ballot()
        accepted = self.accepted_ballot
        return accepted if accepted is not None and accepted > effective else effective

    # ------------------------------------------------------------------
    # Pending bookkeeping
    # ------------------------------------------------------------------
    def pending_options(self) -> List[Option]:
        """Accepted options whose visibility has not yet arrived."""
        applied = self.record.applied_ids
        noop = self._noop_ids
        rejected = self.rejected
        accepted = OptionStatus.ACCEPTED
        return [
            option
            for option in self.cstruct.commands
            if option.status is accepted
            and option.option_id not in applied
            and option.option_id not in noop
            and option.option_id not in rejected
        ]

    def unsettled_options(self) -> List[Option]:
        """Options decided here whose outcome is not in the store yet.

        The pending ones, plus those this replica rejected or left
        undecided: a tentative local ✗ is not the transaction's outcome,
        so until a visibility (or a catch-up) settles them their WAL
        entries stay open — also after they left the cstruct."""
        settled = self.settled
        cstruct = self.cstruct
        out = [o for o in cstruct.commands if not settled(o.option_id)]
        if self._orphans:
            out.extend(
                option
                for oid, option in self._orphans.items()
                if oid not in cstruct.ids and not settled(oid)
            )
        return out

    def is_executed(self, option_id: str) -> bool:
        """True once the option's commit-visibility has been applied here
        (or a catch-up folded the option into the value)."""
        return option_id in self.record.applied_ids or option_id in self._noop_ids

    def settled(self, option_id: str) -> bool:
        """True once the option's outcome is in the store: executed, or
        finally rejected by its abort-visibility."""
        return self.is_executed(option_id) or option_id in self.rejected

    def has_pending(self) -> bool:
        return bool(self.pending_options())

    def pending_deltas(self, attribute: str) -> List[float]:
        out = []
        for option in self.pending_options():
            if option.is_commutative:
                delta = option.update.delta_for(attribute)
                if delta != 0.0:
                    out.append(delta)
        return out

    # ------------------------------------------------------------------
    # SetCompatible (Algorithm 3, lines 83-99)
    # ------------------------------------------------------------------
    def decide(
        self, option: Option, classic_mode: bool = False, committed_version: int = 0
    ) -> OptionStatus:
        """The active accept/reject decision for a newly proposed option.

        ``classic_mode`` relaxes the demarcation slack to plain escrow: in
        a classic ballot the chosen cstruct requires identical votes from a
        classic quorum, so local-order divergence — the reason demarcation
        exists — cannot occur.  ``committed_version`` is the newest version
        the classic round's master knows to be committed.
        """
        if self.is_executed(option.option_id):
            return OptionStatus.ACCEPTED  # idempotent re-delivery
        if option.option_id in self.rejected:
            return OptionStatus.REJECTED
        if isinstance(option.update, CommutativeUpdate):
            return self._decide_commutative(option.update, classic_mode)
        if classic_mode and self.record.current_version < max(
            option.update.vread, committed_version
        ):
            # A replica behind the read version, or behind what is known
            # committed, cannot judge the read: a stale verdict would split
            # the classic ballot's votes (a later Phase 1 could not tell
            # which status it chose) or accept a write whose slot is gone.
            # Abstain; the replicas that are up to date decide the round.
            return OptionStatus.PENDING
        if isinstance(option.update, ReadValidation):
            return self._decide_validation(option.update)
        return self._decide_physical(option.update)

    def _decide_physical(self, update: PhysicalUpdate) -> OptionStatus:
        valid_read = update.vread == self.record.current_version
        valid_single = not self.has_pending()
        valid_value = update.is_delete or self.schema.check_value(update.new_value)
        if valid_read and valid_single and valid_value:
            return OptionStatus.ACCEPTED
        return OptionStatus.REJECTED

    def _decide_validation(self, update: ReadValidation) -> OptionStatus:
        """OCC read-set check (§4.4): the read is still current and no
        state-changing option could invalidate it before visibility.
        Pending validations do not conflict — reads never block reads."""
        valid_read = update.vread == self.record.current_version
        valid_single = all(o.is_validation for o in self.pending_options())
        if valid_read and valid_single:
            return OptionStatus.ACCEPTED
        return OptionStatus.REJECTED

    def _decide_commutative(
        self, update: CommutativeUpdate, classic_mode: bool
    ) -> OptionStatus:
        if not self.record.exists:
            return OptionStatus.REJECTED
        # One pass over the cstruct serves both the physical-conflict check
        # and the per-attribute escrow tallies below.
        pending = self.pending_options()
        for pending_option in pending:
            if not pending_option.is_commutative:
                # Deltas do not commute with an in-flight physical write.
                return OptionStatus.REJECTED
        record = self.record
        # In classic mode the full escrow window is available (fast quorum
        # slack collapses to zero: N - N = 0).  Disabling demarcation
        # (ablation) also collapses the slack — leaving the unsafe plain
        # escrow the paper's Figure 2 warns about.
        use_plain_escrow = classic_mode or not self.demarcation
        spec = self.spec
        spec_n = spec.n
        effective_fast_quorum = spec_n if use_plain_escrow else spec.fast_size
        for attribute, delta in update.deltas:
            constraint = self.schema.constraint(attribute)
            if constraint is None:
                continue
            current = record.peek(attribute, 0)
            if not isinstance(current, (int, float)):
                return OptionStatus.REJECTED
            base_values = self.base_values
            if base_values is None:
                base_values = self.base_values = {}
            base = base_values.setdefault(attribute, float(current))
            limits_key = (attribute, base, spec_n, effective_fast_quorum)
            limits_cache = self._limits_cache
            if limits_cache is None:
                limits_cache = self._limits_cache = {}
            limits = limits_cache.get(limits_key)
            if limits is None:
                limits = demarcation_limits(
                    spec_n, effective_fast_quorum, base, constraint
                )
                limits_cache[limits_key] = limits
            # Every pending option is commutative here (physical conflicts
            # were rejected above), so read their deltas directly.
            pending_deltas = []
            for pending_option in pending:
                d = pending_option.update.delta_for(attribute)
                if d != 0.0:
                    pending_deltas.append(d)
            if not escrow_accepts(
                float(current), pending_deltas, delta, limits
            ):
                if self.trace_hook is not None:
                    self.trace_hook("demarcation-limit", attribute)
                return OptionStatus.REJECTED
        return OptionStatus.ACCEPTED

    # ------------------------------------------------------------------
    # Acceptance paths
    # ------------------------------------------------------------------
    def accept_fast(self, option: Option) -> Option:
        """Phase2bFast (lines 78-82): decide, append, return ω(up, status)."""
        cstruct = self.cstruct
        if option.option_id in cstruct.ids:
            return cstruct.command(option.option_id)  # duplicate propose
        decided = option.with_status(self.decide(option))
        self.cstruct = cstruct.append(decided)
        effective = self.effective_ballot()
        accepted = self.accepted_ballot
        # Identity check first: the default fast ballot is a singleton, so
        # the common steady state never reaches the tuple comparison.
        if accepted is None or (effective is not accepted and effective > accepted):
            self.accepted_ballot = effective
        return decided

    def adopt(
        self,
        proposed: CStruct,
        ballot: Ballot,
        classic_mode: bool = True,
        committed_version: int = 0,
    ) -> CStruct:
        """Phase2bClassic (lines 72-77): vala ← v, then SetCompatible.

        Options arriving with a decided status keep it (the master's
        arbitration is authoritative); PENDING options are decided locally
        (see :meth:`decide` for ``committed_version``); options this
        replica already executed stay executed.

        Decisions are made *incrementally*: each PENDING option is
        validated against the partially adopted cstruct, so two conflicting
        options in the same proposal cannot both pass validSingle.
        """
        # Grown via append() (which goes through CStruct._make): the
        # proposed cstruct is already duplicate-free, so re-validating the
        # partial prefix on every iteration is pure overhead.
        cstruct = _EMPTY_CSTRUCT
        # decide() commits nothing, so the id sets stay put for the loop.
        applied = self.record.applied_ids
        noop = self._noop_ids
        rejected = self.rejected
        replaced = self.cstruct
        for option in proposed:
            # Make earlier options of this proposal visible to decide().
            self.cstruct = cstruct
            oid = option.option_id
            if oid in applied or oid in noop:
                decided = option.with_status(OptionStatus.ACCEPTED)
            elif oid in rejected:
                # Abort-visibility already applied: final, never resurrected.
                decided = option.with_status(OptionStatus.REJECTED)
            elif option.status is OptionStatus.PENDING:
                decided = option.with_status(
                    self.decide(option, classic_mode, committed_version)
                )
            else:
                decided = option
            cstruct = cstruct.append(decided)
        self.cstruct = cstruct
        self.accepted_ballot = ballot
        if not replaced.ids <= cstruct.ids:
            for option in replaced.commands:
                oid = option.option_id
                if oid not in cstruct.ids and not self.settled(oid):
                    self._orphan(option)
        return self.cstruct

    # ------------------------------------------------------------------
    # ApplyVisibility (lines 100-103)
    # ------------------------------------------------------------------
    def apply_visibility(self, option: Option, committed: bool) -> bool:
        """Execute or discard an option; returns True if state changed."""
        if self.is_executed(option.option_id):
            # Also an option a catch-up already folded into the value: its
            # late visibility must not re-apply a (blind) delta.
            return False
        if not committed:
            return self._mark_rejected(option)
        if isinstance(option.update, CommutativeUpdate):
            return self._execute_commutative(option)
        if isinstance(option.update, ReadValidation):
            return self._execute_validation(option)
        return self._execute_physical(option)

    def _execute_validation(self, option: Option) -> bool:
        """A committed read validation executes as a no-op: it asserted
        state, it does not change it.  The committed version does not
        advance — concurrent validated readers all commit against the same
        version."""
        self._note_noop(option.option_id)
        self._settle(option.option_id)
        self._unreject(option.option_id)
        self._drop_from_cstruct(option.option_id)
        return True

    def _mark_rejected(self, option: Option) -> bool:
        rejected = self.rejected
        if rejected:
            rejected.add(option.option_id)
        else:
            self.rejected = {option.option_id}
        self._settle(option.option_id)
        if self.cstruct.contains_id(option.option_id):
            self.cstruct = self.cstruct.replace(
                option.with_status(OptionStatus.REJECTED)
            )
        return True

    def _execute_commutative(self, option: Option) -> bool:
        if not self.record.exists:
            # Replica missed the insert; defer until the record appears.
            if self._deferred_deltas is None:
                self._deferred_deltas = []
            self._deferred_deltas.append(option)
            return False
        update: CommutativeUpdate = option.update
        first = True
        for attribute, delta in update.deltas:
            self.record.commit_delta(
                attribute, delta, option_id=option.option_id if first else None
            )
            first = False
        # commit_delta put the id in record.applied_ids: executed.
        self._settle(option.option_id)
        self._unreject(option.option_id)
        self._drop_from_cstruct(option.option_id)
        return True

    def _execute_physical(self, option: Option) -> bool:
        update: PhysicalUpdate = option.update
        current = self.record.current_version
        if current > update.vread:
            # Already superseded here (a catch-up skipped past it): a no-op.
            self._note_noop(option.option_id)
            self._settle(option.option_id)
            self._drop_from_cstruct(option.option_id)
            return False
        if current < update.vread:
            # Missed an earlier commit; hold until the gap fills.
            if self._deferred_physical is None:
                self._deferred_physical = {}
            self._deferred_physical[update.vread] = option
            return False
        # The commit puts the id in record.applied_ids: executed.
        if update.is_delete:
            self.record.commit_delete(option_id=option.option_id)
        else:
            self.record.commit_value(update.new_value, option_id=option.option_id)
        self._settle(option.option_id)
        self._close_era()
        self._drain_deferred()
        return True

    def catch_up(
        self,
        version: int,
        value: Optional[Dict[str, object]],
        applied_ids: tuple = (),
    ) -> bool:
        """Adopt authoritative committed state from the master.

        ``applied_ids`` — the option ids folded into the adopted value —
        join ``record.applied_ids`` and so become executed here: their
        late visibilities are no-ops."""
        changed = self.record.catch_up(version, value, applied_ids=applied_ids)
        if changed:
            for option_id in applied_ids:
                self._settle(option_id)
                self._unreject(option_id)
                self._drop_from_cstruct(option_id)
            self._close_era()
            self._drain_deferred()
        return changed

    def refresh_base(self, new_base: Optional[Dict[str, float]] = None) -> None:
        """Set demarcation bases (master classic round writes a new base)."""
        self._limits_cache = None
        self.base_values = None if new_base is None else dict(new_base)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _settle(self, option_id: str) -> None:
        """``option_id``'s outcome is in the store now."""
        self.on_settled(option_id)
        orphans = self._orphans
        if orphans and orphans.pop(option_id, None) is not None and not orphans:
            self._orphans = None

    def _orphan(self, option: Option) -> None:
        """``option`` leaves the cstruct with its outcome unknown here."""
        if self._orphans is None:
            self._orphans = {}
        self._orphans[option.option_id] = option

    def _note_noop(self, option_id: str) -> None:
        """Mark an option executed that folded nothing into the value."""
        noop = self._noop_ids
        if noop:
            noop.add(option_id)
        else:
            self._noop_ids = {option_id}

    def _unreject(self, option_id: str) -> None:
        if self.rejected:
            self.rejected.discard(option_id)

    def _close_era(self) -> None:
        """A physical commit closed the instance: drop decided options and
        reset demarcation bases to the new committed value (lazily)."""
        applied = self.record.applied_ids
        noop = self._noop_ids
        cstruct = self.cstruct
        survivors = [
            option
            for option in cstruct
            if option.status is OptionStatus.ACCEPTED
            and option.option_id not in applied
            and option.option_id not in noop
        ]
        if len(survivors) < len(cstruct):
            for option in cstruct:
                if option.status is not OptionStatus.ACCEPTED and not self.settled(
                    option.option_id
                ):
                    # Rejected or undecided here; its outcome is still due.
                    self._orphan(option)
        if not survivors:
            self.cstruct = _EMPTY_CSTRUCT
        else:
            # Survivor ids are a subset of the (duplicate-free) cstruct.
            self.cstruct = CStruct._make(
                tuple(survivors),
                frozenset([o.option_id for o in survivors]),
            )
        self.base_values = None
        self._limits_cache = None

    def _drop_from_cstruct(self, option_id: str) -> None:
        cstruct = self.cstruct
        ids = cstruct.ids
        if option_id not in ids:
            return
        commands = cstruct.commands
        if len(commands) == 1:
            # The common case — one in-flight option per record instance.
            self.cstruct = _EMPTY_CSTRUCT
            return
        self.cstruct = CStruct._make(
            tuple([o for o in commands if o.option_id != option_id]),
            ids - {option_id},
        )

    def _drain_deferred(self) -> None:
        # Physical options whose read version has now been reached.
        progressed = self._deferred_physical is not None
        while progressed:
            progressed = False
            pending = self._deferred_physical.pop(self.record.current_version, None)
            if pending is not None and not self.is_executed(pending.option_id):
                if self._execute_physical(pending):
                    progressed = True
        if self.record.exists and self._deferred_deltas:
            deferred, self._deferred_deltas = self._deferred_deltas, None
            for option in deferred:
                if not self.is_executed(option.option_id):
                    self._execute_commutative(option)
