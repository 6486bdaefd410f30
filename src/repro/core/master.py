"""The leader/master role (Algorithm 2).

Each record has a master (default: chosen by the placement policy) whose
job is *not* on the fast path: it arbitrates collisions, owns classic
ballots, and refreshes commutative base values.  Masters live on storage
nodes ("In our implementation, we place masters on storage nodes", §3.1.1)
— :class:`MasterRole` is embedded in
:class:`~repro.core.storage_node.MDCCStorageNode` and handles:

* ``ProposeClassic`` — classic-era proposals (Phase2aClassic, line 46);
* ``StartRecovery`` — collision / limit / timeout arbitration: a new
  classic ballot, Phase 1 to the replicas, ProvedSafe over the returned
  cstructs, then Phase 2 with the safe cstruct plus any queued proposals;
* the post-recovery mode switch: γ classic instances after a physical
  collision (§3.3.2), or an immediate fast re-open with a refreshed
  demarcation base after a commutative limit hit (§3.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.config import RECOVERY_TIMEOUT_MS, MDCCConfig
from repro.core.messages import (
    CatchUp,
    MPhase1a,
    MPhase1b,
    MPhase2a,
    MPhase2b,
    MastershipTaken,
    OptionOutcome,
    ProposeClassic,
    StartRecovery,
)
from repro.core.fastpolicy import make_policy
from repro.core.options import Option, OptionStatus, RecordId
from repro.paxos.ballot import Ballot, BallotRange, INITIAL_FAST_BALLOT
from repro.paxos.cstruct import CStruct
from repro.paxos.generalized import CStructReport, proved_safe
from repro.storage.partition import stable_hash
from repro.trace import runtime as trace_runtime

__all__ = ["MasterRole"]


@dataclass
class _MasterRecordState:
    """Leader-side book-keeping for one record."""

    ballot: Optional[Ballot] = None          # established classic ballot
    established: bool = False
    round_counter: int = 0                   # for unique ballot generation
    phase: str = "idle"                      # idle | phase1 | phase2 | backoff
    recovery_reason: Optional[str] = None
    phase1_replies: Dict[str, MPhase1b] = field(default_factory=dict)
    phase2_replies: Dict[str, MPhase2b] = field(default_factory=dict)
    phase2_cstruct: Optional[CStruct] = None
    queue: List[Option] = field(default_factory=list)
    queued_ids: Set[str] = field(default_factory=set)
    waiters: Dict[str, Set[str]] = field(default_factory=dict)
    outcome_cache: Dict[str, OptionStatus] = field(default_factory=dict)
    #: decided-accepted options not yet known executed at EVERY replica.
    #: They must ride every subsequent Phase2a: the paper's maxTried is
    #: cumulative, and dropping an option that is still pending on a
    #: lagging replica would let a conflicting later option pass that
    #: replica's validSingle check — a lost update.  Pruning is gated on
    #: ``min_observed_version``: the slowest committed version reported by
    #: any replica in the latest quorum round.
    live: Dict[str, Option] = field(default_factory=dict)
    #: replica id -> last committed version it reported in any phase reply.
    replica_versions: Dict[str, int] = field(default_factory=dict)
    highest_seen: Ballot = INITIAL_FAST_BALLOT
    pending_post_grant: Optional[BallotRange] = None
    pending_new_base: Optional[Dict[str, float]] = None
    retries: int = 0
    #: membership epoch the in-flight Phase-1/2 round was started under;
    #: a bump mid-round restarts it so no vote straddles configurations.
    round_epoch: int = 0
    #: placement manager to notify once a migration takeover decides.
    migration_notify: Optional[str] = None
    #: tracing: parent context captured from the triggering message, and
    #: the open phase span for the in-flight round (None when tracing is
    #: off — these fields stay at their defaults and cost nothing).
    trace_ctx: Optional[tuple] = None
    trace_span: Optional[object] = None


class MasterRole:
    """Leader logic, embedded in a storage node.

    The embedding node provides messaging (``node.send``), timers
    (``node.set_timer``), its identity, and its local acceptor state (the
    master is also a replica).
    """

    def __init__(self, node, config: MDCCConfig) -> None:
        self.node = node
        self.config = config
        self.placement = node.placement
        self.policy = make_policy(config)
        self._records: Dict[RecordId, _MasterRecordState] = {}

    def _state(self, record: RecordId) -> _MasterRecordState:
        ms = self._records.get(record)
        if ms is None:
            ms = self._records[record] = _MasterRecordState()
        return ms

    def _trace_phase(self, kind: str, record: RecordId, ms: _MasterRecordState, **attrs):
        """Open a phase span for this record's in-flight round.

        Parents to the ambient context (the message that triggered the
        round) when present, else the context remembered from the round
        that queued the work; falls back to root-parenting via the first
        queued option's txid.  Returns None when tracing is off or no
        anchor exists.  An unfinished prior phase span is closed as
        superseded so restarts never leak open spans.
        """
        tracer = self.node.tracer
        if not tracer.enabled:
            return None
        ctx = trace_runtime.current_context() or ms.trace_ctx
        txid = ms.queue[0].txid if ms.queue else None
        if ctx is None and txid is None:
            return None
        if ms.trace_span is not None:
            ms.trace_span.finish(self.node.now, "superseded")
        span = tracer.start_span(
            kind,
            self.node.node_id,
            self.node.now,
            parent=ctx,
            txid=txid,
            record=f"{record.table}/{record.key}",
            **attrs,
        )
        if ctx is not None:
            ms.trace_ctx = ctx
        ms.trace_span = span
        return span

    # ------------------------------------------------------------------
    # Inbound: proposals routed through the master
    # ------------------------------------------------------------------
    def _enqueue(self, record: RecordId, option: Option, reply_to: str) -> bool:
        """Register ``reply_to`` as a learner of ``option`` and queue the
        option for the next classic round.  False when the outcome is
        already known: the waiter has been told, nothing is left to run."""
        ms = self._state(record)
        option_id = option.option_id
        ms.waiters.setdefault(option_id, set()).add(reply_to)
        if option_id in ms.outcome_cache:
            self._notify(record, option, ms.outcome_cache[option_id])
            return False
        if option_id not in ms.queued_ids and not self._inflight(ms, option_id):
            ms.queue.append(option.with_status(OptionStatus.PENDING))
            ms.queued_ids.add(option_id)
        return True

    def on_propose(self, message: ProposeClassic, src_id: str) -> None:
        record = message.option.record
        if self._enqueue(record, message.option, message.reply_to):
            self._pump(record)

    def on_start_recovery(self, message: StartRecovery, src_id: str) -> None:
        ms = self._state(message.record)
        if message.reason == "migration":
            # Remember whom to tell once a full classic round has decided
            # under our ballot; if a round is already running its
            # completion doubles as the takeover.
            ms.migration_notify = message.reply_to or src_id
        if message.option is not None and not self._enqueue(
            message.record, message.option, message.reply_to or src_id
        ):
            return
        if ms.phase == "idle":
            ms.recovery_reason = message.reason
            self._start_phase1(message.record)
        # else: recovery already running; queued option rides along.

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _start_phase1(self, record: RecordId) -> None:
        ms = self._state(record)
        ms.phase = "phase1"
        ms.established = False
        ms.round_counter = max(ms.round_counter, ms.highest_seen.round) + 1
        ballot = Ballot(round=ms.round_counter, fast=False, proposer=self.node.node_id)
        ms.ballot = ballot
        ms.phase1_replies = {}
        ms.round_epoch = self.placement.epoch
        version = self._local_version(record)
        grant = BallotRange(version, None, ballot)
        replicas = self.placement.replicas(record)
        span = self._trace_phase(
            "phase1-takeover",
            record,
            ms,
            ballot=repr(ballot),
            reason=ms.recovery_reason or "route",
            epoch=ms.round_epoch,
        )
        with trace_runtime.under(span):
            for replica in replicas:
                self.node.send(
                    replica,
                    MPhase1a(
                        record=record,
                        ballot=ballot,
                        grant=grant,
                        epoch=ms.round_epoch,
                    ),
                )
        self.node.set_timer(
            RECOVERY_TIMEOUT_MS + self._stagger(ms.round_counter),
            self._phase1_timeout,
            record,
            ballot,
        )
        self.node.counters.increment("master.phase1_started")

    def on_phase1b(self, message: MPhase1b, src_id: str) -> None:
        if self.node.fence_stale(message.epoch):
            # A promise from the old configuration must not count toward
            # a quorum sized for the new one.
            return
        ms = self._state(message.record)
        versions = ms.replica_versions
        prev = versions.get(src_id)
        if prev is None or message.committed_version > prev:
            versions[src_id] = message.committed_version
        if message.promised > ms.highest_seen:
            ms.highest_seen = message.promised
        if ms.phase != "phase1" or message.ballot != ms.ballot:
            return
        if ms.round_epoch != self.placement.epoch:
            # Membership changed since this round started: restart it so
            # the promise set is collected entirely under one epoch.
            self.node.counters.increment("reconfig.epoch_round_restarts")
            self._start_phase1(message.record)
            return
        if not message.granted:
            if self._abdicate_if_deposed(message.record, message.promised):
                return
            self._preempted(message.record, message.promised)
            return
        ms.phase1_replies[src_id] = message
        if len(ms.phase1_replies) < self.placement.quorums().classic_size:
            return
        self._finish_phase1(message.record)

    def _finish_phase1(self, record: RecordId) -> None:
        ms = self._state(record)
        replies = list(ms.phase1_replies.values())
        # Authoritative committed state: the newest version any quorum
        # member reports; laggards are caught up.
        newest = max(replies, key=lambda r: r.committed_version)
        for replica_id, reply in ms.phase1_replies.items():
            if reply.committed_version < newest.committed_version:
                self.node.send(
                    replica_id,
                    CatchUp(
                        record=record,
                        version=newest.committed_version,
                        value=newest.committed_value,
                        exists=newest.committed_value is not None,
                        applied_ids=newest.applied_ids,
                    ),
                )
        # An acceptor whose cstruct has fully executed (and been pruned)
        # reports cstruct=None but still carries its accepted ballot — that
        # is a VOTE for the empty cstruct at that ballot, not an abstention.
        # Discarding it would let a stale lower-ballot accept (e.g. from a
        # replica that was dark through a failover) masquerade as the
        # highest vote and resurrect an option that was never chosen.
        reports = [
            CStructReport(
                acceptor=replica_id,
                ballot=reply.accepted_ballot,
                value=reply.cstruct
                if reply.cstruct is not None or reply.accepted_ballot is None
                else CStruct(),
            )
            for replica_id, reply in ms.phase1_replies.items()
        ]
        safe = proved_safe(
            reports, self.placement.quorums(), self.placement.replicas(record)
        )
        normalized = self._normalize(record, list(safe), newest)
        ms.established = True
        ms.phase = "idle"
        if ms.trace_span is not None:
            ms.trace_span.finish(self.node.now, "established")
            ms.trace_span = None
        self._prepare_mode_switch(record, newest)
        self._start_phase2(record, normalized)

    def _normalize(
        self, record: RecordId, options: List[Option], newest: MPhase1b
    ) -> CStruct:
        """Re-validate statuses against the authoritative committed state.

        The safe cstruct can contain options whose flags were set by
        diverged acceptors (or merged deterministically when nothing was
        provably chosen).  Replaying validation in cstruct order guarantees
        the arbitrated history is internally consistent: at most one
        accepted physical write per version, escrow never over-committed.

        Two invariants protect already-learned outcomes:

        * rejected flags are never flipped to accepted — a learner may
          already have acted on the rejection;
        * ACCEPTED options behind the authoritative committed version that
          the authoritative replica applied are *committed history*: they
          keep their flag and stay in the cstruct so replicas that have
          not executed them yet keep them pending.  Flipping or dropping
          them would reopen their version slot on lagging replicas.  A
          write it did not apply lost its slot to another write, so a
          lagging replica's ACCEPTED vote for it is re-validated (and
          rejected) like any other.
        """
        schema = self.node.store.schema(record.table)
        version = newest.committed_version
        value: Dict[str, object] = dict(newest.committed_value or {})
        exists = newest.committed_value is not None
        applied = frozenset(newest.applied_ids)
        pending_any = False
        pending_deltas: Dict[str, List[float]] = {}
        out: List[Option] = []
        for option in options:
            if option.status is OptionStatus.REJECTED:
                out.append(option)
                continue
            if option.is_commutative:
                if option.status is OptionStatus.ACCEPTED:
                    # Possibly executed already; keep, and conservatively
                    # count it against the escrow window.
                    for attribute, delta in option.update.deltas:
                        pending_deltas.setdefault(attribute, []).append(delta)
                    out.append(option)
                    continue
                verdict = self._validate_delta(
                    schema, exists, value, pending_any, pending_deltas, option
                )
                if verdict:
                    for attribute, delta in option.update.deltas:
                        pending_deltas.setdefault(attribute, []).append(delta)
                    out.append(option.with_status(OptionStatus.ACCEPTED))
                else:
                    out.append(option.with_status(OptionStatus.REJECTED))
                continue
            update = option.update
            if (
                option.status is OptionStatus.ACCEPTED
                and update.vread < version
                and (option.is_validation or option.option_id in applied)
            ):
                # Committed history: already executed into `version`.  A
                # write behind `version` that the authoritative replica
                # never applied was not chosen — another write took its
                # slot — whatever a lagging replica voted for it.
                out.append(option)
                continue
            valid = update.vread == version and not pending_any and not any(
                pending_deltas.values()
            )
            if option.status is OptionStatus.ACCEPTED and valid:
                pending_any = True
                out.append(option)
            elif option.status is OptionStatus.PENDING and valid:
                pending_any = True
                out.append(option.with_status(OptionStatus.ACCEPTED))
            else:
                out.append(option.with_status(OptionStatus.REJECTED))
        return CStruct(out)

    def _validate_delta(
        self,
        schema,
        exists: bool,
        value: Dict[str, object],
        pending_physical: bool,
        pending_deltas: Dict[str, List[float]],
        option: Option,
    ) -> bool:
        from repro.core.demarcation import demarcation_limits, escrow_accepts

        if not exists or pending_physical:
            return False
        for attribute, delta in option.update.deltas:
            constraint = schema.constraint(attribute)
            if constraint is None:
                continue
            current = value.get(attribute, 0)
            if not isinstance(current, (int, float)):
                return False
            # Classic round: full escrow window (no fast-quorum slack).
            n = self.placement.quorums().n
            limits = demarcation_limits(n, n, float(current), constraint)
            if not escrow_accepts(
                float(current), pending_deltas.get(attribute, []), delta, limits
            ):
                return False
        return True

    def _prepare_mode_switch(self, record: RecordId, newest: MPhase1b) -> None:
        """Choose the post-recovery grant per §3.3.2 / §3.4.2.

        The classic horizon comes from the configured
        :class:`~repro.core.fastpolicy.GammaPolicy` — the paper's static γ
        by default, or the adaptive conflict-rate policy."""
        ms = self._state(record)
        reason = ms.recovery_reason or "collision"
        version = newest.committed_version
        assert ms.ballot is not None
        if reason == "migration" and self.config.fast_ballots_enabled:
            # A mastership move, not a conflict — no γ policy involved:
            # re-open the fast era immediately; under fast ballots the new
            # master matters only for future arbitration/forwarding.
            fast_ballot = Ballot(
                round=ms.ballot.round + 1, fast=True, proposer=self.node.node_id
            )
            ms.pending_post_grant = BallotRange(version, None, fast_ballot)
            ms.pending_new_base = self._constrained_values(record, newest)
            self.node.counters.increment("master.recovery.migration")
            return
        if not self.config.fast_ballots_enabled:
            # Stable-master variant: fast instances never resume, so a γ
            # horizon is meaningless — hold an open-ended classic lease.
            # The fence stands until a higher-ballot Phase 1 (the next
            # migration or a failover) supersedes it, so two masters can
            # never both assemble a classic quorum.  Also skips the γ
            # policy: these recoveries are not a conflict-rate signal.
            ms.pending_post_grant = BallotRange(version, None, ms.ballot)
            ms.pending_new_base = self._constrained_values(record, newest)
            self.node.counters.increment(f"master.recovery.{reason}")
            return
        horizon = self.policy.classic_horizon(record, reason, self.node.now)
        ms.pending_post_grant = BallotRange(version, version + horizon - 1, ms.ballot)
        ms.pending_new_base = self._constrained_values(record, newest)
        self.node.counters.increment(f"master.recovery.{reason}")

    def _constrained_values(
        self, record: RecordId, newest: MPhase1b
    ) -> Optional[Dict[str, float]]:
        """The new demarcation base: committed values of constrained attrs."""
        if newest.committed_value is None:
            return None
        schema = self.node.store.schema(record.table)
        base = {
            attribute: float(newest.committed_value[attribute])
            for attribute in schema.constraints
            if isinstance(newest.committed_value.get(attribute), (int, float))
        }
        return base or None

    def _preempted(self, record: RecordId, promised: Optional[Ballot]) -> None:
        """A replica refused our ballot for ``promised``: leapfrog it with
        a new Phase 1.  When ``promised`` is another master's, first pause
        for a staggered interval — two masters that re-ran Phase 1 on every
        refusal would pre-empt each other indefinitely."""
        ms = self._state(record)
        ms.established = False
        if promised is not None:
            ms.round_counter = max(ms.round_counter, promised.round)
        if promised is None or promised.proposer in ("", self.node.node_id):
            self._start_phase1(record)
            return
        ms.phase = "backoff"
        self.node.set_timer(self._stagger(ms.round_counter + 13), self._end_backoff, record)

    def _end_backoff(self, record: RecordId) -> None:
        if self._state(record).phase == "backoff":
            self._start_phase1(record)

    def _phase1_timeout(self, record: RecordId, ballot: Ballot) -> None:
        ms = self._state(record)
        if ms.phase == "phase1" and ms.ballot == ballot:
            ms.retries += 1
            self._start_phase1(record)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _pump(self, record: RecordId) -> None:
        ms = self._state(record)
        if ms.phase != "idle":
            return
        if not ms.queue:
            return
        if not ms.established:
            if (
                not self.config.fast_ballots_enabled
                and not self.placement.is_adaptive
                and not self.placement.is_elastic
            ):
                # Multi variant: "a stable master can skip Phase 1"
                # (§5.3.1).  Mastership is structurally unique (placement
                # decides it), so a first classic ballot needs no election;
                # failover still goes through Phase 1 via StartRecovery.
                # Under adaptive placement mastership is NOT structurally
                # unique (it migrates), so every master must win a real
                # Phase 1 — otherwise two phase-1-less masters could both
                # assemble classic quorums for conflicting cstructs.  The
                # same holds under elastic membership: an epoch bump
                # re-hashes mastership wholesale.
                self.establish_stable_mastership(record)
            else:
                ms.recovery_reason = ms.recovery_reason or "route"
                self._start_phase1(record)
                return
        self._start_phase2(record, CStruct())

    def _start_phase2(self, record: RecordId, base_cstruct: CStruct) -> None:
        ms = self._state(record)
        assert ms.ballot is not None
        span = self._trace_phase(
            "phase2-tally",
            record,
            ms,
            ballot=repr(ms.ballot),
            epoch=self.placement.epoch,
        )
        self._prune_live(record, ms)
        cstruct = base_cstruct
        for option in ms.live.values():
            if not cstruct.contains_id(option.option_id):
                cstruct = cstruct.append(option)
        queued, ms.queue = ms.queue, []
        ms.queued_ids = set()
        for option in queued:
            if not cstruct.contains_id(option.option_id):
                cstruct = cstruct.append(option)
        ms.phase = "phase2"
        ms.phase2_replies = {}
        ms.phase2_cstruct = cstruct
        ms.round_epoch = self.placement.epoch
        message = MPhase2a(
            record=record,
            ballot=ms.ballot,
            cstruct=cstruct,
            post_grant=ms.pending_post_grant,
            new_base=ms.pending_new_base,
            epoch=ms.round_epoch,
            committed_version=max(
                self._local_version(record), *ms.replica_versions.values(), 0
            ),
        )
        if span is not None:
            span.attrs["options"] = sum(1 for _ in cstruct)
        with trace_runtime.under(span):
            for replica in self.placement.replicas(record):
                self.node.send(replica, message)
        self.node.set_timer(
            RECOVERY_TIMEOUT_MS + self._stagger(ms.round_counter + 7),
            self._phase2_timeout,
            record,
            ms.ballot,
        )
        self.node.counters.increment("master.phase2_started")

    def on_phase2b(self, message: MPhase2b, src_id: str) -> None:
        if self.node.fence_stale(message.epoch):
            return
        ms = self._state(message.record)
        versions = ms.replica_versions
        prev = versions.get(src_id)
        if prev is None or message.committed_version > prev:
            versions[src_id] = message.committed_version
        if ms.phase != "phase2" or message.ballot != ms.ballot:
            return
        if ms.round_epoch != self.placement.epoch:
            # The round's Phase2a predates the current configuration;
            # re-establish mastership under the new epoch from Phase 1.
            self.node.counters.increment("reconfig.epoch_round_restarts")
            ms.established = False
            self._start_phase1(message.record)
            return
        if not message.accepted:
            if message.promised is not None and self._abdicate_if_deposed(
                message.record, message.promised
            ):
                return
            self._preempted(message.record, message.promised)
            return
        ms.phase2_replies[src_id] = message
        self._try_decide_phase2(message.record)

    def _try_decide_phase2(self, record: RecordId) -> None:
        ms = self._state(record)
        spec = self.placement.quorums()
        classic_size = spec.classic_size
        replies = ms.phase2_replies
        if len(replies) < classic_size:
            return
        assert ms.phase2_cstruct is not None
        reply_values = list(replies.values())
        decided: Dict[str, OptionStatus] = {}
        undecided: List[str] = []
        for option in ms.phase2_cstruct:
            option_id = option.option_id
            tally: Dict[OptionStatus, int] = {}
            for reply in reply_values:
                cstruct = reply.cstruct
                if cstruct is None:
                    continue
                adopted = cstruct.command(option_id)
                if adopted is not None and adopted.status.decided:
                    tally[adopted.status] = tally.get(adopted.status, 0) + 1
            verdict = None
            for status, count in tally.items():
                if count >= classic_size:
                    verdict = status
                    break
            if verdict is None:
                undecided.append(option_id)
            else:
                decided[option_id] = verdict
        if undecided and len(replies) < spec.n:
            return  # wait for more replies
        if undecided:
            # All replicas replied but no status reached a classic quorum
            # (lagging replicas disagree): catch laggards up to the
            # master's own committed state — version and value must come
            # from the SAME snapshot, or laggards adopt a poisoned pair —
            # and retry the round.
            state = self.node.record_state(record)
            snapshot = state.record.snapshot()
            for replica_id, reply in ms.phase2_replies.items():
                if reply.committed_version < snapshot.version:
                    self.node.send(
                        replica_id,
                        CatchUp(
                            record=record,
                            version=snapshot.version,
                            value=snapshot.value,
                            exists=snapshot.exists,
                            applied_ids=tuple(sorted(state.record.applied_ids)),
                        ),
                    )
            ms.retries += 1
            self.node.counters.increment("master.phase2_retry")
            self._start_phase2(record, ms.phase2_cstruct)
            return
        # Round complete: dispatch outcomes.
        ms.phase = "idle"
        ms.pending_post_grant = None
        ms.pending_new_base = None
        ms.recovery_reason = None
        cstruct = ms.phase2_cstruct
        ms.phase2_cstruct = None
        span = ms.trace_span
        if span is not None:
            span.finish(self.node.now, "decided")
            ms.trace_span = None
            ms.trace_ctx = None
        with trace_runtime.under(span):
            for option in cstruct:
                status = decided[option.option_id]
                ms.outcome_cache[option.option_id] = status
                if status is OptionStatus.ACCEPTED:
                    ms.live[option.option_id] = option.with_status(status)
                else:
                    ms.live.pop(option.option_id, None)
                self._notify(record, option, status)
        self._prune_live(record, ms)
        self.node.counters.increment("master.phase2_decided")
        if ms.migration_notify is not None:
            # The takeover round is decided at a classic quorum: this node
            # now holds the record's ballot and the directory may flip.
            self.node.send(
                ms.migration_notify,
                MastershipTaken(
                    record=record, master_dc=self.node.dc, node_id=self.node.node_id
                ),
            )
            ms.migration_notify = None
            self.node.counters.increment("master.migrations_completed")
        self._pump(record)

    def _prune_live(self, record: RecordId, ms: _MasterRecordState) -> None:
        """Drop live options once no replica can still hold them pending.

        Local execution alone is NOT sufficient: the master's replica may
        have applied the visibility while others have not, and dropping
        the option from the next Phase2a would erase it from their
        cstructs mid-flight.  A physical option is safe to drop only when
        the slowest observed replica has committed past its read version;
        commutative options when the slowest replica has caught up to the
        master's own committed version.
        """
        state = self.node.record_state(record)
        slowest = self._slowest_replica_version(record, ms)
        for option_id in list(ms.live):
            option = ms.live[option_id]
            if option_id in state.rejected:
                del ms.live[option_id]
                continue
            if option.is_commutative:
                if state.is_executed(option_id) and slowest >= state.version:
                    del ms.live[option_id]
            else:
                if option.update.vread < slowest:
                    del ms.live[option_id]

    def _slowest_replica_version(
        self, record: RecordId, ms: _MasterRecordState
    ) -> int:
        """The lowest committed version any replica is known to hold.

        Replicas that have never reported count as version 0, so nothing
        prunes until every replica has checked in at least once.
        """
        return min(
            ms.replica_versions.get(replica, 0)
            for replica in self.placement.replicas(record)
        )

    def _phase2_timeout(self, record: RecordId, ballot: Ballot) -> None:
        ms = self._state(record)
        if ms.phase == "phase2" and ms.ballot == ballot:
            ms.retries += 1
            if ms.phase2_cstruct is not None:
                self._start_phase2(record, ms.phase2_cstruct)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _notify(self, record: RecordId, option: Option, status: OptionStatus) -> None:
        ms = self._state(record)
        waiters = ms.waiters.pop(option.option_id, set())
        outcome = OptionOutcome(
            option_id=option.option_id,
            txid=option.txid,
            record=record,
            status=status,
        )
        # Sorted: waiter sets iterate in hash order, which is salted per
        # process (PYTHONHASHSEED) — and send order decides which jitter
        # draw each message gets, so an unsorted walk here makes whole
        # scenario runs irreproducible across processes.
        for waiter in sorted(waiters):
            self.node.send(waiter, outcome)

    def _inflight(self, ms: _MasterRecordState, option_id: str) -> bool:
        return ms.phase2_cstruct is not None and ms.phase2_cstruct.contains_id(option_id)

    def _local_version(self, record: RecordId) -> int:
        state = self.node.record_state(record)
        return state.version

    def _stagger(self, salt: int) -> float:
        fingerprint = stable_hash(f"{self.node.node_id}:{salt}") % 500
        return float(fingerprint)

    def _abdicate_if_deposed(self, record: RecordId, promised: Ballot) -> bool:
        """Stand down if a mastership migration moved this record away.

        Without this check a deposed master would leapfrog the new
        master's ballot on every nack, and the two would duel for as long
        as stale in-flight proposals keep arriving.  Abdication applies
        only when mastership can actually move — adaptive placement
        migrates it per record, and an elastic membership epoch bump
        re-hashes it wholesale — AND the competing ballot belongs to the
        node routing now points at; a nack from any *other* contender
        (e.g. a failover race while the routed master is dark) still
        leapfrogs, preserving liveness.

        The queue is handed to the new master as ordinary ProposeClassic
        messages; its Phase-1 takeover already carried over any accepted
        options via the replicas' cstructs.
        """
        placement = self.placement
        if not (placement.is_adaptive or placement.is_elastic):
            return False
        new_master = placement.master_node(record)
        if new_master == self.node.node_id or promised.proposer != new_master:
            return False
        ms = self._state(record)
        ms.phase = "idle"
        ms.established = False
        ms.recovery_reason = None
        ms.phase1_replies = {}
        ms.phase2_replies = {}
        if ms.trace_span is not None:
            ms.trace_span.finish(self.node.now, "abdicated")
            ms.trace_span = None
            ms.trace_ctx = None
        cstruct = ms.phase2_cstruct
        ms.phase2_cstruct = None
        ms.pending_post_grant = None
        ms.pending_new_base = None
        forwarded: Dict[str, Option] = {}
        if cstruct is not None:
            for option in cstruct:
                if option.option_id not in ms.outcome_cache:
                    forwarded[option.option_id] = option.with_status(
                        OptionStatus.PENDING
                    )
        for option in ms.queue:
            forwarded.setdefault(option.option_id, option)
        ms.queue = []
        ms.queued_ids = set()
        for option_id, option in forwarded.items():
            # One forward per waiting coordinator keeps every learner's
            # OptionOutcome path alive; the new master dedups by option id.
            # Waiterless options (adopted history) are NOT forwarded: the
            # replicas' cstructs already carry them into the new master's
            # Phase 1.
            for waiter in sorted(ms.waiters.pop(option_id, set())):
                self.node.send(
                    new_master, ProposeClassic(option=option, reply_to=waiter)
                )
        if ms.migration_notify is not None:
            # A takeover we were asked to run lost to the routed master;
            # nothing to report — the directory already points there.
            ms.migration_notify = None
        self.node.counters.increment("master.abdications")
        return True

    def establish_stable_mastership(self, record: RecordId) -> None:
        """Pre-grant a standing classic ballot (the Multi variant's
        "stable master can skip Phase 1" setup).  Called by the cluster
        builder before the simulation starts; acceptors are seeded with the
        matching grant out of band."""
        ms = self._state(record)
        ms.round_counter += 1
        ms.ballot = Ballot(round=ms.round_counter, fast=False, proposer=self.node.node_id)
        ms.established = True
