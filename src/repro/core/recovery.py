"""Dangling-transaction recovery (§3.2.3).

An app-server that fails mid-commit leaves a "dangling transaction":
options proposed, possibly learned, but never driven to visibility.
Because every option carries the transaction id and *all primary keys of
the write-set*, any node can finish the job:

1. read the option (and through it the write-set) from a quorum of the
   replicas of any record the transaction touched;
2. for every write-set record, force a definitive decision — "a quorum is
   required to determine what was decided by the Paxos instance", which we
   obtain by asking the record's master to run a recovery (classic) round;
3. commit iff every option is accepted, then send the Visibility messages
   the dead coordinator never sent.

The agent is deterministic and idempotent: several agents may recover the
same transaction concurrently; acceptors deduplicate visibilities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.config import RECOVERY_TIMEOUT_MS, MDCCConfig
from repro.core.messages import (
    OptionOutcome,
    StartRecovery,
    StatusReply,
    StatusRequest,
    Visibility,
)
from repro.core.options import Option, OptionStatus, RecordId
from repro.core.topology import ReplicaMap
from repro.metrics import CounterSet
from repro.trace import runtime as trace_runtime
from repro.transport.base import Future, Node, Transport

__all__ = ["RecoveryAgent"]


@dataclass
class _RecoveryState:
    txid: str
    future: Future
    request_id: int
    #: record -> replies per replica
    replies: Dict[RecordId, Dict[str, StatusReply]] = field(default_factory=dict)
    writeset: Optional[tuple] = None
    options: Dict[RecordId, Option] = field(default_factory=dict)
    decisions: Dict[RecordId, OptionStatus] = field(default_factory=dict)
    escalated: Set[RecordId] = field(default_factory=set)
    probed: Set[RecordId] = field(default_factory=set)
    finished: bool = False
    #: completed retry rounds — rotates the escalation target so a dead
    #: master does not wedge the recovery (same failover order coordinators
    #: use), and bounds the re-probe loop.
    retry_round: int = 0
    #: the retry cap was hit with no verdict; a later recover() call for
    #: the same txid starts over instead of returning the dead future.
    gave_up: bool = False
    #: open recovery-escalation span when tracing is on (else None).
    trace_span: Optional[object] = None


class RecoveryAgent(Node):
    """A node that reconstructs and completes dangling transactions."""

    def __init__(
        self,
        transport: Transport,
        node_id: str,
        dc: str,
        placement: ReplicaMap,
        config: MDCCConfig,
        counters: Optional[CounterSet] = None,
    ) -> None:
        super().__init__(transport, node_id, dc)
        self.placement = placement
        self.config = config
        self.counters = trace_runtime.scoped_counters(
            node_id, counters if counters is not None else CounterSet()
        )
        self.tracer = trace_runtime.current_tracer()
        self._request_seq = itertools.count(1)
        #: recoveries in flight (or given up), by txid and by request id.
        self._by_txid: Dict[str, _RecoveryState] = {}
        self._by_request: Dict[int, _RecoveryState] = {}
        #: finished recoveries: only the resolved future is kept, so a
        #: repeated recover() returns the verdict without a second run.
        self._done: Dict[str, Future] = {}
        #: retry rounds before declaring the quorum unreachable.
        self._max_retry_rounds = 100

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def recover(self, txid: str, hint_record: RecordId) -> Future:
        """Recover ``txid`` given any record it wrote.

        Resolves with True if the transaction was committed, False if it
        was aborted.  Duplicate calls return the in-flight future; a
        recovery that previously gave up (quorum unreachable through the
        whole retry budget) is restarted from scratch.
        """
        done = self._done.get(txid)
        if done is not None:
            return done
        existing = self._by_txid.get(txid)
        if existing is not None and not existing.gave_up:
            return existing.future
        state = _RecoveryState(
            txid=txid,
            future=self.future(),
            request_id=next(self._request_seq),
        )
        self._by_txid[txid] = state
        self._by_request[state.request_id] = state
        if self.tracer.enabled:
            # Parent to the transaction root when this tracer saw it (sim:
            # shared tracer) — else start a top-level span for the trace id
            # derived from the txid (TCP: the coordinator ran elsewhere).
            state.trace_span = self.tracer.start_span(
                "recovery-escalation",
                self.node_id,
                self.now,
                parent=self.tracer.root_ctx(txid),
                txid=txid,
                record=f"{hint_record.table}/{hint_record.key}",
                reason="dangling",
            )
        with trace_runtime.under(state.trace_span):
            self._probe(state, hint_record)
        self.counters.increment("recovery.started")
        self.set_timer(RECOVERY_TIMEOUT_MS, self._retry, state)
        return state.future

    # ------------------------------------------------------------------
    # Status collection
    # ------------------------------------------------------------------
    def _probe(self, state: _RecoveryState, record: RecordId) -> None:
        if record in state.probed:
            return
        state.probed.add(record)
        request = StatusRequest(
            txid=state.txid, record=record, request_id=state.request_id
        )
        self.broadcast(self.placement.replicas(record), request)

    def handle_status_reply(self, message: StatusReply, src_id: str) -> None:
        state = self._by_request.get(message.request_id)
        if state is None or state.finished:
            return
        record_replies = state.replies.setdefault(message.record, {})
        record_replies[src_id] = message
        if message.known and message.option is not None:
            state.options.setdefault(message.record, message.option)
            if state.writeset is None and message.option.writeset:
                state.writeset = message.option.writeset
                for record in state.writeset:
                    self._probe(state, record)
        self._evaluate(state, message.record)

    def _evaluate(self, state: _RecoveryState, record: RecordId) -> None:
        if record in state.decisions or state.finished:
            return
        replies = state.replies.get(record, {})
        spec = self.placement.quorums()
        if len(replies) < spec.classic_size:
            return
        # Any executed replica proves the commit decision for this option.
        if any(reply.executed for reply in replies.values()):
            self._decide(state, record, OptionStatus.ACCEPTED)
            return
        option = state.options.get(record)
        if option is None:
            if len(replies) == spec.n:
                # No replica knows an option for this record: it cannot
                # have been accepted by any quorum, so the transaction
                # cannot have committed.
                self._decide(state, record, OptionStatus.REJECTED)
            return
        # An option exists but its fate is ambiguous: force a definitive
        # decision through the master's classic round.  The target rotates
        # through the failover candidates with each retry round, so a dead
        # or unreachable master cannot wedge the recovery.
        if record not in state.escalated:
            state.escalated.add(record)
            candidates = self.placement.master_candidates(record)
            target = candidates[state.retry_round % len(candidates)]
            self.send(
                target,
                StartRecovery(
                    record=record,
                    reason="timeout",
                    option=option.with_status(OptionStatus.PENDING),
                    reply_to=self.node_id,
                ),
            )

    def handle_option_outcome(self, message: OptionOutcome, src_id: str) -> None:
        state = self._by_txid.get(message.txid)
        if state is None or state.finished:
            return
        self._decide(state, message.record, message.status)

    # ------------------------------------------------------------------
    # Retry loop
    # ------------------------------------------------------------------
    def _retry(self, state: _RecoveryState) -> None:
        """Re-drive lost probes and escalations until the verdict lands.

        Status requests and StartRecovery messages are fire-and-forget;
        on a lossy or partitioned network any of them can vanish, and a
        single-shot agent would wait forever.  Every round re-probes the
        replicas that have not answered and re-arms escalation (acceptors
        and masters deduplicate, so repeats are harmless).  Bounded so an
        unreachable quorum fails the simulation loudly instead of spinning.
        """
        if state.finished:
            return
        state.retry_round += 1
        if state.retry_round > self._max_retry_rounds:
            state.gave_up = True
            if state.trace_span is not None:
                state.trace_span.finish(self.now, "gave-up")
            self.counters.increment("recovery.gave_up")
            return
        # Timer callbacks run with no ambient context; restore the
        # recovery span's so re-driven probes stitch into the trace.
        with trace_runtime.under(state.trace_span):
            # Sorted: `probed` is a set of RecordIds whose iteration order is
            # salted per interpreter (PYTHONHASHSEED), and send order decides
            # which shared-stream jitter draw each message gets — an unsorted
            # walk makes runs irreproducible across processes.
            for record in sorted(state.probed, key=lambda r: (r.table, r.key)):
                if record in state.decisions:
                    continue
                replies = state.replies.get(record, {})
                missing = [
                    replica
                    for replica in self.placement.replicas(record)
                    if replica not in replies
                ]
                if missing:
                    self.broadcast(
                        missing,
                        StatusRequest(
                            txid=state.txid,
                            record=record,
                            request_id=state.request_id,
                        ),
                    )
                state.escalated.discard(record)
                self._evaluate(state, record)
        self.counters.increment("recovery.retries")
        self.set_timer(RECOVERY_TIMEOUT_MS, self._retry, state)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, state: _RecoveryState, record: RecordId, status: OptionStatus) -> None:
        if record in state.decisions:
            return
        state.decisions[record] = status
        if state.writeset is None:
            # Still discovering the write-set; wait for a status reply.
            return
        if set(state.decisions) >= set(state.writeset):
            self._finish(state)

    def _finish(self, state: _RecoveryState) -> None:
        if state.finished:
            return
        state.finished = True
        # What was collected dies with the state; the retry timer that
        # still holds it finds it finished and lets go.  (A recovery that
        # gave up may still finish after a restart replaced it.)
        del self._by_request[state.request_id]
        if self._by_txid.get(state.txid) is state:
            del self._by_txid[state.txid]
        self._done.setdefault(state.txid, state.future)
        committed = all(
            status is OptionStatus.ACCEPTED for status in state.decisions.values()
        )
        # The visibility fan-out belongs to the recovery span, not to
        # whatever message handler happened to deliver the last verdict.
        with trace_runtime.under(state.trace_span):
            for record, option in state.options.items():
                self.broadcast(
                    self.placement.replicas(record),
                    Visibility(option=option, committed=committed),
                )
        if state.trace_span is not None:
            state.trace_span.finish(
                self.now, "committed" if committed else "aborted"
            )
        self.counters.increment(
            "recovery.committed" if committed else "recovery.aborted"
        )
        state.future.try_resolve(committed)
