"""The app-server transaction manager (Algorithm 1).

The DB library is stateless; its commit logic lives here.  A coordinator

1. sends proposals for every update in the transaction's write-set
   (``SendProposal``, lines 9-13).  Under ``mdcc`` / ``fast`` they go
   straight to the storage nodes, one message per replica set carrying
   every option whose record it replicates; a replica whose record is in
   a classic era relays its option to the record's master.  Only under
   ``multi`` (classic ballots only) does the coordinator itself send one
   ``ProposeClassic`` per option to the record's master;
2. learns each option: a fast quorum of matching acceptor decisions, or an
   ``OptionOutcome`` from the master after a collision (``Learn``, lines
   14-26);
3. is **not allowed to abort a proposed transaction** — the outcome is
   fully determined by the learned options (§3.2.1), which is what makes
   single-round-trip commits safe;
4. commits iff every option is learned accepted, then asynchronously sends
   ``Visibility`` messages to execute the options (lines 5-8), grouped per
   replica set the same way.

Collisions (no fast quorum can agree) and timeouts escalate to the master
via ``StartRecovery``; rejected *commutative* options additionally trigger
a demarcation base refresh (lines 24-26).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import LEARN_TIMEOUT_MS, RECOVERY_TIMEOUT_MS, MDCCConfig
from repro.core.messages import (
    FastReply,
    FastReplyBatch,
    OptionOutcome,
    ProposeClassic,
    ProposeFast,
    ProposeFastBatch,
    ReadReply,
    ReadRequest,
    StartRecovery,
    Visibility,
    VisibilityBatch,
)
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
    Update,
)
from repro.core.topology import ReplicaMap, by_replica_set
from repro.metrics import CounterSet
from repro.trace import runtime as trace_runtime
from repro.transport.base import Future, Node, Transport

__all__ = ["MDCCCoordinator", "TransactionOutcome", "WriteSet"]


class WriteSet:
    """A transaction's buffered updates, keyed by record.

    Built by the DB library session during transaction execution and
    handed to :meth:`MDCCCoordinator.commit` at commit time ("transactions
    collect a write-set of records at the end of the transaction",
    §3.2.1).  At most one update per record.
    """

    def __init__(self) -> None:
        self._updates: Dict[RecordId, Update] = {}

    def put(self, table: str, key: str, vread: int, value: Dict[str, object]) -> None:
        """A version-guarded full write (update or insert when vread=0)."""
        self._set(RecordId(table, key), PhysicalUpdate(vread=vread, new_value=dict(value)))

    def delete(self, table: str, key: str, vread: int) -> None:
        self._set(
            RecordId(table, key),
            PhysicalUpdate(vread=vread, new_value=None, is_delete=True),
        )

    def add_delta(self, table: str, key: str, **deltas: float) -> None:
        """A commutative update, merging with an existing delta if present."""
        record = RecordId(table, key)
        existing = self._updates.get(record)
        if existing is None:
            self._updates[record] = CommutativeUpdate.of(**deltas)
            return
        if not isinstance(existing, CommutativeUpdate):
            raise ValueError(
                f"record {record} already has a physical update in this transaction"
            )
        merged = {name: delta for name, delta in existing.deltas}
        for name, delta in deltas.items():
            merged[name] = merged.get(name, 0.0) + delta
        self._updates[record] = CommutativeUpdate.of(**merged)

    def validate_read(self, table: str, key: str, vread: int) -> None:
        """An OCC read-set assertion (§4.4): commit only if (table, key)
        is still at version ``vread``.

        A no-op when the record already carries an update — every update
        type subsumes the read check (physical updates guard on vread;
        commutative deltas never read).
        """
        record = RecordId(table, key)
        if record in self._updates:
            return
        self._updates[record] = ReadValidation(vread=vread)

    def _set(self, record: RecordId, update: Update) -> None:
        if record in self._updates:
            raise ValueError(f"duplicate update for record {record} in one transaction")
        self._updates[record] = update

    @property
    def updates(self) -> Dict[RecordId, Update]:
        return dict(self._updates)

    def records(self) -> Tuple[RecordId, ...]:
        return tuple(sorted(self._updates))

    def __len__(self) -> int:
        return len(self._updates)

    def __bool__(self) -> bool:
        return bool(self._updates)


@dataclass(frozen=True)
class TransactionOutcome:
    """What the application learns about its transaction."""

    txid: str
    committed: bool
    started_at: float
    decided_at: float
    statuses: Dict[str, OptionStatus]
    fast_path: bool  # every option learned via fast quorum (no master round)

    @property
    def latency_ms(self) -> float:
        return self.decided_at - self.started_at


@dataclass
class _TxState:
    txid: str
    options: Dict[str, Option]
    future: Future
    started_at: float
    tallies: Dict[str, Dict[str, OptionStatus]] = field(default_factory=dict)
    #: membership epoch each option's fast tally was collected under; a
    #: bump wipes the tally so no vote straddles two configurations.
    tally_epochs: Dict[str, int] = field(default_factory=dict)
    learned: Dict[str, OptionStatus] = field(default_factory=dict)
    learned_via_master: bool = False
    recovery_round: int = 0
    recovery_sent: Dict[str, int] = field(default_factory=dict)
    finished: bool = False


class MDCCCoordinator(Node):
    """An app-server node hosting the DB library's commit protocol."""

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
        self._fast_ballots = config.fast_ballots_enabled
        self.counters = trace_runtime.scoped_counters(
            node_id, counters if counters is not None else CounterSet()
        )
        self.tracer = trace_runtime.current_tracer()
        #: txid -> open root span (traced runs only; _TxState has slots-free
        #: fields fixed by the dataclass, so spans live here).
        self._tx_spans: Dict[str, object] = {}
        self._transactions: Dict[str, _TxState] = {}
        self._txid_seq = itertools.count(1)
        self._read_seq = itertools.count(1)
        self._pending_reads: Dict[int, Tuple[Future, ReadRequest, int]] = {}
        self.read_timeout_ms = 4 * LEARN_TIMEOUT_MS
        #: visibility batching (§7): destination -> buffered visibilities.
        self._visibility_buffer: Dict[str, List[Visibility]] = {}
        self._visibility_flush_scheduled = False

    def _home_dc(self) -> str:
        """This node's DC, or the first active DC once its own has been
        decommissioned (clients survive their data center's retirement —
        reads and recovery fail over to the remaining members)."""
        datacenters = self.placement.datacenters
        return self.dc if self.dc in datacenters else datacenters[0]

    # ------------------------------------------------------------------
    # Reads (the local replica unless ``dc`` pins another)
    # ------------------------------------------------------------------
    def read(self, table: str, key: str, dc: Optional[str] = None) -> Future:
        """Read the committed state of (table, key) from one replica.

        Resolves with the :class:`~repro.core.messages.ReadReply`.  Fails
        over to the next data center if the replica does not answer.
        """
        request_id = next(self._read_seq)
        request = ReadRequest(table=table, key=key, request_id=request_id)
        future = self.future()
        self._pending_reads[request_id] = (future, request, 0)
        self._send_read(request, dc or self._home_dc())
        return future

    def _send_read(self, request: ReadRequest, dc: str) -> None:
        record = RecordId(request.table, request.key)
        replica = self.placement.replica_in(record, dc)
        self.send(replica, request)
        self.set_timer(self.read_timeout_ms, self._read_timeout, request.request_id, dc)

    def _read_timeout(self, request_id: int, tried_dc: str) -> None:
        entry = self._pending_reads.get(request_id)
        if entry is None:
            return
        future, request, attempt = entry
        datacenters = self.placement.datacenters
        if tried_dc in datacenters:
            next_dc = datacenters[(datacenters.index(tried_dc) + 1) % len(datacenters)]
        else:
            # The DC we tried was decommissioned while the read was in
            # flight; restart the rotation from the current membership.
            next_dc = datacenters[attempt % len(datacenters)]
        self._pending_reads[request_id] = (future, request, attempt + 1)
        if attempt + 1 < 2 * len(datacenters):
            self._send_read(request, next_dc)

    def handle_read_reply(self, message: ReadReply, src_id: str) -> None:
        entry = self._pending_reads.pop(message.request_id, None)
        if entry is None:
            return  # late duplicate after failover
        future, _request, _attempt = entry
        future.try_resolve(message)

    # ------------------------------------------------------------------
    # Commit (Algorithm 1, TransactionStart)
    # ------------------------------------------------------------------
    def next_txid(self) -> str:
        return f"{self.node_id}-tx{next(self._txid_seq)}"

    def commit(self, writeset: WriteSet, txid: Optional[str] = None) -> Future:
        """Run the commit protocol; resolves with a TransactionOutcome."""
        txid = txid or self.next_txid()
        future = self.future()
        if not writeset:
            # Read-only transaction: nothing to agree on.
            outcome = TransactionOutcome(
                txid=txid,
                committed=True,
                started_at=self.now,
                decided_at=self.now,
                statuses={},
                fast_path=True,
            )
            self.counters.increment("coordinator.readonly_commits")
            future.resolve(outcome)
            return future

        records = writeset.records()
        options = {}
        for record, update in writeset.updates.items():
            if not isinstance(update, ReadValidation):
                # Adaptive placement signal: this DC wrote this record.
                self.placement.note_write(record, self.dc, self.now)
            option = Option(
                txid=txid,
                record=record,
                update=update,
                writeset=records,
                status=OptionStatus.PENDING,
            )
            options[option.option_id] = option
        tx = _TxState(
            txid=txid,
            options=options,
            future=future,
            started_at=self.now,
        )
        self._transactions[txid] = tx
        root = None
        if self.tracer.enabled:
            root = self._tx_spans[txid] = self.tracer.start_trace(
                txid, self.node_id, self.now, records=len(records)
            )
        with trace_runtime.under(root):
            if self._fast_ballots:
                self._propose_fast(tx)
            else:
                for option in options.values():
                    self._propose_classic(tx, option)
        self.set_timer(LEARN_TIMEOUT_MS, self._learn_timeout, txid)
        self.counters.increment("coordinator.transactions")
        return future

    def _propose_fast(self, tx: _TxState) -> None:
        """One message per replica set: the set's options batched, a lone
        option bare."""
        epoch = self.placement.epoch
        replicas_of = self.placement.replicas
        for replicas, options in by_replica_set(
            tx.options.values(), lambda option: replicas_of(option.record)
        ).items():
            if len(options) == 1:
                message = ProposeFast(option=options[0], reply_to=self.node_id, epoch=epoch)
            else:
                message = ProposeFastBatch(
                    options=tuple(options), reply_to=self.node_id, epoch=epoch
                )
            self.broadcast(replicas, message)
        self.counters.increment("coordinator.fast_proposals", amount=len(tx.options))

    def _propose_classic(self, tx: _TxState, option: Option) -> None:
        master = self.placement.master_node(option.record)
        self.send(master, ProposeClassic(option=option, reply_to=self.node_id))
        tx.learned_via_master = True
        self.counters.increment("coordinator.classic_proposals")
        # Figure-7 locality observability: was the master local to us?
        if self.placement.master_dc(option.record) == self.dc:
            self.counters.increment("coordinator.local_master_proposals")
        else:
            self.counters.increment("coordinator.remote_master_proposals")

    # ------------------------------------------------------------------
    # Learning (Algorithm 1, Learn)
    # ------------------------------------------------------------------
    def handle_fast_reply(self, message: FastReply, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is None or tx.finished or message.option_id in tx.learned:
            return
        epoch = self.placement.epoch
        if message.epoch < epoch:
            # A vote cast under the previous configuration: dropping it is
            # what keeps a fast quorum from straddling a resize.
            self.counters.increment("reconfig.stale_epoch_dropped")
            if self.tracer.enabled:
                root = self._tx_spans.get(tx.txid)
                if root is not None:
                    root.event(
                        self.now,
                        "stale-epoch",
                        option_id=message.option_id,
                        vote_epoch=message.epoch,
                        epoch=epoch,
                    )
            return
        tally = tx.tallies.get(message.option_id)
        if tally is None:
            tally = tx.tallies[message.option_id] = {}
        if tx.tally_epochs.get(message.option_id, epoch) != epoch:
            # Votes gathered before the bump are void; start the tally
            # over under the new epoch (stragglers re-fill it, or the
            # learn timeout escalates to the master).
            tally.clear()
        tx.tally_epochs[message.option_id] = epoch
        tally[src_id] = message.status
        accepted = 0
        rejected = 0
        for status in tally.values():
            if status is OptionStatus.ACCEPTED:
                accepted += 1
            elif status is OptionStatus.REJECTED:
                rejected += 1
        spec = self.placement.quorums()
        if accepted >= spec.fast_size:
            self._learn(tx, message.option_id, OptionStatus.ACCEPTED)
        elif rejected >= spec.fast_size:
            self._learn(tx, message.option_id, OptionStatus.REJECTED)
        elif spec.fast_unreachable(
            accepted, len(tally)
        ) and spec.fast_unreachable(rejected, len(tally)):
            # Neither outcome can reach a fast quorum: a collision.
            self._escalate(tx, message.option_id, "collision")

    def handle_fast_reply_batch(self, message: FastReplyBatch, src_id: str) -> None:
        for reply in message.replies:
            self.handle_fast_reply(reply, src_id)

    def handle_option_outcome(self, message: OptionOutcome, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is None or tx.finished or message.option_id in tx.learned:
            return
        tx.learned_via_master = True
        self._learn(tx, message.option_id, message.status)

    def _learn(self, tx: _TxState, option_id: str, status: OptionStatus) -> None:
        tx.learned[option_id] = status
        option = tx.options[option_id]
        if (
            status is OptionStatus.REJECTED
            and option.is_commutative
            and self._fast_ballots
        ):
            # Lines 24-26: a rejected commutative option during a fast
            # ballot signals a demarcation limit hit — refresh the base.
            self._send_recovery(tx, option, "commutative-limit")
            self.counters.increment("coordinator.limit_recoveries")
        if len(tx.learned) == len(tx.options):
            self._finish(tx)

    def _escalate(self, tx: _TxState, option_id: str, reason: str) -> None:
        if tx.recovery_sent.get(option_id, -1) >= tx.recovery_round:
            return
        tx.recovery_sent[option_id] = tx.recovery_round
        option = tx.options[option_id]
        self._send_recovery(tx, option, reason)
        self.counters.increment("coordinator.collisions")

    def _send_recovery(self, tx: _TxState, option: Option, reason: str) -> None:
        candidates = self.placement.master_candidates(option.record)
        target = candidates[tx.recovery_round % len(candidates)]
        message = StartRecovery(
            record=option.record,
            reason=reason,
            option=option,
            reply_to=self.node_id,
        )
        span = None
        if self.tracer.enabled:
            # Slow-path attribution at the decision site: the reason the
            # fast path was abandoned (collision / timeout /
            # commutative-limit) lands on the transaction's root span, and
            # the escalation itself becomes a span so the master's
            # phase1-takeover stitches under it.
            root = self._tx_spans.get(tx.txid)
            span = self.tracer.start_span(
                "recovery-escalation",
                self.node_id,
                self.now,
                parent=root.ctx if root is not None else None,
                txid=tx.txid,
                reason=reason,
                target=target,
                record=f"{option.record.table}/{option.record.key}",
            )
            if root is not None:
                root.event(self.now, reason, option_id=option.option_id)
        with trace_runtime.under(span):
            self.send(target, message)
        if span is not None:
            span.finish(self.now, "sent")

    def _learn_timeout(self, txid: str) -> None:
        tx = self._transactions.get(txid)
        if tx is None or tx.finished:
            return
        tx.recovery_round += 1
        for option_id, option in tx.options.items():
            if option_id not in tx.learned:
                tx.recovery_sent[option_id] = tx.recovery_round
                self._send_recovery(tx, option, "timeout")
                self.counters.increment("coordinator.timeout_recoveries")
        self.set_timer(RECOVERY_TIMEOUT_MS, self._learn_timeout, txid)

    # ------------------------------------------------------------------
    # Outcome & visibility (Algorithm 1, lines 5-8)
    # ------------------------------------------------------------------
    def _finish(self, tx: _TxState) -> None:
        if tx.finished:
            return
        tx.finished = True
        committed = all(
            status is OptionStatus.ACCEPTED for status in tx.learned.values()
        )
        root = fanout = None
        if self.tracer.enabled:
            root = self._tx_spans.pop(tx.txid, None)
            fanout = self.tracer.start_span(
                "visibility-fanout",
                self.node_id,
                self.now,
                parent=root.ctx if root is not None else None,
                txid=tx.txid,
                options=len(tx.options),
                committed=committed,
            )
        with trace_runtime.under(fanout):
            # Repair scope, not quorum scope: joining replicas receive
            # visibilities too, so a bootstrapping DC tracks live commits
            # instead of deferring everything to the catch-up sweeps.
            repair_scope = self.placement.replicas_for_repair
            for replicas, options in by_replica_set(
                tx.options.values(), lambda option: repair_scope(option.record)
            ).items():
                self._send_visibilities(
                    replicas,
                    [Visibility(option=option, committed=committed) for option in options],
                )
        if fanout is not None:
            fanout.finish(self.now, "sent")
            if root is not None:
                root.attrs["fast_path"] = not tx.learned_via_master
                root.finish(self.now, "committed" if committed else "aborted")
            trace_runtime.record_latency(
                self.node_id, self.now - tx.started_at, tx.started_at
            )
        outcome = TransactionOutcome(
            txid=tx.txid,
            committed=committed,
            started_at=tx.started_at,
            decided_at=self.now,
            statuses=dict(tx.learned),
            fast_path=not tx.learned_via_master,
        )
        self.counters.increment(
            "coordinator.commits" if committed else "coordinator.aborts"
        )
        if committed and not tx.learned_via_master:
            self.counters.increment("coordinator.fast_commits")
        del self._transactions[tx.txid]
        tx.future.resolve(outcome)

    # ------------------------------------------------------------------
    # Visibility batching (§7's message-overhead reduction)
    # ------------------------------------------------------------------
    def _send_visibilities(
        self, replicas: Tuple[str, ...], visibilities: List[Visibility]
    ) -> None:
        """One transaction's visibilities for one replica set: one message
        now, or — with a batching window — buffered per destination with
        other transactions' until the window closes."""
        if self.config.visibility_batch_ms <= 0:
            if len(visibilities) == 1:
                self.broadcast(replicas, visibilities[0])
            else:
                self.broadcast(replicas, VisibilityBatch(visibilities=tuple(visibilities)))
            return
        for replica in replicas:
            self._visibility_buffer.setdefault(replica, []).extend(visibilities)
        if not self._visibility_flush_scheduled:
            self._visibility_flush_scheduled = True
            self.set_timer(self.config.visibility_batch_ms, self._flush_visibilities)

    def _flush_visibilities(self) -> None:
        self._visibility_flush_scheduled = False
        buffered, self._visibility_buffer = self._visibility_buffer, {}
        for replica, visibilities in buffered.items():
            if len(visibilities) == 1:
                self.send(replica, visibilities[0])
            else:
                self.send(replica, VisibilityBatch(visibilities=tuple(visibilities)))
                self.counters.increment(
                    "coordinator.visibility_batched", amount=len(visibilities) - 1
                )
