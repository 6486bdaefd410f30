"""The MDCC storage node: acceptor role (Algorithm 3) + hosted masters.

A storage node replicates a set of records (one partition of every table in
its data center), stores their latest committed versions, participates in
the per-record Paxos instances, and — when the placement policy says so —
acts as the master for records whose master data center it lives in.

Handlers map one-to-one onto Algorithm 3's ``ReceiveAcceptorMessage``:

* ``ProposeFast``   → Phase2bFast (lines 78-82): decide & append in the
  current fast ballot, reply to the proposing learner.  In a classic era
  the proposal is *forwarded* to the record's master instead — this is how
  coordinators with stale mode hints are transparently redirected.  A
  ``ProposeFastBatch`` runs the same step per option and answers with one
  ``FastReplyBatch``.
* ``MPhase1a``      → Phase1b (lines 68-71).
* ``MPhase2a``      → Phase2bClassic (lines 72-77).
* ``Visibility``    → ApplyVisibility (lines 100-103), per item of a
  ``VisibilityBatch``.
* ``ReadRequest``   → committed-state read with mode/master hints.
* ``StatusRequest`` → dangling-transaction reconstruction (§3.2.3).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import MDCCConfig
from repro.core.master import MasterRole
from repro.core.messages import (
    CatchUp,
    FastReply,
    FastReplyBatch,
    MPhase1a,
    MPhase1b,
    MPhase2a,
    MPhase2b,
    ProposeClassic,
    ProposeFast,
    ProposeFastBatch,
    ReadReply,
    ReadRequest,
    RepairProbe,
    RepairReply,
    SnapshotAck,
    SnapshotChunk,
    SnapshotRequest,
    StartRecovery,
    StatusReply,
    StatusRequest,
    Visibility,
    VisibilityBatch,
)
from repro.core.options import Option, OptionStatus, RecordId
from repro.core.state import RecordState
from repro.core.topology import ReplicaMap
from repro.metrics import CounterSet
from repro.trace import runtime as trace_runtime
from repro.transport.base import Node, Transport
from repro.storage.store import RecordStore
from repro.storage.wal import WriteAheadLog

__all__ = ["MDCCStorageNode"]


class MDCCStorageNode(Node):
    """One simulated storage server of the MDCC deployment."""

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
        self.store = RecordStore()
        self.wal = WriteAheadLog()
        #: bound once: every RecordState shares this one method object.
        self._wal_resolve = self.wal.resolve
        self.master = MasterRole(self, config)
        self._states: Dict[RecordId, RecordState] = {}
        #: all options ever seen, for status queries and recovery.
        self._option_log: Dict[str, Option] = {}
        #: in-flight snapshot-bootstrap streams this (joining) node receives:
        #: request_id -> {"seqs", "total", "adopted", "wal_cut", "reply_to"}.
        self._bootstrap_streams: Dict[int, Dict[str, object]] = {}
        #: a joining node's records -> the version each was at when its DC
        #: was admitted.  The old configuration may have chosen a value in
        #: those open instances without this node, so its votes there are
        #: uninformed: a Phase 1 must not read them as the votes of a
        #: member that saw the instance (until a classic round informs it).
        self._uninformed: Dict[RecordId, int] = {}
        self._awaiting_admission = (
            placement.membership is not None and dc in placement.joining_datacenters
        )
        if self._awaiting_admission:
            placement.membership.on_resize.append(self._on_resize)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def _on_resize(self) -> None:
        if self._awaiting_admission and self.dc in self.placement.datacenters:
            self._awaiting_admission = False
            self._uninformed = {
                record: state.version for record, state in self._states.items()
            }

    def fence_stale(self, message_epoch: int) -> bool:
        """True (and counted) when a message predates the current epoch."""
        if message_epoch < self.placement.epoch:
            self.counters.increment("reconfig.stale_epoch_dropped")
            return True
        return False

    def record_state(self, record: RecordId) -> RecordState:
        state = self._states.get(record)
        if state is None:
            state = self._states[record] = RecordState(
                record=self.store.record(record.table, record.key),
                schema=self.store.schema(record.table),
                spec=self.placement.quorums(),
                demarcation=self.config.demarcation_enabled,
                on_settled=self._wal_resolve,
            )
            if self.tracer.enabled:
                state.trace_hook = self._demarcation_hook(record)
        return state

    def _demarcation_hook(self, record: RecordId):
        """Attribution at the §3.4.2 decision site (traced runs only):
        an escrow window rejecting a delta becomes a zero-duration
        ``demarcation-check`` span under whatever step evaluated it."""

        def hook(reason: str, attribute: str) -> None:
            ctx = trace_runtime.current_context()
            if ctx is None:
                return  # context-less evaluation (e.g. untraced timer work)
            span = self.tracer.start_span(
                "demarcation-check",
                self.node_id,
                self.now,
                parent=ctx,
                record=f"{record.table}/{record.key}",
                attribute=attribute,
            )
            span.finish(self.now, reason)

        return hook

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def handle_propose_fast(self, message: ProposeFast, src_id: str) -> None:
        reply = self._accept(message.option, message.reply_to, message.epoch)
        if reply is not None:
            self.send(message.reply_to, reply)

    def handle_propose_fast_batch(self, message: ProposeFastBatch, src_id: str) -> None:
        """One transaction's options for this replica set: each decided as
        its own proposal, the votes answered in one message."""
        replies = []
        for option in message.options:
            reply = self._accept(option, message.reply_to, message.epoch)
            if reply is not None:
                replies.append(reply)
        if len(replies) == 1:
            self.send(message.reply_to, replies[0])
        elif replies:
            self.send(message.reply_to, FastReplyBatch(replies=tuple(replies)))

    def _accept(self, option: Option, reply_to: str, epoch: int) -> Optional[FastReply]:
        """Phase2bFast for one option proposed under ``epoch``: the vote to
        send ``reply_to``, or None when there is none to send."""
        if self.fence_stale(epoch):
            # Proposed under an old configuration: accepting it would cast
            # a vote that could complete a quorum of the wrong size.  The
            # coordinator's learn timeout re-drives under the new epoch.
            if self.tracer.enabled:
                ctx = trace_runtime.current_context()
                if ctx is not None:
                    span = self.tracer.start_span(
                        "fast-accept",
                        self.node_id,
                        self.now,
                        parent=ctx,
                        txid=option.txid,
                        epoch=epoch,
                    )
                    span.finish(self.now, "stale-epoch")
            return None
        state = self.record_state(option.record)
        if not state.is_fast or not self._fast_ballots:
            # Classic era: redirect to the master (dedup happens there).
            self.counters.increment("acceptor.forwarded_to_master")
            self.send(
                self.placement.master_node(option.record),
                ProposeClassic(option=option, reply_to=reply_to),
            )
            return None
        # Quorum sizes feed the escrow/demarcation windows the decision
        # below consults: decide under the current epoch's sizes.
        state.spec = self.placement.quorums()
        span = None
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "fast-accept",
                self.node_id,
                self.now,
                parent=trace_runtime.current_context(),
                txid=option.txid,
                record=f"{option.record.table}/{option.record.key}",
                ballot=repr(state.effective_ballot()),
                epoch=epoch,
            )
        # Inside the span, so a demarcation rejection stitches beneath it.
        with trace_runtime.under(span):
            decided = state.accept_fast(option)
        option_id = decided.option_id
        self._option_log[option_id] = decided
        # Logged until its visibility lands — unless that already happened
        # (a late duplicate).
        self.wal.append(
            "option-learned",
            decided,
            waits_on=() if state.settled(option_id) else (option_id,),
        )
        self.counters.increment("acceptor.fast_proposals")
        if span is not None:
            span.finish(
                self.now,
                "accepted" if decided.status is OptionStatus.ACCEPTED else "rejected",
            )
        return FastReply(
            option_id=decided.option_id,
            txid=decided.txid,
            status=decided.status,
            epoch=self.placement.epoch,
        )

    # ------------------------------------------------------------------
    # Classic path (acceptor side)
    # ------------------------------------------------------------------
    def handle_m_phase1a(self, message: MPhase1a, src_id: str) -> None:
        if self.fence_stale(message.epoch):
            # A promise is a vote: granting a stale-epoch Phase1a could
            # establish a master over the old replica set.  The master's
            # Phase-1 timeout restarts the round under the new epoch.
            return
        state = self.record_state(message.record)
        # Never promise below a ballot already accepted at: a lower-ballot
        # master would take the instance over without seeing that vote.
        accepted = state.accepted_ballot
        granted = (accepted is None or not message.ballot < accepted) and (
            state.mastership.grant(message.grant)
        )
        snapshot = state.record.snapshot()
        informed = state.version > self._uninformed.get(message.record, -1)
        self.send(
            src_id,
            MPhase1b(
                record=message.record,
                ballot=message.ballot,
                granted=granted,
                promised=state.promised_ballot(),
                # uninformed votes are reported as none at all
                accepted_ballot=state.accepted_ballot if informed else None,
                cstruct=state.cstruct if informed and len(state.cstruct) else None,
                committed_version=snapshot.version,
                committed_value=snapshot.value,
                applied_ids=tuple(sorted(state.record.applied_ids)),
                epoch=self.placement.epoch,
            ),
        )
        self.counters.increment("acceptor.phase1b")

    def handle_m_phase2a(self, message: MPhase2a, src_id: str) -> None:
        if self.fence_stale(message.epoch):
            return
        state = self.record_state(message.record)
        promised = state.promised_ballot()
        if message.ballot < promised or state.mastership.outlived(
            message.ballot, state.version
        ):
            # A lower ballot — or one whose classic range this replica has
            # already left (after γ instances, say): adopting its cstruct
            # would overwrite the votes of the current, fast instance,
            # which that round never saw, and let a conflicting option be
            # accepted next to one a fast quorum may have chosen.  The
            # master re-runs Phase 1 for the current instance.
            self.send(
                src_id,
                MPhase2b(
                    record=message.record,
                    ballot=message.ballot,
                    accepted=False,
                    cstruct=None,
                    committed_version=state.version,
                    promised=promised,
                    epoch=self.placement.epoch,
                ),
            )
            return
        state.spec = self.placement.quorums()  # as in _accept
        adopted = state.adopt(
            message.cstruct, message.ballot, committed_version=message.committed_version
        )
        for option in adopted:
            self._option_log.setdefault(option.option_id, option)
        # The master's value was made safe by a Phase 1: votes from here on
        # are informed.
        self._uninformed.pop(message.record, None)
        if message.new_base is not None:
            state.refresh_base(message.new_base)
        if message.post_grant is not None:
            state.mastership.grant(message.post_grant)
        options = [o.option_id for o in adopted]
        self.wal.append(
            "classic-adopt",
            waits_on=tuple([o for o in options if not state.settled(o)]),
            record=str(message.record),
            ballot=repr(message.ballot),
            options=options,
        )
        self.counters.increment("acceptor.phase2b_classic")
        self.send(
            src_id,
            MPhase2b(
                record=message.record,
                ballot=message.ballot,
                accepted=True,
                cstruct=adopted,
                committed_version=state.version,
                epoch=self.placement.epoch,
            ),
        )

    # ------------------------------------------------------------------
    # Visibility / catch-up
    # ------------------------------------------------------------------
    def handle_visibility(self, message: Visibility, src_id: str) -> None:
        option = message.option
        option_id = option.option_id
        committed = message.committed
        state = self.record_state(option.record)
        self._option_log.setdefault(option_id, option)
        state.apply_visibility(option, committed)
        # Unsettled only while deferred behind an earlier write or the
        # insert.
        self.wal.append(
            "visibility",
            message,
            waits_on=() if state.settled(option_id) else (option_id,),
        )
        self.counters.increment(
            "acceptor.visibility_commit" if committed else "acceptor.visibility_abort"
        )

    def handle_visibility_batch(self, message: VisibilityBatch, src_id: str) -> None:
        """Unpack a §7 visibility batch: identical to delivering each
        visibility individually, in order."""
        for visibility in message.visibilities:
            self.handle_visibility(visibility, src_id)

    def handle_catch_up(self, message: CatchUp, src_id: str) -> None:
        state = self.record_state(message.record)
        value = message.value if message.exists else None
        if state.catch_up(message.version, value, applied_ids=message.applied_ids):
            self.counters.increment("acceptor.caught_up")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def handle_read_request(self, message: ReadRequest, src_id: str) -> None:
        record = RecordId(message.table, message.key)
        state = self.record_state(record)
        snapshot = state.record.snapshot()
        self.counters.increment("acceptor.reads")
        self.send(
            src_id,
            ReadReply(
                request_id=message.request_id,
                table=message.table,
                key=message.key,
                exists=snapshot.exists,
                value=snapshot.value,
                version=snapshot.version,
                is_fast_era=state.is_fast,
                master_hint=self.placement.master_node(record),
            ),
        )

    def handle_repair_probe(self, message: RepairProbe, src_id: str) -> None:
        """Anti-entropy probe: committed state, the applied-id set and the
        options whose outcome this replica still lacks."""
        state = self.record_state(message.record)
        snapshot = state.record.snapshot()
        self.counters.increment("acceptor.repair_probes")
        self.send(
            src_id,
            RepairReply(
                request_id=message.request_id,
                record=message.record,
                exists=snapshot.exists,
                value=snapshot.value,
                version=snapshot.version,
                applied_ids=tuple(sorted(state.record.applied_ids)),
                unsettled=tuple(state.unsettled_options()),
            ),
        )

    # ------------------------------------------------------------------
    # Dangling-transaction status (§3.2.3)
    # ------------------------------------------------------------------
    def handle_status_request(self, message: StatusRequest, src_id: str) -> None:
        state = self.record_state(message.record)
        option_id = f"{message.txid}:{message.record}"
        option = self._option_log.get(option_id)
        status: Optional[OptionStatus] = None
        executed = state.is_executed(option_id)
        if option is not None:
            if executed:
                status = OptionStatus.ACCEPTED
            elif option_id in state.rejected:
                status = OptionStatus.REJECTED
            else:
                in_cstruct = state.cstruct.command(option_id)
                status = in_cstruct.status if in_cstruct is not None else option.status
        self.send(
            src_id,
            StatusReply(
                request_id=message.request_id,
                txid=message.txid,
                record=message.record,
                known=option is not None,
                status=status,
                executed=executed,
                option=option,
            ),
        )

    # ------------------------------------------------------------------
    # Snapshot bootstrap (elastic membership)
    # ------------------------------------------------------------------
    def handle_snapshot_request(self, message: SnapshotRequest, src_id: str) -> None:
        """Donor side: stream the whole store to a joining replica.

        The stream is cut at a WAL checkpoint — everything at or below
        the cut is inside the snapshot; writes after it reach the joiner
        through anti-entropy before admission.  Chunking keeps each
        message small so the transfer is individually subject to the
        fault model (a partition mid-stream loses chunks and the manager
        rotates donors).
        """
        from repro.reconfig.bootstrap import SNAPSHOT_CHUNK_RECORDS

        cut = self.wal.checkpoint()
        records = [
            (
                table,
                key,
                snapshot.version,
                snapshot.value if snapshot.exists else None,
                applied_ids,
            )
            for table, key, snapshot, applied_ids in self.store.snapshot()
        ]
        chunks = [
            records[i : i + SNAPSHOT_CHUNK_RECORDS]
            for i in range(0, len(records), SNAPSHOT_CHUNK_RECORDS)
        ] or [[]]
        for seq, chunk in enumerate(chunks):
            last = seq == len(chunks) - 1
            self.send(
                message.target,
                SnapshotChunk(
                    request_id=message.request_id,
                    seq=seq,
                    records=tuple(chunk),
                    last=last,
                    wal_cut=cut if last else 0,
                    reply_to=message.reply_to,
                ),
            )
        self.counters.increment("bootstrap.streams_served")
        self.counters.increment("bootstrap.records_streamed", amount=len(records))

    def handle_snapshot_chunk(self, message: SnapshotChunk, src_id: str) -> None:
        """Joiner side: adopt a donor's records via the catch-up rule.

        Adoption is version-guarded and idempotent, so duplicate or
        re-streamed chunks (donor rotation after a timeout) are harmless.
        The ack to the reconfig manager is held until every chunk of the
        stream arrived — chunks can be reordered in flight.
        """
        stream = self._bootstrap_streams.setdefault(
            message.request_id,
            {"seqs": set(), "total": None, "adopted": 0, "wal_cut": 0},
        )
        seqs: set = stream["seqs"]  # type: ignore[assignment]
        if message.seq in seqs:
            return
        seqs.add(message.seq)
        adopted = 0
        for table, key, version, value, applied_ids in message.records:
            state = self.record_state(RecordId(table, key))
            if state.catch_up(version, value, applied_ids=tuple(applied_ids)):
                adopted += 1
        stream["adopted"] = int(stream["adopted"]) + adopted
        if message.last:
            stream["total"] = message.seq + 1
            stream["wal_cut"] = message.wal_cut
        if stream["total"] is not None and len(seqs) == stream["total"]:
            self._bootstrap_streams.pop(message.request_id, None)
            self.wal.append(
                "snapshot-bootstrap",
                source=src_id,
                request_id=message.request_id,
                records=int(stream["adopted"]),
                wal_cut=int(stream["wal_cut"]),
            )
            self.counters.increment("bootstrap.streams_adopted")
            self.send(
                message.reply_to,
                SnapshotAck(
                    request_id=message.request_id,
                    node_id=self.node_id,
                    records_adopted=int(stream["adopted"]),
                    wal_cut=int(stream["wal_cut"]),
                ),
            )

    # ------------------------------------------------------------------
    # Master-role delegation
    # ------------------------------------------------------------------
    def handle_propose_classic(self, message: ProposeClassic, src_id: str) -> None:
        self.master.on_propose(message, src_id)

    def handle_start_recovery(self, message: StartRecovery, src_id: str) -> None:
        self.master.on_start_recovery(message, src_id)

    def handle_m_phase1b(self, message: MPhase1b, src_id: str) -> None:
        self.master.on_phase1b(message, src_id)

    def handle_m_phase2b(self, message: MPhase2b, src_id: str) -> None:
        self.master.on_phase2b(message, src_id)
