"""Replicated Commit: Paxos across data centers over per-DC 2PC.

MDCC layers transactions *over* Paxos: every record update is a Paxos
round across data centers.  Replicated Commit (Patterson et al.,
"Serializability, not Serial: Concurrency Control and Availability in
Multi-Datacenter Datastores", arXiv 1208.0270) inverts the layering —
ROADMAP open item 4 calls it the natural second geo-replication design
to stress the protocol abstraction:

* **inside** each data center, a transaction runs plain two-phase commit
  among that DC's storage nodes (locks + read-version validation, one
  LAN round trip);
* **across** data centers, the client acts as Paxos proposer for a
  single value — "did this transaction commit?" — and each DC's 2PC
  outcome is that DC's accept/reject vote.  A majority of DC votes
  decides; the decision is broadcast back to every DC, which applies
  (or releases) its local locks.

So where MDCC pays one wide-area round per *record* (fast path) plus
asynchronous visibility, Replicated Commit pays one wide-area round per
*transaction* (commit request out, vote back, decision out) regardless
of write-set size — and reads pay the majority price instead:
"reads go to a majority of data centers" because a single DC may have
voted no (or missed the apply) for a transaction that nevertheless
committed globally.

Role mapping onto the shared cluster topology:

* the partition-0 storage node of each DC doubles as that DC's **2PC
  coordinator** (any node could; partition 0 is the deterministic pick);
* every storage node is a 2PC **participant** for the records of its
  partition — the same :class:`~repro.protocols.participant.LockingStorageRole`
  2PC uses.  The DC coordinator sends each local participant its slice
  of the write-set in one ``RcPrepare`` (later one ``RcApply``), and the
  participant answers for the slice's records in one ``RcPrepareReply``;
  locks, validation, applies and spans stay per record;
* the app-server client is the cross-DC **proposer**: it fans the
  commit request to all DC coordinators, tallies DC votes to a classic
  majority, and broadcasts the decision.

Causal trace spans: ``rc-paxos-vote`` (DC coordinator, request to vote
cast), ``rc-local-prepare`` (participant lock/validate verdict), and
``rc-commit-apply`` (participant applying a committed update) — all
stitched under the client's root ``transaction`` span via the ambient
message context.

Convergence under faults: a minority DC that was partitioned during the
decision holds stale locks and misses applies.  Applies are
version-guarded with an out-of-order buffer (a later write may arrive
before the one it supersedes), and replicas answer the shared
``RepairProbe``/``CatchUp`` anti-entropy vocabulary, so background
sweeps converge every replica once the partition heals; adopting a
catch-up releases any lock the lost decision stranded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import LEARN_TIMEOUT_MS
from repro.core.coordinator import WriteSet
from repro.core.messages import (
    CatchUp,
    RcApply,
    RcCommitRequest,
    RcDecision,
    RcPrepare,
    RcPrepareReply,
    RcVote,
    ReadReply,
    ReadRequest,
    RepairProbe,
    RepairReply,
)
from repro.core.options import RecordId, Update
from repro.core.topology import by_replica_set
from repro.protocols.client import ClientRole, Tx
from repro.protocols.participant import (
    PREPARED,
    LockingStorageRole,
    Slice,
    apply,
    records_of,
    write_base,
)
from repro.trace import runtime as trace_runtime
from repro.transport.base import Future

__all__ = ["ReplicatedCommitClient", "ReplicatedCommitStorageNode"]


@dataclass
class _DcRound:
    """One transaction's 2PC round inside this data center (coordinator)."""

    txid: str
    reply_to: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    votes: Dict[RecordId, bool] = field(default_factory=dict)
    span: Optional[Any] = None


class ReplicatedCommitStorageNode(LockingStorageRole):
    """A Replicated Commit replica: 2PC participant, and (on the DC's
    partition-0 node) the DC's 2PC coordinator."""

    reads_counter = "repcommit.reads"

    def __init__(self, *wiring: Any, **named: Any) -> None:
        super().__init__(*wiring, **named)
        self.counters = trace_runtime.scoped_counters(self.node_id, self.counters)
        self.tracer = trace_runtime.current_tracer()
        #: committed full-record writes that arrived ahead of the version
        #: they build on: record -> {vread: (txid, update)}, drained as
        #: applies (or catch-ups) advance the record version.
        self._apply_buffer: Dict[RecordId, Dict[int, Tuple[str, Update]]] = {}
        #: txid -> its writes parked in ``_apply_buffer``: its decision is
        #: not in the store (and its WAL entries stay) until they land.
        self._buffered: Dict[str, int] = {}
        #: 2PC rounds this node is coordinating for its DC, by txid.
        self._rounds: Dict[str, _DcRound] = {}

    # ------------------------------------------------------------------
    # DC coordinator: run the local 2PC round, cast the DC's Paxos vote
    # ------------------------------------------------------------------
    def handle_rc_commit_request(self, message: RcCommitRequest, src_id: str) -> None:
        round = _DcRound(
            txid=message.txid, reply_to=message.reply_to, updates=message.updates
        )
        self._rounds[message.txid] = round
        self.counters.increment("repcommit.dc_rounds")
        if self.tracer.enabled:
            round.span = self.tracer.start_span(
                "rc-paxos-vote",
                self.node_id,
                self.now,
                parent=trace_runtime.current_context(),
                txid=message.txid,
                dc=self.dc,
                records=len(message.updates),
            )
        with trace_runtime.under(round.span):
            for participant, updates in self._local_slices(round.updates):
                self.send(
                    participant,
                    RcPrepare(txid=round.txid, updates=updates, reply_to=self.node_id),
                )

    def _local_slices(self, updates: Slice) -> List[Tuple[str, Slice]]:
        """``updates`` grouped by the participant in this DC that holds
        each record, in write-set order."""
        groups = by_replica_set(
            updates, lambda item: (self.placement.replica_in(item[0], self.dc),)
        )
        return [(node, tuple(slice_)) for (node,), slice_ in groups.items()]

    def handle_rc_prepare_reply(self, message: RcPrepareReply, src_id: str) -> None:
        round = self._rounds.get(message.txid)
        if round is None:
            return  # decision (or abort) already superseded this round
        for record in message.records:
            round.votes[record] = message.vote
        if len(round.votes) < len(round.updates):
            return
        accept = all(round.votes.values())
        del self._rounds[message.txid]
        if round.span is not None:
            round.span.finish(self.now, "yes" if accept else "no")
        self.wal.append(
            "rc-vote", waits_on=(round.txid,), txid=round.txid, dc=self.dc, accept=accept
        )
        self.counters.increment(
            "repcommit.dc_votes_yes" if accept else "repcommit.dc_votes_no"
        )
        with trace_runtime.under(round.span):
            self.send(
                round.reply_to,
                RcVote(txid=round.txid, dc=self.dc, accept=accept, voter=self.node_id),
            )

    def handle_rc_decision(self, message: RcDecision, src_id: str) -> None:
        round = self._rounds.pop(message.txid, None)
        if round is not None and round.span is not None:
            # The global decision overtook this DC's own vote (it was not
            # needed for the majority, or the client timed out on us).
            round.span.finish(self.now, "superseded")
        holds_records = False
        for participant, updates in self._local_slices(message.updates):
            holds_records = holds_records or participant == self.node_id
            self.send(
                participant,
                RcApply(txid=message.txid, updates=updates, commit=message.commit),
            )
        if not holds_records:
            # Relaying is all the decision does on this node, so its vote
            # is settled (otherwise the RcApply to itself settles it).
            self.wal.resolve(message.txid)

    # ------------------------------------------------------------------
    # Participant: prepare (lock + validate), apply the decision
    # ------------------------------------------------------------------
    def handle_rc_prepare(self, message: RcPrepare, src_id: str) -> None:
        verdict = PREPARED  # the slice's first refusal, if any
        for record, update in message.updates:
            reason = self.prepare(message.txid, record, update)
            if self.tracer.enabled:
                span = self.tracer.start_span(
                    "rc-local-prepare",
                    self.node_id,
                    self.now,
                    parent=trace_runtime.current_context(),
                    txid=message.txid,
                    record=f"{record.table}/{record.key}",
                )
                span.finish(self.now, reason)
            self.log_prepare("rc-prepare", message.txid, reason)
            self.counters.increment("repcommit.prepares")
            if verdict == PREPARED:
                verdict = reason
        self.send(
            message.reply_to,
            RcPrepareReply(
                txid=message.txid,
                records=records_of(message.updates),
                vote=verdict == PREPARED,
                reason=verdict,
            ),
        )

    def handle_rc_apply(self, message: RcApply, src_id: str) -> None:
        for record, update in message.updates:
            if not self.release(message.txid, record):
                continue  # a duplicate delivery
            self.wal.append(
                "rc-apply",
                waits_on=(message.txid,),
                txid=message.txid,
                commit=message.commit,
            )
            self.counters.increment(
                "repcommit.applies" if message.commit else "repcommit.releases"
            )
            if not message.commit:
                continue
            span = None
            if self.tracer.enabled:
                span = self.tracer.start_span(
                    "rc-commit-apply",
                    self.node_id,
                    self.now,
                    parent=trace_runtime.current_context(),
                    txid=message.txid,
                    record=f"{record.table}/{record.key}",
                )
            outcome = self._apply(message.txid, record, update)
            if span is not None:
                span.finish(self.now, outcome)
        if message.txid not in self._buffered:
            self.wal.resolve(message.txid)

    def _apply(self, txid: str, record: RecordId, update: Update) -> str:
        stored = self.store.record(record.table, record.key)
        base = write_base(update)
        if base is None:
            return apply(stored, update)
        if base == stored.current_version:
            apply(stored, update)
            self._drain_buffer(record)
            return "applied"
        if base > stored.current_version:
            # Committed, but builds on a version this replica has not
            # applied yet (decisions from different clients race on the
            # WAN): park it until the predecessor lands.
            self._apply_buffer.setdefault(record, {})[base] = (txid, update)
            self._buffered[txid] = self._buffered.get(txid, 0) + 1
            self.counters.increment("repcommit.buffered")
            return "buffered"
        return "stale"  # already superseded here (e.g. via catch-up)

    def _drain_buffer(self, record: RecordId) -> None:
        buffered = self._apply_buffer.get(record)
        if not buffered:
            return
        stored = self.store.record(record.table, record.key)
        while True:
            parked = buffered.pop(stored.current_version, None)
            if parked is None:
                break
            apply(stored, parked[1])
            self.counters.increment("repcommit.drained")
            self._unbuffer(parked[0])
        for vread in [v for v in buffered if v < stored.current_version]:
            # Superseded; can never apply.
            self._unbuffer(buffered.pop(vread)[0])
        if not buffered:
            del self._apply_buffer[record]

    def _unbuffer(self, txid: str) -> None:
        """One of ``txid``'s parked writes landed or was superseded; with
        the last, its decision is in the store."""
        left = self._buffered.pop(txid) - 1
        if left:
            self._buffered[txid] = left
        else:
            self.wal.resolve(txid)

    # ------------------------------------------------------------------
    # Anti-entropy (shared RepairProbe/CatchUp vocabulary)
    # ------------------------------------------------------------------
    def handle_repair_probe(self, message: RepairProbe, src_id: str) -> None:
        snapshot = self.store.read(message.record.table, message.record.key)
        stored = self.store.record(message.record.table, message.record.key)
        self.send(
            src_id,
            RepairReply(
                request_id=message.request_id,
                record=message.record,
                exists=snapshot.exists,
                value=snapshot.value,
                version=snapshot.version,
                applied_ids=tuple(sorted(stored.applied_ids)),
            ),
        )

    def handle_catch_up(self, message: CatchUp, src_id: str) -> None:
        stored = self.store.record(message.record.table, message.record.key)
        value = message.value if message.exists else None
        if not stored.catch_up(message.version, value, message.applied_ids):
            return
        self.counters.increment("repcommit.caught_up")
        # The adopted state supersedes whatever decision this replica
        # missed: a lock stranded by a lost RcApply must not block future
        # transactions, and buffered applies below the adopted version
        # can never land.
        self._locks.pop(message.record, None)
        self._drain_buffer(message.record)


@dataclass
class _RcRead:
    """One client read fanned to every data center, resolved at a
    majority of *distinct* replies with the freshest version."""

    table: str
    key: str
    future: Future
    targets: Tuple[str, ...]
    needed: int
    replies: Dict[str, ReadReply] = field(default_factory=dict)
    retries: int = 0


@dataclass
class _RcTx(Tx):
    updates: Tuple[Tuple[RecordId, Update], ...]
    votes: Dict[str, bool] = field(default_factory=dict)
    decision: Optional[bool] = None
    root: Optional[Any] = None


class ReplicatedCommitClient(ClientRole[_RcTx]):
    """The app-server client: cross-DC Paxos proposer + majority reads."""

    #: read retry budget — bounded so a read issued into a partition that
    #: never fully heals still terminates (with the freshest reply seen).
    MAX_READ_RETRIES = 10

    def __init__(self, *wiring: Any, **named: Any) -> None:
        super().__init__(*wiring, **named)
        self.counters = trace_runtime.scoped_counters(self.node_id, self.counters)
        self.tracer = trace_runtime.current_tracer()
        self._reads: Dict[int, _RcRead] = {}
        #: one wide-area round out and back, same budget 2PC gives its
        #: all-replica prepare round.
        self.vote_timeout_ms = 4 * LEARN_TIMEOUT_MS
        self.read_retry_ms = 2 * LEARN_TIMEOUT_MS

    # ------------------------------------------------------------------
    # Reads: majority of data centers (or one pinned replica)
    # ------------------------------------------------------------------
    def read(self, table: str, key: str, dc: Optional[str] = None) -> Future:
        record = RecordId(table, key)
        request_id = next(self._read_seq)
        if dc is not None:
            targets: Tuple[str, ...] = (self.placement.replica_in(record, dc),)
            needed = 1
        else:
            targets = tuple(
                self.placement.replica_in(record, d)
                for d in self.placement.datacenters
            )
            needed = self.placement.quorums().classic_size
        read = _RcRead(
            table=table,
            key=key,
            future=self.future(),
            targets=targets,
            needed=needed,
        )
        self._reads[request_id] = read
        request = ReadRequest(table=table, key=key, request_id=request_id)
        self.broadcast(read.targets, request)
        self.counters.increment("repcommit.majority_reads")
        self.set_timer(self.read_retry_ms, self._read_retry, request_id)
        return read.future

    def handle_read_reply(self, message: ReadReply, src_id: str) -> None:
        read = self._reads.get(message.request_id)
        if read is None:
            return
        read.replies[src_id] = message
        if len(read.replies) < read.needed:
            return
        del self._reads[message.request_id]
        self._settle_read(read)

    def _settle_read(self, read: _RcRead) -> None:
        # "Reading a majority of storage nodes to determine the latest
        # stable version": the freshest reply wins.
        freshest = max(read.replies.values(), key=lambda r: r.version)
        read.future.resolve(freshest)

    def _read_retry(self, request_id: int) -> None:
        read = self._reads.get(request_id)
        if read is None:
            return
        read.retries += 1
        if read.retries > self.MAX_READ_RETRIES:
            del self._reads[request_id]
            if read.replies:
                self._settle_read(read)
            else:
                read.future.resolve(
                    ReadReply(
                        request_id=request_id,
                        table=read.table,
                        key=read.key,
                        exists=False,
                        value=None,
                        version=0,
                        is_fast_era=False,
                        master_hint="",
                    )
                )
            self.counters.increment("repcommit.read_retries_exhausted")
            return
        # Re-ask everyone we have not heard from (drops are silent).
        pending = [t for t in read.targets if t not in read.replies]
        request = ReadRequest(table=read.table, key=read.key, request_id=request_id)
        self.broadcast(pending, request)
        self.counters.increment("repcommit.read_retries")
        self.set_timer(self.read_retry_ms, self._read_retry, request_id)

    # ------------------------------------------------------------------
    # Commit: propose to every DC, tally votes to a classic majority
    # ------------------------------------------------------------------
    def _begin(self, txid: str, writeset: WriteSet, future: Future) -> None:
        tx = _RcTx(
            txid,
            future,
            self.now,
            writeset.records(),
            updates=tuple(writeset.updates.items()),
        )
        self._transactions[txid] = tx
        if self.tracer.enabled:
            tx.root = self.tracer.start_trace(
                txid, self.node_id, self.now, records=len(tx.updates)
            )
        request = RcCommitRequest(
            txid=tx.txid, updates=tx.updates, reply_to=self.node_id
        )
        with trace_runtime.under(tx.root):
            for dc in self.placement.datacenters:
                self.send(self._dc_coordinator(dc), request)
        self.set_timer(self.vote_timeout_ms, self._vote_timeout, txid)

    def _dc_coordinator(self, dc: str) -> str:
        # The DC's partition-0 storage node doubles as its 2PC coordinator.
        return self.placement.storage_node_id(dc, 0)

    def handle_rc_vote(self, message: RcVote, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is None or tx.decision is not None or message.dc in tx.votes:
            return
        tx.votes[message.dc] = message.accept
        majority = self.placement.quorums().classic_size
        total = len(self.placement.datacenters)
        yes = sum(1 for accept in tx.votes.values() if accept)
        outstanding = total - len(tx.votes)
        if yes >= majority:
            self._decide(tx, commit=True, reason="committed")
        elif yes + outstanding < majority:
            self._decide(tx, commit=False, reason="minority")

    def _vote_timeout(self, txid: str) -> None:
        tx = self._transactions.get(txid)
        if tx is not None and tx.decision is None:
            # Unlike 2PC the proposer is not blocked by a straggler DC —
            # but without a majority of votes it can only abort.
            self.counters.increment("coordinator.vote_timeouts")
            self._decide(tx, commit=False, reason="vote-timeout")

    def _decide(self, tx: _RcTx, commit: bool, reason: str) -> None:
        tx.decision = commit
        decision = RcDecision(txid=tx.txid, commit=commit, updates=tx.updates)
        targets = [self._dc_coordinator(dc) for dc in self.placement.datacenters]
        with trace_runtime.under(tx.root):
            self.broadcast(targets, decision)
        if tx.root is not None:
            tx.root.finish(self.now, "committed" if commit else reason)
        self.finish(tx, commit)
