"""Megastore* — the paper's simulation of Megastore's replication (§5.2).

The paper could not run Megastore itself and instead simulated its
protocol "as a special configuration of our system":

* all data lives in **one entity group** whose commit log is replicated
  across the five data centers;
* a single **master** orders transactions: every commit occupies a log
  position agreed via master-based (Multi-)Paxos, one position at a time —
  "Megastore only allows that one write transaction is executed at any
  time (all other competing transactions will abort)";
* improved with Paxos-CP [20]: non-conflicting transactions may share /
  immediately follow a log position instead of aborting — we batch
  compatible queued transactions into one position;
* read consistency relaxed to read-committed, and — "playing in favor of
  Megastore*" — all clients and the master are placed in one data center
  (US-West), so every transaction commits with a single round trip from
  the master.

The serialization through one log is what produces the paper's queueing
collapse (17.8 s median at 100 clients, Figure 3): each position costs a
master-to-quorum round trip, and positions are strictly sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.coordinator import WriteSet
from repro.core.options import RecordId, Update
from repro.protocols.client import ClientRole, Tx
from repro.protocols.participant import PREPARED, StorageRole, apply, validate
from repro.transport.base import Future

__all__ = ["MegastoreClient", "MegastoreStorageNode", "MASTER_DC"]

#: The paper places all Megastore* masters (and clients) in US-West.
MASTER_DC = "us-west"

#: How many non-conflicting transactions may share one log position
#: (the Paxos-CP improvement).  1 = unmodified Megastore serialization.
DEFAULT_BATCH = 4


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class MsCommitRequest:
    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    reply_to: str


@dataclass(frozen=True, slots=True)
class MsCommitResult:
    txid: str
    committed: bool


@dataclass(frozen=True, slots=True)
class MsLogAppend:
    position: int
    entries: Tuple[Tuple[str, Tuple[Tuple[RecordId, Update], ...]], ...]


@dataclass(frozen=True, slots=True)
class MsLogAck:
    position: int


@dataclass
class _PendingTx:
    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    reply_to: str


class MegastoreStorageNode(StorageRole):
    """A Megastore* replica: applies the entity group's log in order.

    The replica in :data:`MASTER_DC` additionally runs the master role:
    it owns the log-position counter, validates transactions against the
    committed state, batches compatible ones (Paxos-CP), and replicates
    each position to a classic quorum before acknowledging commits.
    """

    reads_counter = "megastore.reads"

    def __init__(self, *wiring: Any, **named: Any) -> None:
        super().__init__(*wiring, **named)
        self.master_hint = self.placement.storage_node_id(MASTER_DC, 0)
        # Replica state: the log and the next position to apply.
        self._log: Dict[int, MsLogAppend] = {}
        self._applied_through = -1
        # Master state (only used on the MASTER_DC replica).
        self._queue: List[_PendingTx] = []
        self._next_position = 0
        self._inflight: Optional[Tuple[int, List[_PendingTx]]] = None
        self._acks: Set[str] = set()

    # ------------------------------------------------------------------
    # Master: enqueue, validate, batch, replicate
    # ------------------------------------------------------------------
    @property
    def is_master(self) -> bool:
        return self.dc == MASTER_DC

    def handle_ms_commit_request(self, message: MsCommitRequest, src_id: str) -> None:
        if not self.is_master:
            # Forward to the master replica of the entity group.
            self.send(self.master_hint, message)
            return
        self._queue.append(
            _PendingTx(
                txid=message.txid, updates=message.updates, reply_to=message.reply_to
            )
        )
        self._pump()

    def _pump(self) -> None:
        if self._inflight is not None or not self._queue:
            return
        batch: List[_PendingTx] = []
        touched: Set[RecordId] = set()
        remaining: List[_PendingTx] = []
        for pending in self._queue:
            if len(batch) >= DEFAULT_BATCH:
                remaining.append(pending)
                continue
            records = {record for record, _ in pending.updates}
            if records & touched:
                # Conflicts with the batch: waits for a subsequent position
                # (the Paxos-CP improvement; plain Megastore would abort it).
                remaining.append(pending)
                continue
            # Write-write conflict check against the master's committed state.
            if any(
                validate(self.store, record, update) != PREPARED
                for record, update in pending.updates
            ):
                self.send(
                    pending.reply_to,
                    MsCommitResult(txid=pending.txid, committed=False),
                )
                self.counters.increment("megastore.validation_aborts")
                continue
            batch.append(pending)
            touched |= records
        self._queue = remaining
        if not batch:
            # Nothing is left queued either: a transaction is only deferred
            # for conflicting with, or overflowing, a non-empty batch.
            return
        position = self._next_position
        self._next_position += 1
        self._inflight = (position, batch)
        self._acks = set()
        message = MsLogAppend(
            position=position,
            entries=tuple((tx.txid, tx.updates) for tx in batch),
        )
        self.broadcast(
            [
                self.placement.storage_node_id(dc, 0)
                for dc in self.placement.datacenters
            ],
            message,
        )
        self.counters.increment("megastore.positions")

    def handle_ms_log_ack(self, message: MsLogAck, src_id: str) -> None:
        if self._inflight is None or self._inflight[0] != message.position:
            return
        self._acks.add(src_id)
        quorum = self.placement.quorums().classic_size
        if len(self._acks) >= quorum:
            position, batch = self._inflight
            self._inflight = None
            for tx in batch:
                self.send(tx.reply_to, MsCommitResult(txid=tx.txid, committed=True))
            self.counters.increment("megastore.committed_batches")
            self._pump()

    # ------------------------------------------------------------------
    # Replica: ordered log application
    # ------------------------------------------------------------------
    def handle_ms_log_append(self, message: MsLogAppend, src_id: str) -> None:
        self._log[message.position] = message
        self._drain_log()
        self.send(src_id, MsLogAck(position=message.position))

    def _drain_log(self) -> None:
        while self._applied_through + 1 in self._log:
            entry = self._log[self._applied_through + 1]
            for _txid, updates in entry.entries:
                for record, update in updates:
                    apply(self.store.record(record.table, record.key), update)
            self._applied_through += 1


class MegastoreClient(ClientRole[Tx]):
    """A Megastore* app server (placed in US-West by the evaluation).

    Reads are read-committed at the local replica — relaxed as in the
    paper."""

    def _begin(self, txid: str, writeset: WriteSet, future: Future) -> None:
        self._transactions[txid] = Tx(txid, future, self.now, writeset.records())
        updates = tuple(sorted(writeset.updates.items()))
        master = self.placement.storage_node_id(MASTER_DC, 0)
        self.send(
            master,
            MsCommitRequest(txid=txid, updates=updates, reply_to=self.node_id),
        )

    def handle_ms_commit_result(self, message: MsCommitResult, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is not None:
            self.finish(tx, message.committed)
