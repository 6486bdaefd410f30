"""Two-phase commit over replicated storage (§5.2, "2PC").

"2PC operates in two phases.  In the first phase, a transaction manager
tries to prepare all involved storage nodes to commit the updates.  If all
relevant nodes prepare successfully, then in the second phase the
transaction manager sends a commit to all storage nodes involved;
otherwise it sends an abort.  Note, that 2PC requires all involved storage
nodes to respond and is not resilient to single node failures."

Concretely: prepare acquires a per-record lock and validates the read
version at **every** replica; the decision round releases locks and applies
the update.  The coordinator waits for *all* replicas in both rounds — two
full wide-area round trips to the farthest data center, which is exactly
the latency disadvantage Figure 3/5 shows.

Each round sends one message per (transaction, storage node): the
write-set is grouped by replica set, so a node receives its slice of the
write-set in one ``PrepareRequest`` / ``DecisionMessage`` and answers for
the slice's records in one ``PrepareReply`` / ``DecisionAck``.  Locks,
validation, the WAL and the coordinator's per-(record, replica) tally stay
per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.config import LEARN_TIMEOUT_MS
from repro.core.coordinator import WriteSet
from repro.core.options import RecordId, Update
from repro.protocols.client import ClientRole, Slices, Tx
from repro.protocols.participant import (
    PREPARED,
    LockingStorageRole,
    apply,
    records_of,
)
from repro.transport.base import Future

__all__ = ["TwoPCCoordinator", "TwoPCStorageNode"]


# ----------------------------------------------------------------------
# Messages: one per (transaction, storage node), carrying the node's
# slice of the write-set
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PrepareRequest:
    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]


@dataclass(frozen=True, slots=True)
class PrepareReply:
    """``ok`` holds iff every record of the slice prepared."""

    txid: str
    records: Tuple[RecordId, ...]
    ok: bool


@dataclass(frozen=True, slots=True)
class DecisionMessage:
    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    commit: bool


@dataclass(frozen=True, slots=True)
class DecisionAck:
    txid: str
    records: Tuple[RecordId, ...]


class TwoPCStorageNode(LockingStorageRole):
    """A 2PC participant replica: lock table + versioned store."""

    reads_counter = "twopc.reads"

    # ------------------------------------------------------------------
    # Phase 1: prepare (lock + validate), record by record
    # ------------------------------------------------------------------
    def handle_prepare_request(self, message: PrepareRequest, src_id: str) -> None:
        all_ok = True
        for record, update in message.updates:
            reason = self.prepare(message.txid, record, update)
            self.log_prepare("2pc-prepare", message.txid, reason)
            self.counters.increment("twopc.prepares")
            all_ok = all_ok and reason == PREPARED
        self.send(
            src_id,
            PrepareReply(
                txid=message.txid, records=records_of(message.updates), ok=all_ok
            ),
        )

    # ------------------------------------------------------------------
    # Phase 2: decision
    # ------------------------------------------------------------------
    def handle_decision_message(self, message: DecisionMessage, src_id: str) -> None:
        for record, update in message.updates:
            if not self.release(message.txid, record):
                continue  # a duplicate delivery
            if message.commit:
                # Every replica prepared, so the lock just released kept the
                # record at the version the update read.
                apply(self.store.record(record.table, record.key), update)
            self.wal.append(
                "2pc-decision", waits_on=(), txid=message.txid, commit=message.commit
            )
            self.counters.increment(
                "twopc.commits" if message.commit else "twopc.aborts"
            )
        # Applied: the decision's outcome is in the store, so the
        # prepares logged for it are done.
        self.wal.resolve(message.txid)
        self.send(
            src_id, DecisionAck(txid=message.txid, records=records_of(message.updates))
        )


@dataclass
class _TwoPCTx(Tx):
    slices: Slices
    prepare_replies: Dict[Tuple[RecordId, str], bool] = field(default_factory=dict)
    decision: Optional[bool] = None
    acks: Set[Tuple[RecordId, str]] = field(default_factory=set)


class TwoPCCoordinator(ClientRole[_TwoPCTx]):
    """The client-side transaction manager for 2PC."""

    @property
    def prepare_timeout_ms(self) -> float:
        return 4 * LEARN_TIMEOUT_MS

    def _begin(self, txid: str, writeset: WriteSet, future: Future) -> None:
        tx = _TwoPCTx(
            txid, future, self.now, writeset.records(), slices=self.slices(writeset)
        )
        self._transactions[txid] = tx
        for replicas, updates in tx.slices:
            self.broadcast(replicas, PrepareRequest(txid=txid, updates=updates))
        self.set_timer(self.prepare_timeout_ms, self._prepare_timeout, txid)

    def handle_prepare_reply(self, message: PrepareReply, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is None or tx.decision is not None:
            return
        for record in message.records:
            tx.prepare_replies[(record, src_id)] = message.ok
        if not message.ok:
            self._decide(tx, commit=False)
            return
        expected = len(tx.records) * self.placement.replication
        if len(tx.prepare_replies) == expected and all(tx.prepare_replies.values()):
            self._decide(tx, commit=True)

    def _prepare_timeout(self, txid: str) -> None:
        tx = self._transactions.get(txid)
        if tx is not None and tx.decision is None:
            # A participant is unreachable: 2PC can only abort (and even
            # that needs the participant back to release its lock — the
            # protocol's well-known blocking weakness).
            self._decide(tx, commit=False)
            self.counters.increment("coordinator.prepare_timeouts")

    def _decide(self, tx: _TwoPCTx, commit: bool) -> None:
        tx.decision = commit
        for replicas, updates in tx.slices:
            message = DecisionMessage(txid=tx.txid, updates=updates, commit=commit)
            self.broadcast(replicas, message)
        if not commit:
            # Aborts resolve immediately: the client's answer is final and
            # lock release needs no acknowledgment round.
            self.finish(tx, False)

    def handle_decision_ack(self, message: DecisionAck, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is None:
            return
        for record in message.records:
            tx.acks.add((record, src_id))
        expected = len(tx.records) * self.placement.replication
        if len(tx.acks) == expected:
            self.finish(tx, True)
