"""The quorum-writes protocol (§5.2, "QW").

"The quorum writes protocol (QW) is the standard for most eventually
consistent systems and is implemented by simply sending all updates to all
involved storage nodes then waiting for responses from quorum nodes ...
It is important to note that the quorum writes protocol provides no
isolation, atomicity, or transactional guarantees."

Writes are timestamped and resolved last-writer-wins; deltas apply
unconditionally (no constraints — violating the stock invariant is
*expected* for this baseline, and the consistency checkers demonstrate
it).  Reads use a read-quorum of 1: the local replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Set, Tuple

from repro.core.coordinator import WriteSet
from repro.core.options import (
    CommutativeUpdate,
    PhysicalUpdate,
    RecordId,
    Update,
)
from repro.protocols.client import ClientRole, Tx
from repro.protocols.participant import StorageRole
from repro.transport.base import Future

__all__ = ["QuorumWriteClient", "QuorumWriteStorageNode"]


@dataclass(frozen=True, slots=True)
class QWWrite:
    txid: str
    record: RecordId
    update: Update
    timestamp: float
    writer: str


@dataclass(frozen=True, slots=True)
class QWAck:
    txid: str
    record: RecordId


class QuorumWriteStorageNode(StorageRole):
    """An eventually-consistent replica: apply-on-receipt, LWW registers."""

    reads_counter = "qw.reads"
    is_fast_era = True

    def __init__(self, *wiring: Any, **named: Any) -> None:
        super().__init__(*wiring, **named)
        #: record -> (timestamp, writer) of the last applied full write.
        self._lww: Dict[RecordId, Tuple[float, str]] = {}
        self._applied: Set[str] = set()

    def handle_qw_write(self, message: QWWrite, src_id: str) -> None:
        apply_key = f"{message.txid}:{message.record}"
        if apply_key not in self._applied:
            self._applied.add(apply_key)
            self._apply(message)
        self.counters.increment("qw.writes")
        self.send(src_id, QWAck(txid=message.txid, record=message.record))

    def _apply(self, message: QWWrite) -> None:
        record = self.store.record(message.record.table, message.record.key)
        update = message.update
        if isinstance(update, PhysicalUpdate):
            stamp = (message.timestamp, message.writer)
            current = self._lww.get(message.record)
            if current is not None and current >= stamp:
                return  # an older write loses (last-writer-wins)
            self._lww[message.record] = stamp
            if update.is_delete:
                record.commit_delete()
            else:
                record.commit_value(update.new_value)
        else:
            assert isinstance(update, CommutativeUpdate)
            if not record.exists:
                record.commit_value({})
            for attribute, delta in update.deltas:
                record.commit_delta(attribute, delta)


@dataclass
class _QWTx(Tx):
    acks: Dict[RecordId, Set[str]] = field(default_factory=dict)


class QuorumWriteClient(ClientRole[_QWTx]):
    """The QW-k client: broadcast writes, wait for k acks per record.

    Reads use a read-quorum of 1: the local replica."""

    fast_path = True

    def __init__(self, *wiring: Any, write_quorum: int, **named: Any) -> None:
        super().__init__(*wiring, **named)
        if not 1 <= write_quorum <= self.placement.replication:
            raise ValueError(f"write quorum {write_quorum} out of range")
        self.write_quorum = write_quorum

    def _begin(self, txid: str, writeset: WriteSet, future: Future) -> None:
        tx = _QWTx(txid, future, self.now, writeset.records())
        self._transactions[txid] = tx
        for record, update in writeset.updates.items():
            tx.acks[record] = set()
            message = QWWrite(
                txid=txid,
                record=record,
                update=update,
                timestamp=self.now,
                writer=self.node_id,
            )
            self.broadcast(self.placement.replicas(record), message)

    def handle_qw_ack(self, message: QWAck, src_id: str) -> None:
        tx = self._transactions.get(message.txid)
        if tx is None:
            return
        tx.acks[message.record].add(src_id)
        if all(len(acks) >= self.write_quorum for acks in tx.acks.values()):
            self.finish(tx, True)  # QW never aborts: no guarantees to violate
