"""The client surface the four baseline protocols share.

§5.2's baselines are "accessed by the same clients": an app server reads
one replica, hands a write-set to ``commit`` and learns a
:class:`~repro.core.coordinator.TransactionOutcome`.  :class:`ClientRole`
is that surface; a protocol supplies :meth:`ClientRole._begin` (whom it
asks) and its reply handlers (how it tallies), and calls
:meth:`ClientRole.finish` once it knows the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Generic, Optional, Tuple, TypeVar

from repro.core.config import MDCCConfig
from repro.core.coordinator import TransactionOutcome, WriteSet
from repro.core.messages import ReadReply, ReadRequest
from repro.core.options import OptionStatus, RecordId
from repro.core.topology import ReplicaMap
from repro.metrics import CounterSet
from repro.transport.base import Future, Node, Transport

__all__ = ["ClientRole", "Tx"]


@dataclass
class Tx:
    """One in-flight transaction; protocols extend it with their tally."""

    txid: str
    future: Future
    started_at: float
    records: Tuple[RecordId, ...]


TxT = TypeVar("TxT", bound=Tx)


class ClientRole(Node, Generic[TxT]):
    """A baseline app server: single-replica reads, txid allocation, the
    in-flight table and the outcome every commit path resolves with."""

    #: what ``TransactionOutcome.fast_path`` reports for this protocol.
    fast_path = False

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
        self.counters = counters if counters is not None else CounterSet()
        self._transactions: Dict[str, TxT] = {}
        self._txid_seq = itertools.count(1)
        self._read_seq = itertools.count(1)
        self._pending_reads: Dict[int, Future] = {}

    # ------------------------------------------------------------------
    # Reads: the replica in the client's (or the named) data center
    # ------------------------------------------------------------------
    def read(self, table: str, key: str, dc: Optional[str] = None) -> Future:
        request_id = next(self._read_seq)
        future = self.future()
        self._pending_reads[request_id] = future
        replica = self.placement.replica_in(RecordId(table, key), dc or self.dc)
        self.send(replica, ReadRequest(table=table, key=key, request_id=request_id))
        return future

    def handle_read_reply(self, message: ReadReply, src_id: str) -> None:
        future = self._pending_reads.pop(message.request_id, None)
        if future is not None:
            future.try_resolve(message)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, writeset: WriteSet, txid: Optional[str] = None) -> Future:
        txid = txid or f"{self.node_id}-tx{next(self._txid_seq)}"
        future = self.future()
        if not writeset:
            # Read-only: nothing to ask anyone.
            future.resolve(self.outcome(Tx(txid, future, self.now, ()), True))
            return future
        self._begin(txid, writeset, future)
        self.counters.increment("coordinator.transactions")
        return future

    def _begin(self, txid: str, writeset: WriteSet, future: Future) -> None:
        """Register the transaction in ``_transactions`` and send its
        first round."""
        raise NotImplementedError

    def outcome(self, tx: Tx, committed: bool) -> TransactionOutcome:
        status = OptionStatus.ACCEPTED if committed else OptionStatus.REJECTED
        return TransactionOutcome(
            txid=tx.txid,
            committed=committed,
            started_at=tx.started_at,
            decided_at=self.now,
            statuses={str(record): status for record in tx.records},
            fast_path=self.fast_path,
        )

    def finish(self, tx: TxT, committed: bool) -> None:
        """The transaction is decided: forget it and tell the application."""
        self.counters.increment(
            "coordinator.commits" if committed else "coordinator.aborts"
        )
        del self._transactions[tx.txid]
        tx.future.resolve(self.outcome(tx, committed))
