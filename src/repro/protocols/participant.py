"""The store-side participant the four baseline protocols share.

§5.2 compares 2PC, quorum writes and Megastore* "using the same
distributed store"; Replicated Commit is "plain 2PC inside each DC".  So
there is one participant, stated once:

* :func:`validate` — would this update be legal against the committed
  state?  (read version still current, schema, escrow against the value
  constraints);
* :func:`apply` — execute a committed update;
* :data:`Slice` / :func:`records_of` — one message's share of a
  write-set (the records one storage node holds) and the records a reply
  to it names;
* :class:`StorageRole` — a replica: the record store and the shared
  ``ReadRequest``/``ReadReply`` vocabulary;
* :class:`LockingStorageRole` — a replica that prepares before it
  applies: per-record locks, the decided set that keeps a reordered
  prepare from stranding a lock, and a write-ahead log.

What a protocol does *around* these — who it asks, how it tallies, in
which order it applies — lives in its own module.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.core.config import MDCCConfig
from repro.core.demarcation import DemarcationLimits, escrow_accepts
from repro.core.messages import ReadReply, ReadRequest
from repro.core.options import (
    CommutativeUpdate,
    PhysicalUpdate,
    RecordId,
    Update,
)
from repro.core.topology import ReplicaMap
from repro.metrics import CounterSet
from repro.storage.record import Record
from repro.storage.store import RecordStore
from repro.storage.wal import WriteAheadLog
from repro.transport.base import Node, Transport

__all__ = [
    "PREPARED",
    "REASONS",
    "Slice",
    "LockingStorageRole",
    "StorageRole",
    "apply",
    "records_of",
    "validate",
    "write_base",
]

#: The verdict of a successful prepare.
PREPARED = "prepared"

#: What one message carries to one storage node: the (record, update)
#: pairs of the write-set that node holds, in write-set order.
Slice = Tuple[Tuple[RecordId, Update], ...]

#: Every reason a participant refuses to prepare (the store-side half of
#: the ``2pc`` / ``repcommit`` abort vocabulary).
REASONS = ("lock-conflict", "stale-read", "constraint", "escrow-limit", "decided")


def validate(store: RecordStore, record: RecordId, update: Update) -> str:
    """:data:`PREPARED` if ``update`` is legal against the committed
    state of ``record``, else the reason it is not."""
    snapshot = store.read(record.table, record.key)
    if isinstance(update, CommutativeUpdate):
        if not snapshot.exists:
            return "stale-read"
        schema = store.schema(record.table)
        for attribute, delta in update.deltas:
            constraint = schema.constraint(attribute)
            if constraint is None:
                continue
            current = snapshot.attribute(attribute, 0)
            if not isinstance(current, (int, float)):
                return "constraint"
            limits = DemarcationLimits(
                lower=constraint.minimum, upper=constraint.maximum
            )
            # Nothing is pending beside this update (the caller holds the
            # record's lock or validates serially), so plain escrow works.
            if not escrow_accepts(float(current), [], delta, limits):
                return "escrow-limit"
        return PREPARED
    # A write and an OCC read-set check (§4.4) assert the same thing: the
    # version the transaction read is still the current one.
    if update.vread != snapshot.version:
        return "stale-read"
    if (
        isinstance(update, PhysicalUpdate)
        and update.new_value is not None  # a delete carries no value
        and not store.schema(record.table).check_value(update.new_value)
    ):
        return "constraint"
    return PREPARED


def apply(stored: Record, update: Update) -> str:
    """Execute a committed ``update`` on ``stored``, unconditionally;
    returns what was done (``applied`` / ``delta`` / ``noop``)."""
    if isinstance(update, PhysicalUpdate):
        if update.new_value is None:  # a delete carries no value
            stored.commit_delete()
        else:
            stored.commit_value(update.new_value)
        return "applied"
    if isinstance(update, CommutativeUpdate):
        for attribute, delta in update.deltas:
            stored.commit_delta(attribute, delta)
        return "delta"
    return "noop"  # a ReadValidation asserted state; nothing to apply


def records_of(updates: Slice) -> Tuple[RecordId, ...]:
    """The records a slice covers, in its order (what a reply names)."""
    return tuple(record for record, _update in updates)


def write_base(update: Update) -> Optional[int]:
    """The version a full-record write replaces; ``None`` for updates that
    apply at any version (deltas commute, a validation changes nothing)."""
    return update.vread if isinstance(update, PhysicalUpdate) else None


class StorageRole(Node):
    """A baseline replica: one record store, read over the same message
    vocabulary as MDCC."""

    #: counter bumped per served read (each protocol names its own).
    reads_counter: str
    #: ``ReadReply.is_fast_era`` / ``.master_hint``: the two per-protocol
    #: values of a read.
    is_fast_era = False
    master_hint = ""

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
        self.store = RecordStore()

    def handle_read_request(self, message: ReadRequest, src_id: str) -> None:
        snapshot = self.store.read(message.table, message.key)
        self.counters.increment(self.reads_counter)
        self.send(
            src_id,
            ReadReply(
                request_id=message.request_id,
                table=message.table,
                key=message.key,
                exists=snapshot.exists,
                value=snapshot.value,
                version=snapshot.version,
                is_fast_era=self.is_fast_era,
                master_hint=self.master_hint,
            ),
        )


class LockingStorageRole(StorageRole):
    """A replica that locks and validates before it applies (2PC, and
    Replicated Commit's 2PC inside each data center)."""

    def __init__(self, *wiring: Any, **named: Any) -> None:
        super().__init__(*wiring, **named)
        self.wal = WriteAheadLog()
        #: record -> txid currently prepared (locked).
        self._locks: Dict[RecordId, str] = {}
        #: (txid, record) whose decision already arrived, for idempotence.
        self._decided: Set[Tuple[str, str]] = set()

    def prepare(self, txid: str, record: RecordId, update: Update) -> str:
        """Lock ``record`` for ``txid`` if ``update`` validates; returns
        :data:`PREPARED` or one of :data:`REASONS`.  Idempotent for the
        lock holder."""
        if (txid, str(record)) in self._decided:
            # The decision overtook this prepare in flight (links reorder).
            # Locking now would strand the lock: nothing is coming to
            # release it.
            return "decided"
        held = self._locks.get(record)
        if held is not None and held != txid:
            return "lock-conflict"
        reason = validate(self.store, record, update)
        if reason == PREPARED:
            self._locks[record] = txid
        return reason

    def release(self, txid: str, record: RecordId) -> bool:
        """Note ``txid``'s decision on ``record`` and drop its lock; False
        when that decision was already seen (a duplicate delivery)."""
        key = (txid, str(record))
        if key in self._decided:
            return False
        self._decided.add(key)
        if self._locks.get(record) == txid:
            del self._locks[record]
        return True
