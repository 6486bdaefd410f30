"""Storage substrate: versioned records, schemas, the placement hash, WAL.

The paper's storage nodes are "significantly simplified" key/value servers
(§2): they hold horizontally partitioned, versioned records plus the Paxos
metadata the protocol needs.  This package supplies the data layer —
protocol state machines live in :mod:`repro.core` and use these stores.
Records are placed on partitions by
:meth:`repro.core.topology.ReplicaMap.partition_of`, a
:func:`~repro.storage.partition.stable_hash` of ``table:key``.
"""

from repro.storage.record import Record, Snapshot
from repro.storage.schema import Constraint, TableSchema
from repro.storage.store import RecordStore, StorageError
from repro.storage.wal import LogEntry, WriteAheadLog

__all__ = [
    "Constraint",
    "LogEntry",
    "Record",
    "RecordStore",
    "Snapshot",
    "StorageError",
    "TableSchema",
    "WriteAheadLog",
]
