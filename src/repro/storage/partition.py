"""The placement hash.

"Within a data center, each table is range partitioned by key, and
distributed across several storage nodes" (§5.1).  Runs here hash instead:
:meth:`repro.core.topology.ReplicaMap.partition_of` places a record on
partition ``stable_hash(f"{table}:{key}") % partitions_per_table``.
"""

from __future__ import annotations

import hashlib

__all__ = ["stable_hash"]


#: memoized digests — placement hashes the same record keys on every
#: message, and the key population is bounded by the workload's table size.
_HASH_CACHE: dict = {}


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per run)."""
    cached = _HASH_CACHE.get(key)
    if cached is None:
        cached = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
        _HASH_CACHE[key] = cached
    return cached
