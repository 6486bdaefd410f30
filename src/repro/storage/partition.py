"""Key partitioning.

"Within a data center, each table is range partitioned by key, and
distributed across several storage nodes" (§5.1).  Runs here hash instead:
:meth:`repro.core.topology.ReplicaMap.partition_of` places a record on
partition ``stable_hash(f"{table}:{key}") % partitions_per_table``, so
:func:`stable_hash` is the only part of this module on a run path.
:class:`RangePartitioner` (contiguous key ranges, as the evaluation
describes) and :class:`HashPartitioner` are used by no cluster.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence

__all__ = ["HashPartitioner", "RangePartitioner", "stable_hash"]


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


class RangePartitioner:
    """Maps keys to partitions by lexicographic boundary keys.

    ``boundaries`` are the *exclusive lower bounds* of partitions 1..n-1;
    keys below the first boundary go to partition 0.

    >>> p = RangePartitioner(["item:3333", "item:6666"])
    >>> p.partition_of("item:0001"), p.partition_of("item:5000"), p.partition_of("item:9999")
    (0, 1, 2)
    """

    def __init__(self, boundaries: Sequence[str]) -> None:
        self.boundaries: List[str] = list(boundaries)
        if self.boundaries != sorted(self.boundaries):
            raise ValueError("range boundaries must be sorted")
        if len(set(self.boundaries)) != len(self.boundaries):
            raise ValueError("range boundaries must be distinct")

    @property
    def num_partitions(self) -> int:
        return len(self.boundaries) + 1

    def partition_of(self, key: str) -> int:
        return bisect.bisect_right(self.boundaries, key)

    @classmethod
    def even_over_keys(cls, sorted_keys: Sequence[str], num_partitions: int) -> "RangePartitioner":
        """Build boundaries that split ``sorted_keys`` into even ranges."""
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if num_partitions == 1 or not sorted_keys:
            return cls([])
        step = len(sorted_keys) / num_partitions
        boundaries = []
        for index in range(1, num_partitions):
            boundaries.append(sorted_keys[int(index * step)])
        # Collapse duplicates (tiny key spaces): keep strictly increasing.
        unique: List[str] = []
        for boundary in boundaries:
            if not unique or boundary > unique[-1]:
                unique.append(boundary)
        return cls(unique)


class HashPartitioner:
    """Maps keys to partitions by stable hash modulo partition count."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions

    def partition_of(self, key: str) -> int:
        return stable_hash(key) % self.num_partitions
