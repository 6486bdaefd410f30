"""Classic and fast quorum sizing and intersection predicates.

Fast ballots are only safe when quorums satisfy (§3.3.1):

(i)  any two quorums have a non-empty intersection, and
(ii) any two **fast** quorums and any one **classic** quorum have a
     non-empty three-way intersection.

For replication factor 5 the paper's setting is a classic quorum of 3 and a
fast quorum of 4 — :func:`QuorumSpec.for_replication` derives exactly that,
and the minimum fast quorum for any N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterator, Sequence

__all__ = ["QuorumSpec", "classic_quorum_size", "min_fast_quorum_size"]


def classic_quorum_size(n: int) -> int:
    """Smallest majority of ``n`` replicas."""
    if n < 1:
        raise ValueError("replication factor must be positive")
    return n // 2 + 1


def min_fast_quorum_size(n: int, classic_size: int) -> int:
    """Smallest fast quorum satisfying requirement (ii).

    Two fast quorums of size F miss at most ``2*(n-F)`` members of any
    classic quorum C; a three-way intersection needs
    ``2F + C - 2n >= 1``, i.e. ``F >= (2n - C + 1) / 2``.
    """
    if not 1 <= classic_size <= n:
        raise ValueError(f"classic quorum size {classic_size} out of range for n={n}")
    return math.ceil((2 * n - classic_size + 1) / 2)


@dataclass(frozen=True)
class QuorumSpec:
    """Quorum sizes for one replication group."""

    n: int
    classic_size: int
    fast_size: int

    def __post_init__(self) -> None:
        if not 1 <= self.classic_size <= self.n:
            raise ValueError("classic quorum size out of range")
        if not 1 <= self.fast_size <= self.n:
            raise ValueError("fast quorum size out of range")
        if 2 * self.classic_size <= self.n:
            raise ValueError(
                "classic quorums must intersect: need 2*classic > n "
                f"(got classic={self.classic_size}, n={self.n})"
            )
        if self.fast_size + self.classic_size <= self.n:
            raise ValueError("a fast and a classic quorum must intersect")
        if 2 * self.fast_size + self.classic_size <= 2 * self.n:
            raise ValueError(
                "two fast quorums and a classic quorum must intersect: "
                f"need 2*fast + classic > 2n (fast={self.fast_size}, "
                f"classic={self.classic_size}, n={self.n})"
            )

    @classmethod
    @lru_cache(maxsize=None)
    def for_replication(cls, n: int) -> "QuorumSpec":
        """Minimal sizes for ``n`` replicas — (3, 4) at the paper's n=5.

        Under elastic membership this is re-derived from the directory's
        current data-center count on every quorum check, so an epoch bump
        (admit/retire) resizes classic and fast quorums cluster-wide in
        one step — there is never a mixed-size quorum, because votes
        stamped with the old epoch are fenced out by their receivers.
        """
        classic = classic_quorum_size(n)
        fast = min_fast_quorum_size(n, classic)
        return cls(n=n, classic_size=classic, fast_size=fast)

    def as_dict(self) -> dict:
        """JSON-friendly sizes for results/CLI reporting."""
        return {"n": self.n, "classic": self.classic_size, "fast": self.fast_size}

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def fast_unreachable(self, positive: int, total_responses: int) -> bool:
        """True once a fast quorum can no longer agree on one outcome.

        ``positive`` of ``total_responses`` replicas (out of ``n``) agree so
        far.  If even with every outstanding replica agreeing the count
        cannot reach ``fast_size``, the fast round has collided.
        """
        outstanding = self.n - total_responses
        return positive + outstanding < self.fast_size

    # ------------------------------------------------------------------
    # Enumeration (used by collision recovery)
    # ------------------------------------------------------------------
    def possible_fast_quorums(
        self, acceptors: Sequence[str]
    ) -> Iterator[FrozenSet[str]]:
        """All minimal fast quorums over ``acceptors`` (size ``fast_size``).

        Collision recovery must consider every fast quorum the losing round
        *could* have completed: "all potential intersections with a fast
        quorum must be computed from the responses" (§3.3.1).
        """
        if len(acceptors) != self.n:
            raise ValueError(
                f"expected {self.n} acceptors, got {len(acceptors)}"
            )
        for combo in itertools.combinations(sorted(acceptors), self.fast_size):
            yield frozenset(combo)
