"""Ballot numbers and instance-range mastership metadata.

Two details from the paper shape this module:

* Ballots are either **fast** or **classic**, and "it is important that
  classic ballot numbers are always higher ranked than fast ballot numbers
  to resolve collisions and save the correct value" (§3.3.1).  A classic
  ballot therefore outranks a fast ballot with the same round number.
* Proposal numbers "must be unique for each master ... To ensure uniqueness
  we concatenate the requester's ip-address" (§3.1.1) — we carry a proposer
  id as the final tie-breaker.
* Multi-Paxos mastership is granted over *instance ranges* with the
  metadata ``[StartInstance, EndInstance, Fast, Ballot]`` (§3.1.2, §3.3.1),
  and "the default meta-data for all instances and all records are pre-set
  to fast with [0, ∞, fast=true, ballot=0]" (§3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Ballot", "BallotRange", "INITIAL_FAST_BALLOT"]


@dataclass(frozen=True, order=False, slots=True)
class Ballot:
    """A totally ordered ballot number.

    Ordering: by ``round`` first; at equal round a classic ballot outranks
    a fast one; the proposer id breaks remaining ties deterministically.
    """

    round: int
    fast: bool
    proposer: str = ""

    def sort_key(self) -> Tuple[int, int, str]:
        return (self.round, 0 if self.fast else 1, self.proposer)

    def __lt__(self, other: "Ballot") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Ballot") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Ballot") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Ballot") -> bool:
        return self.sort_key() >= other.sort_key()

    def __repr__(self) -> str:
        kind = "F" if self.fast else "C"
        suffix = f"@{self.proposer}" if self.proposer else ""
        return f"Ballot({self.round}{kind}{suffix})"


#: The implicit ballot every fresh record starts in: any proposer may send
#: options straight to the storage nodes (fast, round 0, no owner).
INITIAL_FAST_BALLOT = Ballot(round=0, fast=True, proposer="")


@dataclass(frozen=True, slots=True)
class BallotRange:
    """Mastership metadata ``[StartInstance, EndInstance, Fast, Ballot]``.

    ``end_instance=None`` encodes ∞ — the paper's default range is
    ``[0, ∞, fast=true, ballot=0]``, which never needs to be stored
    per-record ("As the default meta-data for all records is the same, it
    does not need to be stored per record", §3.3.2).
    """

    start_instance: int
    end_instance: Optional[int]  # None = unbounded (∞)
    ballot: Ballot

    def __post_init__(self) -> None:
        if self.start_instance < 0:
            raise ValueError("start_instance must be non-negative")
        if self.end_instance is not None and self.end_instance < self.start_instance:
            raise ValueError("end_instance precedes start_instance")

    @property
    def fast(self) -> bool:
        return self.ballot.fast

    def covers(self, instance: int) -> bool:
        """Whether ``instance`` falls inside this range."""
        if instance < self.start_instance:
            return False
        return self.end_instance is None or instance <= self.end_instance

    @classmethod
    def default(cls) -> "BallotRange":
        """The paper's implicit default: ``[0, ∞, fast=true, ballot=0]``."""
        return _DEFAULT_RANGE

    def __repr__(self) -> str:
        end = "∞" if self.end_instance is None else str(self.end_instance)
        return f"BallotRange([{self.start_instance},{end}] {self.ballot!r})"


#: The shared default-range instance — immutable, so every record's "no
#: explicit mastership" state can be the same object, exactly as the paper
#: stores the default metadata once rather than per record (§3.3.2).
_DEFAULT_RANGE = BallotRange(
    start_instance=0, end_instance=None, ballot=INITIAL_FAST_BALLOT
)
