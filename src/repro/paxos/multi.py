"""Multi-Paxos mastership over instance ranges.

"If the master is reasonably stable, using Multi-Paxos makes it possible to
avoid Phase 1 by reserving the mastership for several instances" (§3.1.2).
The reservation is the metadata ``[StartInstance, EndInstance, Ballot]``
(extended with a fast flag in §3.3.1); "the database stores this meta-data
including the current version number as part of the record, which enables a
separate Paxos instance per record".

:class:`MastershipState` is that per-record metadata as an acceptor stores
it; a record still on the default range stores no ranges at all ("As the
default meta-data for all records is the same, it does not need to be
stored per record", §3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.paxos.ballot import Ballot, BallotRange

__all__ = ["MastershipState"]


@dataclass(slots=True)
class MastershipState:
    """Per-record promise state: which ranges are granted to which ballot.

    Later grants shadow earlier ones on the instances they cover.  The
    implicit base is the paper's default ``[0, ∞, fast, ballot=0]``.
    ``ranges`` is only ever reassigned, never mutated in place, so a
    record that never left the default shares the empty tuple.
    """

    ranges: Sequence[BallotRange] = ()

    def grant(self, new_range: BallotRange) -> bool:
        """Try to promise ``new_range``; True if granted.

        A grant succeeds when no instance it covers is already promised to
        a *strictly higher* ballot — the acceptor applies "the same
        semantics for each individual instance as defined in Phase1b, but
        ... in a single message" (§3.1.2).  An equal-ballot grant is the
        same master re-scoping its own lease and is accepted idempotently.

        An accepted grant *supersedes* the instances it covers: overlapping
        equal-or-lower-ballot ranges are truncated to the instances before
        the new range.  This is what makes §3.3.2's γ horizon work — the
        recovery's open-ended Phase 1 promise ``[v, ∞, classic]`` is cut
        down by the post-recovery grant ``[v, v+γ-1, classic]``, so
        instances past the horizon revert to the default fast ballot
        ("after γ transactions, fast instances are automatically tried
        again").  Instances beyond the current version hold no accepted
        values yet (a new instance starts only after the previous one is
        decided), so re-scoping them never un-promises an accepted value.
        """
        overlapping = self._overlapping(new_range)
        for existing in overlapping:
            if existing.ballot > new_range.ballot:
                return False
        survivors = []
        for granted in self.ranges:
            if granted not in overlapping:
                survivors.append(granted)
                continue
            if granted.start_instance < new_range.start_instance:
                # Keep the head the new grant does not cover.
                survivors.append(
                    BallotRange(
                        granted.start_instance,
                        new_range.start_instance - 1,
                        granted.ballot,
                    )
                )
        survivors.append(new_range)
        self.ranges = survivors
        return True

    def effective_range(self, instance: int) -> BallotRange:
        """The highest-ballot range covering ``instance`` (default if none)."""
        ranges = self.ranges
        if not ranges:
            # The common case: a record that never left the default fast
            # ballot stores no ranges at all (§3.3.2).
            return BallotRange.default()
        best: Optional[BallotRange] = None
        for granted in ranges:
            if granted.covers(instance):
                if best is None or granted.ballot > best.ballot:
                    best = granted
        return best if best is not None else BallotRange.default()

    def effective_ballot(self, instance: int) -> Ballot:
        return self.effective_range(instance).ballot

    def is_fast(self, instance: int) -> bool:
        """Whether ``instance`` currently runs as a fast ballot."""
        return self.effective_range(instance).fast

    def outlived(self, ballot: Ballot, instance: int) -> bool:
        """Whether every instance granted to ``ballot`` here lies before
        ``instance``: that ballot's Phase 2a was meant for instances this
        acceptor has closed, not for the one it is voting in now."""
        ends = [granted.end_instance for granted in self.ranges if granted.ballot == ballot]
        return bool(ends) and all(end is not None and end < instance for end in ends)

    def _overlapping(self, new_range: BallotRange) -> List[BallotRange]:
        out = []
        for existing in self.ranges:
            if _ranges_overlap(existing, new_range):
                out.append(existing)
        return out


def _ranges_overlap(a: BallotRange, b: BallotRange) -> bool:
    a_end = float("inf") if a.end_instance is None else a.end_instance
    b_end = float("inf") if b.end_instance is None else b.end_instance
    return a.start_instance <= b_end and b.start_instance <= a_end
