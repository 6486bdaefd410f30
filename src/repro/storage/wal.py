"""Write-ahead log of learned options, bounded by what is in flight.

The paper's failure-recovery story depends on durable option logs: storage
nodes keep "a log of all learned options" so that "every option includes
all necessary information to reconstruct the state of the corresponding
transactions" (§3.2.3).  Recovery needs an option's entry only until its
outcome is in the store: from then on the committed state itself says
what happened (the ``COMMIT`` record of a 2PC recovery table is kept only
until its ``COMPLETION`` is logged, for the same reason).

So an entry may name the ids it *waits on* — option ids for MDCC, txids
for the lock-based baselines — and :meth:`WriteAheadLog.resolve` drops
every entry whose ids have all reached the store.  What stays in memory is
the log of in-flight work, not of the run: an entry that names no ids at
all (``waits_on=None``) is kept until :meth:`~WriteAheadLog.truncate_through`,
and one whose ids had all resolved before it was written
(``waits_on=()``) is written — it takes an LSN — but not kept.  LSNs are
issued monotonically and never reused; the simulated environment treats
an appended entry as durable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["LogEntry", "WriteAheadLog"]


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One durable log record.

    ``kind`` is a short tag ("option-learned", "visibility", ...);
    ``payload`` is whatever the protocol needs to replay — for MDCC, the
    decided :class:`~repro.core.options.Option` or the
    :class:`~repro.core.messages.Visibility` itself; otherwise a dict of
    the append's keyword fields.
    ``waits_on`` are the ids whose outcomes the entry is kept for
    (``None``: kept until truncated).
    """

    lsn: int
    kind: str
    payload: Any = field(default_factory=dict)
    waits_on: Optional[Tuple[str, ...]] = None


class WriteAheadLog:
    """LSN-ordered log that keeps an entry while its outcome is open."""

    def __init__(self) -> None:
        #: retained entries by LSN; insertion order is LSN order.
        self._entries: Dict[int, LogEntry] = {}
        #: id -> the LSN of the retained entry waiting on it, or a list of
        #: LSNs once several do (one entry per id is the common case).
        self._waiting: Dict[str, Union[int, List[int]]] = {}
        #: LSN -> ids still unresolved, for entries waiting on several.
        self._open: Dict[int, int] = {}
        self._next_lsn = 1
        self._checkpoints: List[int] = []

    def append(
        self,
        kind: str,
        payload: Any = None,
        /,
        *,
        waits_on: Optional[Tuple[str, ...]] = None,
        **fields: Any,
    ) -> LogEntry:
        """Durably record an entry; returns it with its assigned LSN.

        The payload is ``payload`` when given, else the keyword ``fields``
        (a fresh dict, adopted without a copy).  The entry is kept until
        every id in ``waits_on`` has been resolved — so an empty
        ``waits_on`` keeps nothing — or, when ``waits_on`` is ``None``,
        until :meth:`truncate_through` passes it.
        """
        # An id named twice is resolved twice over: it counts twice here
        # and is indexed twice below.
        count = len(waits_on) if waits_on else 0
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        # Hand-rolled frozen-dataclass construction: one WAL entry per
        # learned option makes the generated __init__ measurable.
        entry = object.__new__(LogEntry)
        _set = object.__setattr__
        _set(entry, "lsn", lsn)
        _set(entry, "kind", kind)
        _set(entry, "payload", fields if payload is None else payload)
        _set(entry, "waits_on", waits_on)
        if waits_on is None:
            self._entries[lsn] = entry
        elif count:
            self._entries[lsn] = entry
            if count > 1:
                self._open[lsn] = count
            waiting = self._waiting
            for waited in waits_on:
                held = waiting.get(waited)
                if held is None:
                    waiting[waited] = lsn
                elif held.__class__ is int:
                    waiting[waited] = [held, lsn]
                else:
                    held.append(lsn)
        return entry

    def resolve(self, waited: str) -> int:
        """``waited``'s outcome is in the store: drop every entry that no
        longer waits on anything; returns how many were dropped."""
        held = self._waiting.pop(waited, None)
        if held is None:
            return 0
        if held.__class__ is int and held not in self._open:
            # The common case: one entry waits on ``waited`` alone.
            del self._entries[held]
            return 1
        entries = self._entries
        still_open = self._open
        dropped = 0
        for lsn in (held,) if held.__class__ is int else held:
            left = still_open.get(lsn) if still_open else None
            if left is not None:
                if left > 1:
                    still_open[lsn] = left - 1
                    continue
                del still_open[lsn]
            del entries[lsn]
            dropped += 1
        return dropped

    def __len__(self) -> int:
        """Entries ever appended (= LSNs issued), retained or not."""
        return self._next_lsn - 1

    @property
    def retained(self) -> int:
        """Entries still held: those with an open outcome, or no ids."""
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        """The retained entries, in LSN order."""
        return iter(self._entries.values())

    @property
    def last_lsn(self) -> int:
        """The last LSN issued (0 before the first append), whether or
        not its entry is still retained."""
        return self._next_lsn - 1

    def entries_since(self, lsn: int) -> List[LogEntry]:
        """Retained entries with LSN strictly greater than ``lsn``."""
        return [entry for entry in self._entries.values() if entry.lsn > lsn]

    def entries_of_kind(self, kind: str) -> List[LogEntry]:
        return [entry for entry in self._entries.values() if entry.kind == kind]

    def replay(
        self,
        apply: Callable[[LogEntry], None],
        from_lsn: int = 0,
        kind: Optional[str] = None,
    ) -> int:
        """Apply entries after ``from_lsn`` (optionally one kind); count them."""
        count = 0
        for entry in self.entries_since(from_lsn):
            if kind is not None and entry.kind != kind:
                continue
            apply(entry)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Record a checkpoint cut at the last LSN issued; returns it.

        The cut is a *consistency marker*: everything at or below it is
        covered by whatever state accompanies the checkpoint (a store
        snapshot, for the elastic-membership bootstrap), and
        :meth:`entries_since` of the cut is exactly the suffix a consumer
        of that state still has to obtain.  Checkpointing a log nothing
        was ever appended to returns 0.  The cut is stable: later appends
        do not move it, and dropping entries never moves a later cut
        backwards.
        """
        cut = self.last_lsn
        self._checkpoints.append(cut)
        return cut

    @property
    def checkpoints(self) -> List[int]:
        """Every recorded cut, oldest first (copies; callers may mutate)."""
        return list(self._checkpoints)

    @property
    def last_checkpoint(self) -> int:
        """The most recent cut LSN (0 if no checkpoint was ever taken)."""
        return self._checkpoints[-1] if self._checkpoints else 0

    def truncate_through(self, lsn: int) -> int:
        """Discard retained entries with LSN <= ``lsn``; count removed.

        LSNs are never reused: the next append still gets a strictly
        higher LSN than anything ever written.  Checkpoint cuts at or
        below the truncation point remain valid markers (their
        ``entries_since`` suffix is unaffected by dropping the prefix).
        """
        removed = [entry for entry in self._entries.values() if entry.lsn <= lsn]
        for entry in removed:
            del self._entries[entry.lsn]
            if entry.waits_on:
                self._open.pop(entry.lsn, None)
                for waited in entry.waits_on:
                    self._unwait(waited, entry.lsn)
        return len(removed)

    def _unwait(self, waited: str, lsn: int) -> None:
        """Forget that the entry at ``lsn`` waits on ``waited`` (it may
        not, any more: ``waited`` resolved for it already)."""
        held = self._waiting.get(waited)
        if held == lsn:
            del self._waiting[waited]
        elif isinstance(held, list) and lsn in held:
            held.remove(lsn)
            if len(held) == 1:
                self._waiting[waited] = held[0]
