"""Versioned records.

Every update in MDCC "creates a new version, and [is] represented in the
form v_read -> v_write" (§3.2.1); write-write conflict detection compares
the current committed version with the transaction's read version.  That
comparison needs one number per record, so a :class:`Record` holds only
its latest committed state: the version and the value.  Deletes are
tombstones: "Deletes work by marking the item as deleted and are handled
as normal updates" — a deleted record keeps its version with no value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Union

__all__ = ["Record", "Snapshot"]

#: The applied-id set of a record no option id was ever folded into —
#: shared, so a record the baselines write (they pass no ids) or one only
#: ever loaded costs no set of its own.
_NO_IDS: FrozenSet[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Snapshot:
    """What a read returns: existence, a value copy, and the version read.

    ``version`` feeds v_read of subsequent updates; reading an absent
    record yields ``version == 0`` so that a later insert is validated as
    "only succeed if the record doesn't already exist" (§3.2.1).
    """

    exists: bool
    value: Optional[Dict[str, object]]
    version: int

    def attribute(self, name: str, default: object = None) -> object:
        if not self.exists or self.value is None:
            return default
        return self.value.get(name, default)


class Record:
    """A single record's latest committed state.

    Only *committed* state lives here; pending options are protocol state
    kept by the record's acceptor (:class:`repro.core.state.RecordState`).
    Versions only move forward — version N+1 follows version N ("a new
    record version can only be chosen if the previous version was
    successfully determined", §3.2.1), and a catch-up may skip ahead.

    ``value`` is None while the record is absent: never written
    (``current_version == 0``) or deleted (a tombstone at its version).
    """

    __slots__ = ("table", "key", "current_version", "value", "applied_ids")

    def __init__(self, table: str, key: str) -> None:
        self.table = table
        self.key = key
        #: version number of the latest committed state (0 if none).
        self.current_version = 0
        self.value: Optional[Dict[str, object]] = None
        #: option ids whose effects are folded into the committed value.
        #: Carried by repair/catch-up payloads so a replica adopting this
        #: state wholesale knows which in-flight visibilities it must NOT
        #: re-apply (commutative deltas are blind — without this set a
        #: CatchUp followed by the original Visibility double-applies).
        #: The shared empty frozenset until the first id arrives.
        self.applied_ids: Union[FrozenSet[str], Set[str]] = _NO_IDS

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def exists(self) -> bool:
        """True if the latest committed state is live (not a tombstone)."""
        return self.value is not None

    def snapshot(self) -> Snapshot:
        """A copy-safe view of the committed state."""
        value = self.value
        if value is None:
            return Snapshot(exists=False, value=None, version=self.current_version)
        return Snapshot(exists=True, value=dict(value), version=self.current_version)

    def peek(self, attribute: str, default: object = None) -> object:
        """Read one attribute of the committed value without the snapshot
        copy — for decision paths that never hand the value onward."""
        value = self.value
        if value is None:
            return default
        return value.get(attribute, default)

    # ------------------------------------------------------------------
    # Mutation (called by protocol executors only)
    # ------------------------------------------------------------------
    def _commit(self, value: Optional[Dict[str, object]], option_id: Optional[str]) -> int:
        self.current_version += 1
        self.value = value
        if option_id is not None:
            applied = self.applied_ids
            if applied:
                applied.add(option_id)
            else:  # empty means the shared _NO_IDS: the first id
                self.applied_ids = {option_id}
        return self.current_version

    def commit_value(self, value: Dict[str, object], option_id: Optional[str] = None) -> int:
        """Commit the next version holding a copy of ``value``."""
        return self._commit(dict(value), option_id)

    def commit_delete(self, option_id: Optional[str] = None) -> int:
        """Commit the next version as a tombstone."""
        return self._commit(None, option_id)

    def commit_delta(
        self, attribute: str, delta: float, option_id: Optional[str] = None
    ) -> int:
        """Commit the next version with ``attribute`` adjusted by ``delta``.

        Commutative updates apply to the latest committed value; the record
        must exist.
        """
        value = self.value
        if value is None:
            raise ValueError(
                f"commutative update on non-existent record {self.table}/{self.key}"
            )
        current = value.get(attribute, 0)
        if not isinstance(current, (int, float)):
            raise ValueError(
                f"attribute {attribute!r} of {self.table}/{self.key} is not numeric"
            )
        # No snapshot hands out this dict (snapshot copies), so it is
        # updated in place.
        value[attribute] = current + delta
        return self._commit(value, option_id)

    def catch_up(
        self,
        version: int,
        value: Optional[Dict[str, object]],
        applied_ids: tuple = (),
    ) -> bool:
        """Jump directly to ``version`` with ``value`` (None = tombstone).

        Used by replica catch-up: a lagging node that missed intermediate
        commits adopts the authoritative committed state wholesale.
        ``applied_ids`` are the option ids folded into the adopted value;
        when the jump happens they join this record's applied set so their
        (possibly still in-flight) visibilities are not re-applied here.
        Returns False (no-op) if we already know ``version`` or newer —
        then the ids are NOT merged either: a replica that is not behind
        may hold a different applied subset (commutative orders diverge),
        and marking a foreign id applied would drop its pending delta.
        """
        if version <= self.current_version:
            return False
        self.current_version = version
        self.value = None if value is None else dict(value)
        if applied_ids:
            if self.applied_ids:
                self.applied_ids.update(applied_ids)
            else:
                self.applied_ids = set(applied_ids)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Record {self.table}/{self.key} v{self.current_version}"
            f"{'' if self.exists else ' (absent)'}>"
        )
