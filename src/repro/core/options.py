"""Options and updates — the values MDCC runs Paxos on.

The key protocol move (§3.2): "using a Paxos instance per record to accept
an *option* to execute the update, instead of writing the value directly."
Storage nodes actively accept or reject each option; the transaction
commits once every option is learned as accepted.

Options double as Generalized Paxos commands (:class:`repro.paxos.cstruct`
``Command`` protocol): two options commute exactly when both carry
commutative updates (§3.4.1); an option's identity includes its status so
that acceptors that disagree on ✓/✗ are *incompatible* and force a
collision, as the protocol requires.

Every option also carries its transaction id and the full write-set keys:
"we avoid dangling transactions by including in all of its options a unique
transaction-id as well as all primary keys of the write-set" (§3.2.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "CommutativeUpdate",
    "Option",
    "OptionStatus",
    "PhysicalUpdate",
    "ReadValidation",
    "RecordId",
    "Update",
]


@dataclass(frozen=True, order=True, slots=True)
class RecordId:
    """A globally unique record address.

    ``str(record)`` is on the hot path (it keys option ids and WAL
    entries), so the rendered form is computed once at construction.
    The cache is a non-init field: the wire codec and ``fields()``-based
    equality both skip ``init=False`` fields.
    """

    table: str
    key: str
    _str: str = field(init=False, repr=False, compare=False, default="")
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_str", self.table + "/" + self.key)
        object.__setattr__(self, "_hash", hash((self.table, self.key)))

    def __str__(self) -> str:
        return self._str

    def __hash__(self) -> int:
        # Explicitly defined, so @dataclass keeps it: record ids key every
        # state table in the system and are hashed far more often than
        # they are built.
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Dict probes compare distinct-but-equal ids constantly; comparing
        # the fields directly skips the generated __eq__'s tuple builds.
        # (Keys differ far more often than tables, so they go first.)
        if other.__class__ is RecordId:
            return self.key == other.key and self.table == other.table
        return NotImplemented


@dataclass(frozen=True, slots=True)
class PhysicalUpdate:
    """A read-version-guarded full-record write: v_read → v_write.

    ``vread == 0`` encodes an insert ("an insert should only succeed if the
    record doesn't already exist"); ``is_delete`` marks a tombstone write.
    ``new_value`` is the full attribute dict after the write (None for
    deletes).
    """

    vread: int
    new_value: Optional[Dict[str, object]]
    is_delete: bool = False

    def __post_init__(self) -> None:
        if self.vread < 0:
            raise ValueError("vread must be non-negative")
        if self.is_delete and self.new_value is not None:
            raise ValueError("delete updates carry no new value")
        if not self.is_delete and self.new_value is None:
            raise ValueError("non-delete physical update needs a new value")

    @property
    def is_insert(self) -> bool:
        return self.vread == 0 and not self.is_delete

    def __hash__(self) -> int:
        frozen_value = (
            None
            if self.new_value is None
            else tuple(sorted(self.new_value.items()))
        )
        return hash((self.vread, frozen_value, self.is_delete))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhysicalUpdate):
            return NotImplemented
        return (
            self.vread == other.vread
            and self.new_value == other.new_value
            and self.is_delete == other.is_delete
        )


@dataclass(frozen=True, slots=True)
class CommutativeUpdate:
    """Attribute delta changes, e.g. ``decrement(stock, 1)`` (§3.4.1).

    ``deltas`` maps attribute name to a signed numeric change.  Deltas on
    any attributes commute with each other; value constraints are enforced
    by quorum demarcation, not here.
    """

    deltas: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.deltas:
            raise ValueError("commutative update needs at least one delta")
        names = [name for name, _ in self.deltas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attributes in deltas: {names}")

    @classmethod
    def of(cls, **deltas: float) -> "CommutativeUpdate":
        """Convenience constructor: ``CommutativeUpdate.of(stock=-1)``."""
        return cls(tuple(sorted(deltas.items())))

    def delta_for(self, attribute: str) -> float:
        for name, delta in self.deltas:
            if name == attribute:
                return delta
        return 0.0

    @property
    def attributes(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.deltas)


@dataclass(frozen=True, slots=True)
class ReadValidation:
    """An OCC read-set assertion: the record is still at version ``vread``.

    The §4.4 extension — "as we already check the write-set for
    transactions, the protocol could easily be extended to also consider
    read-sets, allowing us to leverage optimistic concurrency control
    techniques and ultimately provide full serializability."

    Acceptors accept a validation iff the record's committed version still
    equals ``vread`` and no state-changing option is pending; executing it
    is a no-op (the committed version does not advance).  While a
    validation is pending, writers to the record are rejected — the short
    read-lock window between propose and visibility that OCC validation
    needs.  Validations of the same record commute with each other, so
    concurrent readers never conflict.

    ``vread == 0`` asserts the record does not exist (a validated negative
    read).
    """

    vread: int

    def __post_init__(self) -> None:
        if self.vread < 0:
            raise ValueError("vread must be non-negative")


Update = Union[PhysicalUpdate, CommutativeUpdate, ReadValidation]


class OptionStatus(enum.Enum):
    """ω(up, _): pending, accepted (✓, "3" in the paper's font) or
    rejected (✗, "7")."""

    PENDING = "pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"

    @property
    def decided(self) -> bool:
        return self is not OptionStatus.PENDING


@dataclass(frozen=True, slots=True)
class Option:
    """ω(up, status) — a proposed update to one record of one transaction.

    Identity (``option_id``) is (txid, record): a transaction writes each
    record at most once (its write-set is keyed by record).

    ``option_id`` is the single hottest string in the protocol (every
    tally, waiter map and cstruct membership check keys on it), so it is
    computed once at construction instead of per access.  As a non-init
    cache field it stays out of equality, hashing, repr and the wire
    codec.
    """

    txid: str
    record: RecordId
    update: Update
    writeset: Tuple[RecordId, ...] = field(default=())
    status: OptionStatus = OptionStatus.PENDING
    option_id: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        object.__setattr__(self, "option_id", f"{self.txid}:{self.record}")

    # ------------------------------------------------------------------
    # Identity & status
    # ------------------------------------------------------------------
    @property
    def command_id(self) -> str:
        """cstruct Command protocol: identity within a record's instance."""
        return self.option_id

    @property
    def is_commutative(self) -> bool:
        return isinstance(self.update, CommutativeUpdate)

    @property
    def is_validation(self) -> bool:
        return isinstance(self.update, ReadValidation)

    def with_status(self, status: OptionStatus) -> "Option":
        if status is self.status:
            return self
        # Hand-rolled copy: every field is immutable and option_id does not
        # depend on status, so the dataclasses.replace machinery (field
        # enumeration, __init__, __post_init__ re-format) is pure overhead
        # on what is the single hottest constructor in the protocol.
        new = object.__new__(Option)
        _set = object.__setattr__
        _set(new, "txid", self.txid)
        _set(new, "record", self.record)
        _set(new, "update", self.update)
        _set(new, "writeset", self.writeset)
        _set(new, "status", status)
        _set(new, "option_id", self.option_id)
        return new

    @property
    def accepted(self) -> bool:
        return self.status is OptionStatus.ACCEPTED

    @property
    def rejected(self) -> bool:
        return self.status is OptionStatus.REJECTED

    # ------------------------------------------------------------------
    # Commutativity (cstruct Command protocol)
    # ------------------------------------------------------------------
    def commutes_with(self, other: "Option") -> bool:
        """Options commute iff both carry commutative updates (§3.4.1), or
        both are read validations (reads never conflict with each other).

        Rejected options additionally commute with everything: a rejected
        option never changes record state, so its position in the cstruct
        is semantically irrelevant.  Without this, acceptors whose
        *rejected* prefixes diverged would lose agreement on the accepted
        options behind them during collision recovery.
        """
        if not isinstance(other, Option):
            return False
        if self.status is OptionStatus.REJECTED or other.status is OptionStatus.REJECTED:
            return True
        if self.is_validation and other.is_validation:
            return True
        return self.is_commutative and other.is_commutative

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mark = {"pending": "?", "accepted": "✓", "rejected": "✗"}[self.status.value]
        return f"ω({self.option_id}, {mark})"
