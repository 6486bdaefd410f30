"""Table schemas and attribute value constraints.

MDCC's commutative-update machinery needs declared integrity constraints —
"e.g., that the stock of an item must be greater than zero" (§3.4.2).  A
:class:`Constraint` bounds one numeric attribute; the quorum demarcation
limits of :mod:`repro.core.demarcation` are derived from these bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Constraint", "TableSchema"]


@dataclass(frozen=True)
class Constraint:
    """Inclusive numeric bounds on an attribute value.

    ``minimum=0`` expresses the paper's running example, stock >= 0.
    Either bound may be ``None`` (unbounded on that side).
    """

    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise ValueError(
                f"constraint minimum {self.minimum} exceeds maximum {self.maximum}"
            )

    def allows(self, value: float) -> bool:
        """Whether ``value`` satisfies the bounds."""
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True

    @property
    def bounded_below(self) -> bool:
        return self.minimum is not None

    @property
    def bounded_above(self) -> bool:
        return self.maximum is not None


@dataclass
class TableSchema:
    """Metadata for one table: name and constraints.

    Attributes:
        name: table name, unique within a cluster.
        constraints: attribute name -> :class:`Constraint`.  Attributes
            without an entry are unconstrained.
    """

    name: str
    constraints: Dict[str, Constraint] = field(default_factory=dict)

    def constraint(self, attribute: str) -> Optional[Constraint]:
        """The constraint for ``attribute``, or None if unconstrained."""
        return self.constraints.get(attribute)

    def check_value(self, value: Dict[str, object]) -> bool:
        """Whether every constrained attribute present satisfies its bounds."""
        for attribute, constraint in self.constraints.items():
            if attribute in value:
                attr_value = value[attribute]
                if not isinstance(attr_value, (int, float)):
                    return False
                if not constraint.allows(attr_value):
                    return False
        return True
