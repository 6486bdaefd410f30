"""Post-run consistency auditors.

The paper's guarantees (§4) are claims about *observable history*: atomic
durability, no lost updates, read-committed visibility, and value
constraints that hold despite quorum replication.  These checkers verify
them mechanically against a finished run, reading replicas only through
``cluster.committed_snapshots`` — direct store reads under the
simulator, reads over the wire against a cluster of processes:

* :func:`check_replica_convergence` — after the network drains, every
  replica of every record holds the same committed value.
* :func:`check_constraints` — no replica's committed state violates a
  schema constraint (the demarcation guarantee; expected to FAIL for the
  quorum-writes baseline, which promises nothing).
* :class:`UpdateLedger` — records the updates of *committed* transactions
  and checks the final database equals initial-state + committed-effects:
  catches both lost updates and phantom (uncommitted-but-visible) writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.options import RecordId

__all__ = [
    "ConstraintViolation",
    "Divergence",
    "UpdateLedger",
    "check_constraints",
    "check_replica_convergence",
]


@dataclass(frozen=True)
class Divergence:
    record: RecordId
    values: Dict[str, object]  # node id -> committed value (or None)


@dataclass(frozen=True)
class ConstraintViolation:
    record: RecordId
    node_id: str
    attribute: str
    value: float
    bound: str


def check_replica_convergence(cluster, table: str, keys) -> List[Divergence]:
    """Replicas that disagree on a record's committed value."""
    divergences = []
    for key in keys:
        record = RecordId(table, key)
        snapshots = cluster.committed_snapshots(table, key)
        values = {
            node_id: (tuple(sorted(s.value.items())) if s.exists else None)
            for node_id, s in snapshots.items()
        }
        if len(set(values.values())) > 1:
            divergences.append(
                Divergence(
                    record=record,
                    values={n: snapshots[n].value for n in snapshots},
                )
            )
    return divergences


def check_constraints(cluster, table: str, keys) -> List[ConstraintViolation]:
    """Committed values that violate the table's declared constraints."""
    violations = []
    schema = cluster.schema(table)
    for key in keys:
        record = RecordId(table, key)
        for node_id, snapshot in cluster.committed_snapshots(table, key).items():
            if not snapshot.exists:
                continue
            for attribute, constraint in schema.constraints.items():
                value = snapshot.value.get(attribute)
                if not isinstance(value, (int, float)):
                    continue
                if constraint.minimum is not None and value < constraint.minimum:
                    violations.append(
                        ConstraintViolation(record, node_id, attribute, value, "min")
                    )
                if constraint.maximum is not None and value > constraint.maximum:
                    violations.append(
                        ConstraintViolation(record, node_id, attribute, value, "max")
                    )
    return violations


@dataclass
class _LedgerEntry:
    initial: float
    committed_delta: float = 0.0
    last_write: Optional[float] = None  # absolute value set by physical write


class UpdateLedger:
    """Tracks committed effects on numeric attributes to detect lost updates.

    Workloads call :meth:`record_delta` / :meth:`record_write` for each
    transaction the protocol reported as committed; :meth:`audit` then
    compares the implied final value with what the replicas actually hold.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str, str], _LedgerEntry] = {}

    def track(self, table: str, key: str, attribute: str, initial: float) -> None:
        self._entries[(table, key, attribute)] = _LedgerEntry(initial=float(initial))

    def record_delta(self, table: str, key: str, attribute: str, delta: float) -> None:
        entry = self._entries.get((table, key, attribute))
        if entry is None:
            raise KeyError(f"untracked attribute {(table, key, attribute)}")
        entry.committed_delta += delta

    def record_write(self, table: str, key: str, attribute: str, value: float) -> None:
        """An absolute (physical) committed write resets the expectation."""
        entry = self._entries.get((table, key, attribute))
        if entry is None:
            raise KeyError(f"untracked attribute {(table, key, attribute)}")
        entry.last_write = float(value)
        entry.committed_delta = 0.0

    def expected(self, table: str, key: str, attribute: str) -> float:
        entry = self._entries[(table, key, attribute)]
        base = entry.last_write if entry.last_write is not None else entry.initial
        return base + entry.committed_delta

    def audit(self, cluster) -> List[str]:
        """Mismatches between expected and actual committed values."""
        problems = []
        for (table, key, attribute), entry in sorted(self._entries.items()):
            expected = self.expected(table, key, attribute)
            for node_id, snapshot in cluster.committed_snapshots(table, key).items():
                actual = snapshot.attribute(attribute) if snapshot.exists else None
                if actual != expected:
                    problems.append(
                        f"{table}/{key}.{attribute} @ {node_id}: "
                        f"expected {expected}, found {actual}"
                    )
        return problems
