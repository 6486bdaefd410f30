"""Quorum demarcation: enforcing value constraints under fast ballots.

§3.4.2 in full: a storage node may only accept a commutative option "if the
option would not violate the constraint under all permutations of
commit/abort outcomes for pending options" (escrow, [19]).  Local checks
alone are insufficient under quorum replication — different message arrival
orders let jointly-infeasible options each gather a fast quorum — so MDCC
tightens the local bound with a *demarcation* limit:

    L = (N − Q_F) / N · X

where N is the replication factor, Q_F the fast quorum size, and X the base
value (distance above the constraint minimum).  Every successful update
drains at least Q_F · δ of the system-wide N · X resource, so by the time
the true value reaches the constraint boundary, stragglers can hold at most
(N − Q_F) · X unobserved resource — exactly what L reserves.

The module generalizes the paper's "value at least 0, all updates are
decrements" presentation to arbitrary [min, max] bounds: an upper limit U
symmetrically guards increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.storage.schema import Constraint

__all__ = ["DemarcationLimits", "demarcation_limits", "escrow_accepts"]


@dataclass(frozen=True, slots=True)
class DemarcationLimits:
    """The per-node acceptance window for one attribute's base value.

    ``lower``/``upper`` are the thresholds a node must never let the
    worst-case value cross (None = unbounded on that side).
    """

    lower: Optional[float]
    upper: Optional[float]


def demarcation_limits(
    n: int,
    fast_quorum: int,
    base_value: float,
    constraint: Constraint,
) -> DemarcationLimits:
    """Compute L (and symmetric U) for ``base_value`` under ``constraint``.

    The paper's formula assumes minimum 0; for a general minimum m the
    "resource" is the headroom X − m, giving
    ``L = m + (N − Q_F)/N · (X − m)`` and symmetrically
    ``U = M − (N − Q_F)/N · (M − X)`` for a maximum M.
    """
    if not 1 <= fast_quorum <= n:
        raise ValueError(f"fast quorum {fast_quorum} out of range for n={n}")
    slack_fraction = (n - fast_quorum) / n

    lower: Optional[float] = None
    if constraint.minimum is not None:
        headroom = max(base_value - constraint.minimum, 0.0)
        lower = constraint.minimum + slack_fraction * headroom

    upper: Optional[float] = None
    if constraint.maximum is not None:
        headroom = max(constraint.maximum - base_value, 0.0)
        upper = constraint.maximum - slack_fraction * headroom

    return DemarcationLimits(lower=lower, upper=upper)


def escrow_accepts(
    current_value: float,
    pending_deltas: Iterable[float],
    new_delta: float,
    limits: DemarcationLimits,
) -> bool:
    """The storage-node acceptance test (Algorithm 3, lines 93-99).

    ``current_value`` is the node's committed value (base plus already
    executed options); ``pending_deltas`` are accepted-but-unexecuted
    options, whose transactions may still commit or abort.  The worst case
    for the lower bound assumes every pending decrement commits and every
    pending increment aborts; symmetrically for the upper bound.

    The test is *marginal*: an option is rejected only "if it would cause
    the value to fall below" a limit (§3.4.2) — a pure increment can never
    violate the lower bound and vice versa.
    """
    # At most one branch consumes ``pending_deltas`` (new_delta has one
    # sign), so the iterable is read once and needs no materialization.
    if new_delta < 0 and limits.lower is not None:
        low = current_value + sum(d for d in pending_deltas if d < 0) + new_delta
        if low < limits.lower:
            return False
    if new_delta > 0 and limits.upper is not None:
        high = current_value + sum(d for d in pending_deltas if d > 0) + new_delta
        if high > limits.upper:
            return False
    return True
