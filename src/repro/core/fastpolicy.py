"""Fast/classic mode policies (§3.3.2, and §5.3.2's future work).

The paper's default policy is static: "If we detect a collision, we set
the next γ instances (default 100) to classic.  After γ transactions,
fast instances are automatically tried again."  It then notes: "More
advanced models could explicitly calculate the conflict rate and remain
as future work", and §5.3.2 concludes "exploring policies to
automatically determine the best strategy remains as future work."

This module implements both:

* :class:`StaticGammaPolicy` — the paper's fixed-γ behaviour.
* :class:`AdaptiveGammaPolicy` — the future-work policy: the classic
  horizon adapts to the *observed collision spacing* per record.
  Collisions arriving in quick succession (within ``window_ms`` of the
  previous one) signal a contended record: the horizon doubles, keeping
  the record in cheap master-serialized classic mode for longer.  A
  collision after a quiet period resets the horizon to ``gamma_min`` so
  lightly contended records return to one-round-trip fast ballots almost
  immediately.

Masters only observe collisions (successful fast commits bypass them
entirely), so collision spacing is the conflict-rate signal available
without adding messages — exactly the trade-off the paper's design makes
elsewhere ("we trade-off reducing latency by using more CPU cycles to
make sophisticated decisions at each site").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol

from repro.core.options import RecordId

__all__ = [
    "AdaptiveGammaPolicy",
    "GammaPolicy",
    "StaticGammaPolicy",
    "make_policy",
]


class GammaPolicy(Protocol):
    """How many classic instances to schedule after a collision."""

    def classic_horizon(self, record: RecordId, reason: str, now: float) -> int:
        """Called by the master when switching a record to classic mode."""
        ...


@dataclass(frozen=True)
class StaticGammaPolicy:
    """The paper's §3.3.2 policy: a fixed γ for every collision — a
    demarcation-limit hit included (§3.4.2)."""

    gamma: int = 100

    def classic_horizon(self, record: RecordId, reason: str, now: float) -> int:
        return max(self.gamma, 1)


class AdaptiveGammaPolicy:
    """Conflict-rate-driven horizons (the §5.3.2 future-work policy).

    Per record, the horizon starts at ``gamma_min``.  Each collision within
    ``window_ms`` of the previous one doubles it (capped at ``gamma_max``);
    a collision after a quiet gap resets it to ``gamma_min``.

    The result approximates the paper's guidance: "fast ballots can take
    advantage of master-less operation as long as the conflict rate is not
    very high.  When the conflict rate is too high, a master-based approach
    is more beneficial" — contended records converge to Multi-like
    behaviour, cold records stay fast.
    """

    def __init__(
        self,
        gamma_min: int = 8,
        gamma_max: int = 1_024,
        window_ms: float = 5_000.0,
    ) -> None:
        if gamma_min < 1:
            raise ValueError("gamma_min must be at least 1")
        if gamma_max < gamma_min:
            raise ValueError("gamma_max must be >= gamma_min")
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.gamma_min = gamma_min
        self.gamma_max = gamma_max
        self.window_ms = window_ms
        self._horizons: Dict[RecordId, int] = {}
        self._last_collision: Dict[RecordId, float] = {}

    def classic_horizon(self, record: RecordId, reason: str, now: float) -> int:
        last = self._last_collision.get(record)
        self._last_collision[record] = now
        if last is not None and now - last <= self.window_ms:
            horizon = min(self._horizons.get(record, self.gamma_min) * 2, self.gamma_max)
        else:
            horizon = self.gamma_min
        self._horizons[record] = horizon
        return horizon

    def current_horizon(self, record: RecordId) -> int:
        """The record's last chosen horizon (``gamma_min`` if never hit)."""
        return self._horizons.get(record, self.gamma_min)


def make_policy(config) -> GammaPolicy:
    """Build the configured policy from an :class:`MDCCConfig`; the
    adaptive policy runs at its constructor defaults."""
    if config.gamma_policy == "adaptive":
        return AdaptiveGammaPolicy()
    return StaticGammaPolicy(gamma=config.gamma)
