"""Protocol configuration: quorum sizes, policies, timeouts, variants.

The evaluation compares three MDCC configurations (§5.3.1):

* **MDCC** — "our full featured protocol": fast ballots + commutative
  updates with demarcation.
* **Fast** — fast ballots "without the commutative update support":
  commutative client updates are converted to version-guarded physical
  writes.
* **Multi** — "all instances being Multi-Paxos (a stable master can skip
  Phase 1)": every update routes through the record's master.

:class:`ProtocolVariant` selects among them; :class:`MDCCConfig` carries
everything else (γ for the fast/classic policy of §3.3.2, timeouts,
replication factor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.paxos.quorum import QuorumSpec

__all__ = ["MDCCConfig", "ProtocolVariant"]


class ProtocolVariant(enum.Enum):
    """The three MDCC configurations of the paper's Figure 5/6/7."""

    MDCC = "mdcc"    # fast ballots + commutative updates
    FAST = "fast"    # fast ballots, no commutative support
    MULTI = "multi"  # master-routed classic ballots only

    @property
    def fast_ballots(self) -> bool:
        return self in (ProtocolVariant.MDCC, ProtocolVariant.FAST)

    @property
    def commutative(self) -> bool:
        return self is ProtocolVariant.MDCC


@dataclass(frozen=True)
class MDCCConfig:
    """All tunables of one MDCC deployment.

    Attributes:
        replication: replicas per record (the paper deploys 5 — one per DC).
        variant: MDCC / Fast / Multi (see :class:`ProtocolVariant`).
        gamma: classic instances scheduled after a collision before fast
            ballots are probed again — "we set the next γ instances
            (default 100) to classic" (§3.3.2).
        commutative_gamma: classic instances after a *demarcation* (base
            refresh) collision.  ``None`` (default) treats limit hits like
            any collision — γ classic instances, matching §3.4.2's "handles
            it as a collision, resolves it by switching to classic ballots".
            ``0`` re-opens fast immediately after the base refresh, which
            trades classic-mode latency for a liveness corner: stock within
            the demarcation slack of the bound becomes unsellable until a
            classic round runs (ablated in benchmarks).
        gamma_policy: "static" (the paper's fixed γ) or "adaptive" — the
            §5.3.2 future-work policy where the classic horizon tracks the
            observed per-record collision spacing (see
            :mod:`repro.core.fastpolicy`).
        adaptive_gamma_min / adaptive_gamma_max / adaptive_window_ms:
            adaptive-policy tuning — initial/maximum horizon and the
            collision-spacing window that counts as "contended".
        learn_timeout_ms: coordinator wait before escalating an unlearned
            option to the master (StartRecovery), Algorithm 1 line 19.
        recovery_timeout_ms: wait on a master during recovery before trying
            the next master candidate (master failover).
        visibility_batch_ms: buffer visibility notifications per destination
            for this long and ship them as one
            :class:`~repro.core.messages.VisibilityBatch` (§7's "batching
            techniques that reduce the message overhead"), across
            transactions.  0, the default, batches within a transaction
            only: one message per replica set, sent at once.
            Visibilities are off the commit critical path, so batching
            trades a bounded visibility delay for fewer wide-area messages.
    """

    replication: int = 5
    variant: ProtocolVariant = ProtocolVariant.MDCC
    gamma: int = 100
    commutative_gamma: Optional[int] = None
    gamma_policy: str = "static"
    adaptive_gamma_min: int = 8
    adaptive_gamma_max: int = 1_024
    adaptive_window_ms: float = 5_000.0
    #: §3.4.2's quorum demarcation limit.  Disabling it leaves plain
    #: per-node escrow, which quorum reordering can drive past a global
    #: constraint (Figure 2's scenario) — kept as an ablation knob to
    #: demonstrate exactly that failure.
    demarcation_enabled: bool = True
    learn_timeout_ms: float = 2_000.0
    recovery_timeout_ms: float = 3_000.0
    visibility_batch_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")
        if self.commutative_gamma is not None and self.commutative_gamma < 0:
            raise ValueError("commutative_gamma must be non-negative")
        if self.gamma_policy not in ("static", "adaptive"):
            raise ValueError(
                f"unknown gamma_policy {self.gamma_policy!r}; "
                "choose 'static' or 'adaptive'"
            )
        if self.adaptive_gamma_min < 1:
            raise ValueError("adaptive_gamma_min must be at least 1")
        if self.adaptive_gamma_max < self.adaptive_gamma_min:
            raise ValueError("adaptive_gamma_max must be >= adaptive_gamma_min")
        if self.adaptive_window_ms <= 0:
            raise ValueError("adaptive_window_ms must be positive")
        if self.learn_timeout_ms <= 0 or self.recovery_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if self.visibility_batch_ms < 0:
            raise ValueError("visibility_batch_ms must be non-negative")

    @property
    def quorums(self) -> QuorumSpec:
        """Derived quorum sizes — (classic 3, fast 4) at replication 5."""
        return QuorumSpec.for_replication(self.replication)

    @property
    def effective_commutative_gamma(self) -> int:
        return self.gamma if self.commutative_gamma is None else self.commutative_gamma

    @property
    def fast_ballots_enabled(self) -> bool:
        return self.variant.fast_ballots

    @property
    def commutative_enabled(self) -> bool:
        return self.variant.commutative

    def with_variant(self, variant: ProtocolVariant) -> "MDCCConfig":
        from dataclasses import replace

        return replace(self, variant=variant)
