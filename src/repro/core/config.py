"""Protocol configuration: variants, tunables, timeouts.

The evaluation compares three MDCC configurations (§5.3.1):

* **MDCC** — "our full featured protocol": fast ballots + commutative
  updates with demarcation.
* **Fast** — fast ballots "without the commutative update support":
  commutative client updates are converted to version-guarded physical
  writes.
* **Multi** — "all instances being Multi-Paxos (a stable master can skip
  Phase 1)": every update routes through the record's master.

:class:`ProtocolVariant` selects among them; :class:`MDCCConfig` carries
the other tunables a deployment varies (γ and its policy, §3.3.2;
demarcation, §3.4.2; visibility batching).  The timeouts are fixed
module constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["LEARN_TIMEOUT_MS", "MDCCConfig", "ProtocolVariant", "RECOVERY_TIMEOUT_MS"]

#: Coordinator wait before escalating an unlearned option to the master
#: (StartRecovery), Algorithm 1 line 19; the baselines scale their
#: prepare/vote/read budgets from it.
LEARN_TIMEOUT_MS = 2_000.0

#: Wait on a master during recovery (or a master's Phase 1/2 round)
#: before trying again or moving to the next master candidate.
RECOVERY_TIMEOUT_MS = 3_000.0


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
    """The tunables a :class:`~repro.db.cluster.ClusterSpec` sets on one
    MDCC deployment (:meth:`~repro.db.cluster.ClusterSpec.config` is the
    one producer).  Quorum sizes are not here: they belong to the replica
    map (:meth:`~repro.core.topology.ReplicaMap.quorums`).

    Attributes:
        variant: MDCC / Fast / Multi (see :class:`ProtocolVariant`).
        gamma: classic instances scheduled after a collision before fast
            ballots are probed again — "we set the next γ instances
            (default 100) to classic" (§3.3.2).  A demarcation-limit hit
            counts as a collision (§3.4.2: "handles it as a collision,
            resolves it by switching to classic ballots").
        gamma_policy: "static" (the paper's fixed γ) or "adaptive" — the
            §5.3.2 future-work policy where the classic horizon tracks the
            observed per-record collision spacing (see
            :mod:`repro.core.fastpolicy`).
        demarcation_enabled: §3.4.2's quorum demarcation limit.  Disabling
            it leaves plain per-node escrow, which quorum reordering can
            drive past a global constraint (Figure 2's scenario) — kept as
            an ablation knob to demonstrate exactly that failure.
        visibility_batch_ms: buffer visibility notifications per destination
            for this long and ship them as one
            :class:`~repro.core.messages.VisibilityBatch` (§7's "batching
            techniques that reduce the message overhead"), across
            transactions.  0, the default, batches within a transaction
            only: one message per replica set, sent at once.
            Visibilities are off the commit critical path, so batching
            trades a bounded visibility delay for fewer wide-area messages.
    """

    variant: ProtocolVariant = ProtocolVariant.MDCC
    gamma: int = 100
    gamma_policy: str = "static"
    demarcation_enabled: bool = True
    visibility_batch_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")
        if self.gamma_policy not in ("static", "adaptive"):
            raise ValueError(
                f"unknown gamma_policy {self.gamma_policy!r}; "
                "choose 'static' or 'adaptive'"
            )
        if self.visibility_batch_ms < 0:
            raise ValueError("visibility_batch_ms must be non-negative")

    @property
    def fast_ballots_enabled(self) -> bool:
        return self.variant.fast_ballots

    @property
    def commutative_enabled(self) -> bool:
        return self.variant.commutative
