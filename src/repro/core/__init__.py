"""The MDCC commit protocol — the paper's primary contribution.

Modules map onto the paper's pseudocode (Algorithms 1-3):

* :mod:`repro.core.options` — options ω(up, ✓/✗), physical and commutative
  updates, the cstruct command type (§3.2).
* :mod:`repro.core.messages` — the wire messages of Algorithms 1-3.
* :mod:`repro.core.config` — protocol knobs: the γ fast/classic policy,
  demarcation, visibility batching, timeouts, and the evaluation's
  "MDCC"/"Fast"/"Multi" variants.  Quorum sizes come from the placement
  (:class:`repro.core.topology.ReplicaMap`).
* :mod:`repro.core.fastpolicy` — when a collided record tries fast
  ballots again (§3.3.2).
* :mod:`repro.core.demarcation` — quorum demarcation limits for value
  constraints (§3.4.2).
* :mod:`repro.core.state` — per-record acceptor state (ballots, cstruct,
  pending options, base values).
* :mod:`repro.core.storage_node` — the acceptor role (Algorithm 3) on the
  node that also hosts masters.
* :mod:`repro.core.master` — the leader role: Phase 1/2, collision recovery,
  base refresh (Algorithm 2).
* :mod:`repro.core.coordinator` — the app-server transaction manager
  (Algorithm 1).
* :mod:`repro.core.recovery` — dangling-transaction reconstruction (§3.2.3).
* :mod:`repro.core.antientropy` — replica repair after a failure heals.
* :mod:`repro.core.topology` — replica placement and master policies.
"""

from repro.core.config import MDCCConfig, ProtocolVariant
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    RecordId,
)
from repro.core.coordinator import MDCCCoordinator, TransactionOutcome, WriteSet
from repro.core.storage_node import MDCCStorageNode
from repro.core.topology import ReplicaMap

__all__ = [
    "CommutativeUpdate",
    "MDCCConfig",
    "MDCCCoordinator",
    "MDCCStorageNode",
    "Option",
    "OptionStatus",
    "PhysicalUpdate",
    "ProtocolVariant",
    "RecordId",
    "ReplicaMap",
    "TransactionOutcome",
    "WriteSet",
]
