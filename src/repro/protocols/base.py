"""The protocol abstraction layer: one contract for every protocol.

The paper's evaluation (§5.2) compares five replica-management designs —
the MDCC engine in three configurations, and the 2PC / quorum-writes /
Megastore* baselines — "implemented ... using the same distributed store,
and accessed by the same clients".  This module is that comparison
surface as code: a :class:`Protocol` descriptor names each protocol's

* **role factories** — how to build its app-server client and its
  storage-node replica over any :class:`~repro.transport.base.Transport`;
* **capability flags** — which cluster features it can run (adaptive
  placement, elastic membership, causal tracing, serializable reads,
  §3.2.3 recovery, the TCP backend); commutative updates follow from its
  :class:`~repro.core.config.ProtocolVariant`;
* **vocabulary** — its conflict/abort reasons and causal trace span
  kinds, and which named chaos schedules its guarantees are gated on.

Everything that used to special-case protocol names — cluster wiring,
spec validation, the run driver, the chaos controller, CLI choices —
asks the registry instead.  Adding a protocol means registering one
descriptor here; no other layer grows an ``if protocol ==`` branch.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.core.config import MDCCConfig, ProtocolVariant
from repro.faults.schedule import NAMED_SCHEDULES
from repro.protocols.participant import REASONS

if TYPE_CHECKING:  # typing only: the registry must stay import-cheap
    from repro.core.topology import ReplicaMap
    from repro.metrics import CounterSet
    from repro.transport.base import Transport

__all__ = [
    "PROTOCOLS",
    "Protocol",
    "get_protocol",
    "protocols_supporting",
    "register_protocol",
]

#: Capability-flag names :func:`protocols_supporting` accepts (also the
#: columns of the README capability matrix).
CAPABILITY_FLAGS = (
    "supports_placement",
    "supports_elastic",
    "supports_tracing",
    "supports_serializable",
    "supports_recovery",
    "supports_tcp",
)

#: Factory signature shared by both roles: positional (transport,
#: node_id, dc), keyword placement/config/counters.
RoleFactory = Callable[..., object]


@dataclass(frozen=True)
class Protocol:
    """One replica-management protocol as a first-class descriptor.

    Attributes:
        name: the CLI/spec identifier (``"mdcc"``, ``"2pc"``, ...).
        summary: one line for ``repro compare`` output and docs.
        variant: the :class:`ProtocolVariant` configuring the MDCC engine,
            or ``None`` for protocols with their own state machines.
        client_factory / storage_factory: build the app-server and
            storage-node roles (lazy imports keep the registry cheap).
        supports_placement: adaptive mastership migration can run.
        supports_elastic: runtime DC join/leave (epoch-fenced quorums).
        supports_tracing: the roles emit causal trace spans.
        supports_serializable: §4.4 read-set validation at commit.
        supports_recovery: §3.2.3 recovery agents can finish its dangling
            transactions (gates the coordinator-crash chaos fault).
        supports_tcp: the roles run over ``AsyncioTcpTransport``.
        single_entity_group: all data shares one partition (Megastore*).
        preferred_client_dc: pin clients to one DC when unset (the paper
            places Megastore* clients with its master in US-West).
        chaos_schedules: named fault schedules this protocol's guarantees
            are gated on in the chaos matrix.
        trace_span_kinds: the span vocabulary its roles emit.
        abort_reasons: the conflict/abort vocabulary its commit path can
            decide (empty for protocols that never abort).
    """

    name: str
    summary: str
    variant: Optional[ProtocolVariant] = None
    client_factory: Optional[RoleFactory] = field(default=None, repr=False)
    storage_factory: Optional[RoleFactory] = field(default=None, repr=False)
    supports_placement: bool = False
    supports_elastic: bool = False
    supports_tracing: bool = False
    supports_serializable: bool = False
    supports_recovery: bool = False
    supports_tcp: bool = False
    single_entity_group: bool = False
    preferred_client_dc: Optional[str] = None
    chaos_schedules: Tuple[str, ...] = ()
    trace_span_kinds: Tuple[str, ...] = ()
    abort_reasons: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Role construction (the commit-lifecycle entry points)
    # ------------------------------------------------------------------
    def make_client(
        self,
        transport: Transport,
        node_id: str,
        dc: str,
        *,
        placement: ReplicaMap,
        config: MDCCConfig,
        counters: CounterSet,
    ) -> object:
        """Build this protocol's app-server node (``read``/``commit``)."""
        if self.client_factory is None:
            raise ValueError(f"protocol {self.name!r} has no client factory")
        return self.client_factory(
            transport, node_id, dc,
            placement=placement, config=config, counters=counters,
        )

    def make_storage_node(
        self,
        transport: Transport,
        node_id: str,
        dc: str,
        *,
        placement: ReplicaMap,
        config: MDCCConfig,
        counters: CounterSet,
    ) -> object:
        """Build this protocol's storage-node replica."""
        if self.storage_factory is None:
            raise ValueError(f"protocol {self.name!r} has no storage factory")
        return self.storage_factory(
            transport, node_id, dc,
            placement=placement, config=config, counters=counters,
        )

    # ------------------------------------------------------------------
    # Capability gating (one wording for every door that asks)
    # ------------------------------------------------------------------
    def require(self, flag: str, feature: str) -> None:
        """Raise the canonical error unless capability ``flag`` is set."""
        if not getattr(self, flag):
            raise ValueError(
                f"{feature} requires an MDCC variant "
                f"({', '.join(protocols_supporting(flag))}); got {self.name!r}"
            )

    # ------------------------------------------------------------------
    # Engine configuration
    # ------------------------------------------------------------------
    def make_config(self, **tunables: Any) -> MDCCConfig:
        """The config a cluster of this protocol runs, with the engine
        ``tunables`` (:class:`MDCCConfig` keywords) applied — called by
        :meth:`~repro.db.cluster.ClusterSpec.config` only.

        Protocols outside the MDCC engine have nothing for the tunables to
        configure: they get the neutral default config (their roles take
        a ``config`` like every role) and the tunables are ignored.
        """
        if self.variant is None:
            return MDCCConfig()
        return MDCCConfig(variant=self.variant, **tunables)


# ----------------------------------------------------------------------
# Role factories
# ----------------------------------------------------------------------
def _role(path: str, **extra: Any) -> RoleFactory:
    """A factory for the role class at ``"module:Class"``, imported on
    first use: the registry must not pull every protocol module — or the
    trace/placement machinery — at import time.  ``extra`` keywords are
    passed to the constructor after the shared wiring."""
    module_name, _, class_name = path.partition(":")

    def make(transport: Transport, node_id: str, dc: str, **wiring: Any) -> object:
        role = getattr(importlib.import_module(module_name), class_name)
        return role(transport, node_id, dc, **wiring, **extra)

    return make


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Protocol] = {}


def register_protocol(protocol: Protocol) -> Protocol:
    """Add one descriptor to the registry (rejects duplicate names)."""
    if protocol.name in _REGISTRY:
        raise ValueError(f"protocol {protocol.name!r} already registered")
    _REGISTRY[protocol.name] = protocol
    return protocol


def get_protocol(name: str) -> Protocol:
    """The descriptor for ``name``; raises the canonical unknown error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {PROTOCOLS}"
        ) from None


def protocols_supporting(flag: str) -> Tuple[str, ...]:
    """Protocol names with capability ``flag``, in registry order."""
    if flag not in CAPABILITY_FLAGS:
        raise ValueError(
            f"unknown capability flag {flag!r}; choose from {CAPABILITY_FLAGS}"
        )
    return tuple(
        name for name, proto in _REGISTRY.items() if getattr(proto, flag)
    )


#: Network-level fault schedules: no protocol-specific recovery or
#: membership machinery required to survive them.
_NETWORK_SCHEDULES = ("dc-outage", "rolling-partitions", "flaky-wan")

_MDCC_SPANS = (
    "fast-accept",
    "phase1-takeover",
    "phase2-tally",
    "visibility-fanout",
    "recovery-escalation",
    "demarcation-check",
)

_MDCC_ABORTS = ("option-rejected", "demarcation-limit", "collision-recovery")


def _register_mdcc(name: str, variant: ProtocolVariant, summary: str) -> None:
    register_protocol(
        Protocol(
            name=name,
            summary=summary,
            variant=variant,
            client_factory=_role("repro.core.coordinator:MDCCCoordinator"),
            storage_factory=_role("repro.core.storage_node:MDCCStorageNode"),
            supports_placement=True,
            supports_elastic=True,
            supports_tracing=True,
            supports_serializable=True,
            supports_recovery=True,
            supports_tcp=True,
            chaos_schedules=NAMED_SCHEDULES,
            trace_span_kinds=_MDCC_SPANS,
            abort_reasons=_MDCC_ABORTS,
        )
    )


_register_mdcc(
    "mdcc",
    ProtocolVariant.MDCC,
    "the full protocol: fast ballots + commutative options (§3)",
)
_register_mdcc(
    "fast",
    ProtocolVariant.FAST,
    "fast ballots, physical (non-commutative) updates only (§5.3.1)",
)
_register_mdcc(
    "multi",
    ProtocolVariant.MULTI,
    "classic master-routed ballots, Multi-Paxos-style (§5.3.1)",
)

register_protocol(
    Protocol(
        name="repcommit",
        summary="Replicated Commit: Paxos across DCs over per-DC 2PC "
        "(Patterson et al.), majority reads",
        client_factory=_role(
            "repro.protocols.replicatedcommit:ReplicatedCommitClient"
        ),
        storage_factory=_role(
            "repro.protocols.replicatedcommit:ReplicatedCommitStorageNode"
        ),
        supports_tracing=True,
        supports_serializable=True,
        supports_tcp=True,
        chaos_schedules=_NETWORK_SCHEDULES,
        trace_span_kinds=("rc-local-prepare", "rc-paxos-vote", "rc-commit-apply"),
        abort_reasons=(*REASONS, "minority", "vote-timeout"),
    )
)

register_protocol(
    Protocol(
        name="2pc",
        summary="two-phase commit: two rounds to ALL replicas, blocking "
        "coordinator (§5.2)",
        client_factory=_role("repro.protocols.twopc:TwoPCCoordinator"),
        storage_factory=_role("repro.protocols.twopc:TwoPCStorageNode"),
        supports_serializable=True,
        abort_reasons=(*REASONS, "prepare-timeout"),
    )
)

for _qw_name, _quorum in (("qw3", 3), ("qw4", 4)):
    register_protocol(
        Protocol(
            name=_qw_name,
            summary=f"quorum writes (W={_quorum}): eventually consistent "
            "LWW, never aborts (§5.2)",
            client_factory=_role(
                "repro.protocols.quorumwrites:QuorumWriteClient",
                write_quorum=_quorum,
            ),
            storage_factory=_role(
                "repro.protocols.quorumwrites:QuorumWriteStorageNode"
            ),
        )
    )

register_protocol(
    Protocol(
        name="megastore",
        summary="Megastore*: one entity group, master-serialized log "
        "positions, Paxos-CP batching (§5.2)",
        client_factory=_role("repro.protocols.megastore:MegastoreClient"),
        storage_factory=_role("repro.protocols.megastore:MegastoreStorageNode"),
        single_entity_group=True,
        preferred_client_dc="us-west",
        abort_reasons=("log-position-conflict",),
    )
)

#: Registry order: the MDCC engine variants, then Replicated Commit, then
#: the §5.2 baselines — the order CLI choices and docs present them in.
PROTOCOLS: Tuple[str, ...] = tuple(_REGISTRY)
