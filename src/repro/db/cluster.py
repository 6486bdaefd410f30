"""One deployment description and one builder, for both transports.

The paper runs every protocol on one deployment (§5.1): every data
center holds a full replica, tables are range-partitioned across storage
nodes within a data center, and clients are app-server nodes in a chosen
data center.  This module states that deployment once:

* :class:`ClusterSpec` — what to deploy: protocol, data centers,
  partitioning, master placement, seed, the MDCC tunables, elastic
  membership.  Every rule about what may be deployed lives in its
  ``__post_init__``; :meth:`ClusterSpec.placement` and
  :meth:`ClusterSpec.config` derive the replica map (the one owner of
  replication and quorum sizes) and the
  :class:`~repro.core.config.MDCCConfig` from it — the only way a
  cluster gets either.
* :class:`Cluster` — one process's view of a running deployment, built
  from a spec and a transport.  Its constructor is the one place a
  deployment's placement, config, RNG streams and counters come from,
  whichever transport carries the messages.
* :func:`build_cluster` — the simulator deployment: every storage node
  in this process.  Over TCP a ``repro serve`` process hosts one storage
  node and the driver hosts none (:mod:`repro.transport.runner`); both
  build the same :class:`Cluster` from the topology file's spec.

Which protocols exist, how their roles are built, and what features they
can run all come from the :mod:`repro.protocols.base` registry — this
module asks the :class:`~repro.protocols.base.Protocol` descriptor and
never branches on a protocol name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple, get_args, get_origin, get_type_hints

from repro.core.config import MDCCConfig
from repro.core.options import RecordId
from repro.core.recovery import RecoveryAgent
from repro.core.topology import ReplicaMap
from repro.db.client import Transaction
from repro.metrics import CounterSet
from repro.protocols.base import PROTOCOLS, get_protocol
from repro.sim.core import Simulator
from repro.sim.network import EC2_REGIONS, LatencyModel, Network
from repro.sim.rng import RngRegistry
from repro.trace.runtime import instrument_sim_transport
from repro.transport.base import Transport
from repro.transport.simnet import SimTransport
from repro.storage.schema import TableSchema

__all__ = ["Cluster", "ClusterSpec", "build_cluster", "PROTOCOLS"]

@dataclass(frozen=True)
class ClusterSpec:
    """The deployment half of an experiment: what cluster to build.

    Attributes:
        protocol: any of :data:`PROTOCOLS` — the three MDCC variants or a
            baseline.
        datacenters: initial membership; ``None`` means the paper's five
            EC2 regions.
        partitions_per_table: storage nodes per table per data center
            (Megastore* always collapses to 1 — single entity group).
        master_policy: ``"hash"``, ``"adaptive"`` or ``"fixed:<dc>"``;
            ``None`` defers to the context default (``"hash"``, or a
            fault schedule's hint).
        seed: the experiment seed — every RNG stream derives from it.
        gamma / gamma_policy / batch_ms / demarcation: the MDCC tunables
            (γ and its policy, §3.3.2; the visibility batching window;
            §3.4.2's demarcation limit).  The CLI exposes all but γ,
            which the γ ablation sets from Python.  Protocols outside the
            MDCC engine ignore them.
        elastic: build the cluster reconfigurable (runtime DC join/leave).
    """

    protocol: str = "mdcc"
    datacenters: Optional[Tuple[str, ...]] = None
    partitions_per_table: int = 2
    master_policy: Optional[str] = None
    seed: int = 1
    gamma: int = 100
    gamma_policy: str = "static"
    batch_ms: float = 0.0
    demarcation: bool = True
    elastic: bool = False

    def __post_init__(self) -> None:
        descriptor = get_protocol(self.protocol)  # raises on unknown names
        if self.datacenters is not None:
            object.__setattr__(self, "datacenters", tuple(self.datacenters))
            if len(self.datacenters) < 2:
                raise ValueError("need at least two data centers")
            if len(set(self.datacenters)) != len(self.datacenters):
                raise ValueError("duplicate data center")
            unknown = [dc for dc in self.datacenters if dc not in EC2_REGIONS]
            if unknown:
                raise ValueError(
                    f"unknown data center(s) {', '.join(unknown)}; "
                    f"choose from {', '.join(EC2_REGIONS)}"
                )
        if self.partitions_per_table < 1:
            raise ValueError("partitions_per_table must be positive")
        policies = ("hash", "adaptive") + tuple(
            f"fixed:{dc}" for dc in self.effective_datacenters
        )
        if self.master_policy is not None and self.master_policy not in policies:
            raise ValueError(
                f"unknown master policy {self.master_policy!r}; "
                f"choose from {', '.join(policies)}"
            )
        if self.master_policy == "adaptive":
            descriptor.require("supports_placement", "adaptive master placement")
        if self.elastic:
            descriptor.require("supports_elastic", "elastic membership")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")
        if self.gamma_policy not in ("static", "adaptive"):
            raise ValueError(
                f"unknown gamma_policy {self.gamma_policy!r}; "
                "choose 'static' or 'adaptive'"
            )
        if self.batch_ms < 0:
            raise ValueError("batch_ms must be non-negative")

    @property
    def effective_datacenters(self) -> Tuple[str, ...]:
        return self.datacenters if self.datacenters is not None else EC2_REGIONS

    @property
    def effective_partitions(self) -> int:
        # The paper's Megastore* places all data in a single entity group
        # ("we placed all data into a single entity group", §5.2): one log.
        if get_protocol(self.protocol).single_entity_group:
            return 1
        return self.partitions_per_table

    def placement(self, **tuning: float) -> ReplicaMap:
        """The replica map this spec describes; ``tuning`` holds the
        :class:`ReplicaMap` keywords no spec field describes (the adaptive
        policy's ``tracker_halflife_ms``)."""
        membership = None
        if self.elastic:
            from repro.reconfig.directory import MembershipDirectory

            membership = MembershipDirectory(self.effective_datacenters)
        return ReplicaMap(
            self.effective_datacenters,
            partitions_per_table=self.effective_partitions,
            master_policy=self.master_policy or "hash",
            membership=membership,
            **tuning,
        )

    def config(self) -> MDCCConfig:
        """The :class:`MDCCConfig` this spec describes."""
        return get_protocol(self.protocol).make_config(
            gamma=self.gamma,
            gamma_policy=self.gamma_policy,
            visibility_batch_ms=self.batch_ms,
            demarcation_enabled=self.demarcation,
        )

    def to_dict(self) -> Dict[str, object]:
        data = {spec_field.name: getattr(self, spec_field.name) for spec_field in fields(self)}
        if self.datacenters is not None:
            data["datacenters"] = list(self.datacenters)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClusterSpec":
        return cls(**checked_fields(cls, data))


def checked_fields(cls: Any, data: Dict[str, object]) -> Dict[str, Any]:
    """``data``, a parsed JSON object, as constructor keywords of spec
    class ``cls``.  An unknown key or a value of the wrong JSON type is
    refused loudly, naming the field: a spec file must not half-apply."""
    hints = get_type_hints(cls)
    known = [spec_field.name for spec_field in fields(cls)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
        )
    return {
        name: _json_value(f"{cls.__name__}.{name}", hints[name], value)
        for name, value in data.items()
    }


def _json_value(where: str, expected: Any, value: object) -> Any:
    """``value`` as the annotated type ``expected`` of field ``where``.
    JSON has no tuples or nested specs: a list of strings becomes a tuple
    and an object becomes the nested spec (``ScenarioSpec.cluster``)."""
    options = get_args(expected)
    optional = type(None) in options
    if optional:
        if value is None:
            return None
        (expected,) = [option for option in options if option is not type(None)]
    if expected is bool:
        kind, ok = "true or false", isinstance(value, bool)
    elif expected is int:
        kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif expected is float:
        kind = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif expected is str:
        kind, ok = "a string", isinstance(value, str)
    elif get_origin(expected) is tuple:
        kind = "a list of strings"
        ok = isinstance(value, (list, tuple)) and all(isinstance(item, str) for item in value)
        if ok:
            value = tuple(value)
    else:  # a nested spec
        if isinstance(value, dict):
            return expected.from_dict(value)
        kind, ok = "an object", False
    if not ok:
        raise ValueError(
            f"{where} must be {kind}{' or null' if optional else ''}, got {value!r}"
        )
    return value


class Cluster:
    """A running deployment: substrate + storage nodes + app servers.

    Built from a :class:`ClusterSpec` and the transport that carries its
    messages; the constructor derives the placement, config, RNG streams
    and counters, and hosts no storage node — the caller adds the ones
    this process serves.  ``rng`` is the spec's stream registry when the
    transport was built on it first (the simulated network draws its
    jitter from it); ``tuning`` goes to :meth:`ClusterSpec.placement`.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        transport: Transport,
        *,
        rng: Optional[RngRegistry] = None,
        **tuning: float,
    ) -> None:
        self.protocol = spec.protocol
        #: the registry descriptor: role factories + capability flags.
        self.descriptor = get_protocol(spec.protocol)
        self.transport = transport
        # Simulator-backed deployments expose the substrate for drivers
        # (sim.run_until, fault injection); None over other backends.
        self.sim = getattr(transport, "sim", None)
        self.network = getattr(transport, "network", None)
        self.placement = spec.placement(**tuning)
        self.config = spec.config()
        self.counters = CounterSet()
        self.rng = rng if rng is not None else RngRegistry(seed=spec.seed)
        self.storage_nodes: Dict[str, object] = {}
        self.clients: List[object] = []
        self._client_seq = itertools.count(1)
        self._schemas: Dict[str, TableSchema] = {}
        #: the adaptive-placement control plane (None under static policies).
        self.placement_manager = None
        #: elastic-membership state (None unless the spec is elastic).
        self.membership = self.placement.membership
        self.reconfig = None

    # ------------------------------------------------------------------
    # Tables and data
    # ------------------------------------------------------------------
    def register_table(self, schema: TableSchema) -> None:
        """Register ``schema`` on every storage node."""
        self._schemas[schema.name] = schema
        for node in self.storage_nodes.values():
            node.store.register_table(schema)

    def schema(self, table: str) -> TableSchema:
        """The registered schema of ``table``."""
        return self._schemas[table]

    def load_record(self, table: str, key: str, value: Dict[str, object]) -> None:
        """Pre-load a committed record (version 1) on all replicas this
        process hosts — every replica under the simulator, one storage
        node's share in a ``repro serve`` process."""
        record = RecordId(table, key)
        for node_id in self.placement.replicas(record):
            node = self.storage_nodes.get(node_id)
            if node is not None:
                node.store.record(table, key).commit_value(value)

    def read_committed(self, table: str, key: str, dc: Optional[str] = None):
        """Directly inspect a replica's committed snapshot (no messages)."""
        record = RecordId(table, key)
        dc = dc or self.placement.datacenters[0]
        node = self.storage_nodes[self.placement.replica_in(record, dc)]
        return node.store.read(table, key)

    def committed_snapshots(self, table: str, key: str):
        """The committed snapshot at every replica (for convergence checks)."""
        record = RecordId(table, key)
        return {
            node_id: self.storage_nodes[node_id].store.read(table, key)
            for node_id in self.placement.replicas(record)
        }

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def add_client(self, dc: str, name: Optional[str] = None):
        """Create an app-server node in ``dc`` speaking this protocol."""
        node_id = name or f"app-{dc}-{next(self._client_seq)}"
        client = self._make_client(node_id, dc)
        self.clients.append(client)
        return client

    def _make_client(self, node_id: str, dc: str):
        return self.descriptor.make_client(
            self.transport,
            node_id,
            dc,
            placement=self.placement,
            config=self.config,
            counters=self.counters,
        )

    def add_recovery_agent(self, dc: str, name: Optional[str] = None) -> RecoveryAgent:
        node_id = name or f"recovery-{dc}-{next(self._client_seq)}"
        return RecoveryAgent(
            self.transport,
            node_id,
            dc,
            placement=self.placement,
            config=self.config,
            counters=self.counters,
        )

    def add_anti_entropy_agent(self, dc: str, name: Optional[str] = None):
        """A background replica-repair process (post-outage catch-up)."""
        from repro.core.antientropy import AntiEntropyAgent

        node_id = name or f"antientropy-{dc}-{next(self._client_seq)}"
        return AntiEntropyAgent(
            self.transport,
            node_id,
            dc,
            placement=self.placement,
            config=self.config,
            counters=self.counters,
        )

    def begin(self, client, serializable: bool = False) -> Transaction:
        """Start a transaction on ``client`` (an app-server node).

        ``serializable=True`` enables §4.4 read-set validation on commit —
        available on protocols whose storage nodes validate read versions
        (the ``supports_serializable`` capability); the eventually
        consistent and Megastore* baselines have no machinery for it.
        """
        if serializable and not self.descriptor.supports_serializable:
            raise ValueError(
                f"protocol {self.protocol!r} does not support serializable "
                "transactions"
            )
        variant = self.descriptor.variant
        return Transaction(
            client,
            commutative=variant is not None and variant.commutative,
            serializable=serializable,
        )

    # ------------------------------------------------------------------
    # Elastic membership (storage-node lifecycle)
    # ------------------------------------------------------------------
    def add_datacenter_nodes(self, dc: str) -> List[str]:
        """Build and register ``dc``'s storage nodes — every data center's
        at build time, a joining one's at runtime.

        The new nodes carry every registered table schema but no data —
        on a join the reconfig manager's snapshot bootstrap fills them
        (elastic clusters only: ``supports_elastic`` gates the build).
        """
        node_ids = [
            self.placement.storage_node_id(dc, partition)
            for partition in range(self.placement.partitions_per_table)
        ]
        for node_id in node_ids:
            self.add_storage_node(node_id, dc)
        return node_ids

    def add_storage_node(self, node_id: str, dc: str):
        """Build and register one storage node of ``dc`` hosted in this
        process, carrying every registered table schema."""
        node = self.descriptor.make_storage_node(
            self.transport,
            node_id,
            dc,
            placement=self.placement,
            config=self.config,
            counters=self.counters,
        )
        for schema in self._schemas.values():
            node.store.register_table(schema)
        self.storage_nodes[node_id] = node
        return node

    def drop_datacenter_nodes(self, dc: str) -> List[str]:
        """Deregister and forget ``dc``'s storage nodes (a decommission)."""
        dropped: List[str] = []
        for node_id in sorted(self.storage_nodes):
            if self.storage_nodes[node_id].dc == dc:
                self.transport.deregister(node_id)
                del self.storage_nodes[node_id]
                dropped.append(node_id)
        return dropped

    # ------------------------------------------------------------------
    # Failure injection passthroughs
    # ------------------------------------------------------------------
    def fail_datacenter(self, dc: str) -> None:
        self.network.fail_datacenter(dc)

    def recover_datacenter(self, dc: str) -> None:
        self.network.recover_datacenter(dc)


def build_cluster(
    spec: ClusterSpec = ClusterSpec(),
    *,
    jitter_sigma: float = 0.06,
    migration_policy=None,
    placement_scan_ms: float = 1_000.0,
    tracker_halflife_ms: float = 10_000.0,
) -> Cluster:
    """Deploy ``spec`` over the simulator: every storage node of every
    data center in this process.

    The keywords are what a spec does not describe: ``jitter_sigma`` the
    WAN latency jitter, and for the adaptive policy
    ``migration_policy`` (the migration thresholds), ``placement_scan_ms``
    (the scan cadence) and ``tracker_halflife_ms`` (the write-origin
    decay).

    ``master_policy="adaptive"`` additionally deploys a
    :class:`~repro.placement.manager.PlacementManager` that migrates
    per-record mastership toward the dominant write-origin data center.
    ``elastic=True`` deploys a :class:`~repro.reconfig.manager.ReconfigManager`
    (``cluster.reconfig``) so data centers can join or leave at runtime
    with epoch-fenced quorum resizing.  Both run over the MDCC master
    machinery; the spec admits them for the MDCC variants only.  The
    reconfig control plane lives in the *first* data center — fault
    scenarios that kill that DC stall membership operations themselves (by
    design: the manager is an ordinary node, not an oracle), so schedules
    should pick their victims elsewhere.
    """
    rng = RngRegistry(seed=spec.seed)
    sim = Simulator()
    latency = LatencyModel(jitter_sigma=jitter_sigma, rng_registry=rng)
    network = Network(sim, latency_model=latency, rng_registry=rng)
    transport = SimTransport(sim, network)
    # No-op unless a tracer is ambient (repro.trace.runtime.install);
    # untraced runs keep the unwrapped network hot path.
    instrument_sim_transport(transport)
    cluster = Cluster(
        spec,
        transport,
        rng=rng,
        tracker_halflife_ms=tracker_halflife_ms,
    )
    placement = cluster.placement
    for dc in placement.datacenters:
        cluster.add_datacenter_nodes(dc)
    membership = cluster.membership
    if membership is not None:
        from repro.reconfig.manager import ReconfigManager

        cluster.reconfig = ReconfigManager(
            transport,
            f"reconfig-{membership.active[0]}",
            membership.active[0],
            cluster=cluster,
            membership=membership,
            counters=cluster.counters,
        )
    if placement.is_adaptive:
        from repro.placement.manager import PlacementManager

        cluster.placement_manager = PlacementManager(
            transport,
            f"placement-{placement.datacenters[0]}",
            placement.datacenters[0],
            placement=placement,
            config=cluster.config,
            counters=cluster.counters,
            policy=migration_policy,
            scan_ms=placement_scan_ms,
        )
        cluster.placement_manager.start()
    return cluster
