"""Cluster builder: a five-data-center deployment of any protocol.

Builds the simulation substrate (network + storage nodes + app servers)
for the protocol under test and pre-loads tables, mirroring the paper's
setup (§5.1): every data center holds a full replica, tables are
partitioned across storage nodes within a data center, and clients are
app-server nodes in a chosen data center.

:class:`Cluster` itself is transport-neutral — one process's view of a
deployment.  :func:`build_cluster` hosts every storage node in this
process over the simulator; over TCP a ``repro serve`` process hosts one
and the driver hosts none (:mod:`repro.transport.runner`).

Which protocols exist, how their roles are built, and what features they
can run all come from the :mod:`repro.protocols.base` registry — this
module asks the :class:`~repro.protocols.base.Protocol` descriptor and
never branches on a protocol name.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

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

__all__ = ["Cluster", "build_cluster", "PROTOCOLS"]


class Cluster:
    """A running deployment: substrate + storage nodes + app servers."""

    def __init__(
        self,
        protocol: str,
        transport: Transport,
        placement: ReplicaMap,
        config: MDCCConfig,
        counters: CounterSet,
        rng: RngRegistry,
    ) -> None:
        self.protocol = protocol
        #: the registry descriptor: role factories + capability flags.
        self.descriptor = get_protocol(protocol)
        self.transport = transport
        # Simulator-backed deployments expose the substrate for drivers
        # (sim.run_until, fault injection); None over other backends.
        self.sim = getattr(transport, "sim", None)
        self.network = getattr(transport, "network", None)
        self.placement = placement
        self.config = config
        self.counters = counters
        self.rng = rng
        self.storage_nodes: Dict[str, object] = {}
        self.clients: List[object] = []
        self._client_seq = itertools.count(1)
        self._schemas: Dict[str, TableSchema] = {}
        #: the adaptive-placement control plane (None under static policies).
        self.placement_manager = None
        #: elastic-membership state (None unless built with elastic=True).
        self.membership = None
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
        commutative = (
            self.descriptor.supports_commutative and self.config.commutative_enabled
        )
        return Transaction(
            client, commutative=commutative, serializable=serializable
        )

    # ------------------------------------------------------------------
    # Elastic membership (storage-node lifecycle)
    # ------------------------------------------------------------------
    def add_datacenter_nodes(self, dc: str) -> List[str]:
        """Build and register ``dc``'s storage nodes at runtime (a join).

        The new nodes carry every registered table schema but no data —
        the reconfig manager's snapshot bootstrap fills them.  Elastic
        clusters only (``supports_elastic`` gates the build).
        """
        node_ids: List[str] = []
        for partition in range(self.placement.partitions_per_table):
            node_id = self.placement.storage_node_id(dc, partition)
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
            node_ids.append(node_id)
        return node_ids

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
    protocol: str = "mdcc",
    datacenters: Sequence[str] = EC2_REGIONS,
    partitions_per_table: int = 1,
    master_policy: str = "hash",
    table_master_dc: Optional[Dict[str, str]] = None,
    seed: int = 0,
    jitter_sigma: float = 0.06,
    config: Optional[MDCCConfig] = None,
    rtt_matrix=None,
    migration_policy=None,
    placement_scan_ms: float = 1_000.0,
    tracker_halflife_ms: float = 10_000.0,
    elastic: bool = False,
) -> Cluster:
    """Assemble a full deployment of ``protocol`` over ``datacenters``.

    ``master_policy="adaptive"`` additionally deploys a
    :class:`~repro.placement.manager.PlacementManager` that migrates
    per-record mastership toward the dominant write-origin data center
    (``migration_policy`` tunes its thresholds, ``placement_scan_ms`` its
    cadence, ``tracker_halflife_ms`` the write-origin decay).  Mastership
    migration runs over the MDCC master machinery, so it is limited to the
    MDCC variants.

    ``elastic=True`` attaches a
    :class:`~repro.reconfig.directory.MembershipDirectory` and deploys a
    :class:`~repro.reconfig.manager.ReconfigManager`
    (``cluster.reconfig``) so data centers can join or leave at runtime
    with epoch-fenced quorum resizing.  Like adaptive placement, elastic
    membership runs over the MDCC master machinery and is limited to the
    MDCC variants.  The reconfig control plane lives in the *first* data
    center — fault scenarios that kill that DC stall membership
    operations themselves (by design: the manager is an ordinary node,
    not an oracle), so schedules should pick their victims elsewhere.
    """
    descriptor = get_protocol(protocol)
    if descriptor.single_entity_group and partitions_per_table != 1:
        # The paper's Megastore* places all data in a single entity group
        # ("we placed all data into a single entity group", §5.2): one log.
        raise ValueError(f"{protocol} uses a single entity group: 1 partition")
    if master_policy == "adaptive":
        descriptor.require("supports_placement", "adaptive master placement")
    if elastic:
        descriptor.require("supports_elastic", "elastic membership")
    rng = RngRegistry(seed=seed)
    sim = Simulator()
    latency = LatencyModel(
        rtt_matrix=rtt_matrix, jitter_sigma=jitter_sigma, rng_registry=rng
    )
    network = Network(sim, latency_model=latency, rng_registry=rng)
    transport = SimTransport(sim, network)
    # No-op unless a tracer is ambient (repro.trace.runtime.install);
    # untraced runs keep the unwrapped network hot path.
    instrument_sim_transport(transport)
    membership = None
    if elastic:
        from repro.reconfig.directory import MembershipDirectory

        membership = MembershipDirectory(datacenters)
    placement = ReplicaMap(
        datacenters,
        partitions_per_table=partitions_per_table,
        master_policy=master_policy,
        table_master_dc=table_master_dc,
        tracker_halflife_ms=tracker_halflife_ms,
        membership=membership,
    )
    if config is None:
        config = descriptor.default_config(len(placement.datacenters))
    elif config.replication != len(placement.datacenters):
        raise ValueError(
            f"config.replication={config.replication} does not match "
            f"{len(placement.datacenters)} data centers"
        )
    counters = CounterSet()
    cluster = Cluster(
        protocol=protocol,
        transport=transport,
        placement=placement,
        config=config,
        counters=counters,
        rng=rng,
    )
    cluster.storage_nodes = _build_storage_nodes(cluster)
    if membership is not None:
        from repro.reconfig.manager import ReconfigManager

        cluster.membership = membership
        cluster.reconfig = ReconfigManager(
            transport,
            f"reconfig-{membership.active[0]}",
            membership.active[0],
            cluster=cluster,
            membership=membership,
            counters=counters,
        )
    if placement.is_adaptive:
        from repro.placement.manager import PlacementManager

        cluster.placement_manager = PlacementManager(
            transport,
            f"placement-{placement.datacenters[0]}",
            placement.datacenters[0],
            placement=placement,
            config=config,
            counters=counters,
            policy=migration_policy,
            scan_ms=placement_scan_ms,
        )
        cluster.placement_manager.start()
    return cluster


def _build_storage_nodes(cluster: Cluster) -> Dict[str, object]:
    nodes: Dict[str, object] = {}
    for dc in cluster.placement.datacenters:
        for partition in range(cluster.placement.partitions_per_table):
            node_id = cluster.placement.storage_node_id(dc, partition)
            nodes[node_id] = cluster.descriptor.make_storage_node(
                cluster.transport,
                node_id,
                dc,
                placement=cluster.placement,
                config=cluster.config,
                counters=cluster.counters,
            )
    return nodes
