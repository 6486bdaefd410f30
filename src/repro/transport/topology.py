"""Cluster topology files for the TCP backend.

``repro serve`` and ``repro run --transport tcp`` share one JSON file
describing the deployment, so every process independently derives the
same placement, configuration and preloaded data:

.. code-block:: json

    {
      "datacenters": ["us-west", "us-east", "eu-west"],
      "partitions_per_table": 1,
      "protocol": "mdcc",
      "seed": 1,
      "codec": "json",
      "nodes": {
        "storage-us-west-0": {"dc": "us-west", "host": "127.0.0.1", "port": 7101}
      },
      "workload": {"name": "micro", "items": 200, "min_stock": 100, "max_stock": 200}
    }

``nodes`` lists only the *server* processes (one per storage node);
driver/coordinator processes dial in and are reached over learned reply
routes, so they need no address.  ``seed`` feeds the data preload (every
replica loads identical stock values), the clients' transaction mix and
the framing-layer nemesis RNG.  ``workload`` parameterizes the one
:class:`~repro.workloads.micro.MicroBenchmark` every process builds
(:meth:`Topology.build_workload`): servers populate their replicas from
it, the driver runs its closed loop and ledger from it.

The four deployment keys — ``protocol``, ``datacenters``,
``partitions_per_table``, ``seed`` — are the
:class:`~repro.db.cluster.ClusterSpec` fields the file fixes; a key it
omits takes the spec's default.  They become a spec
(:meth:`Topology.spec`) only when a cluster is assembled, never on load:
a file may also describe bare transports — one data center, nodes that
are not storage nodes — that no spec admits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MDCCConfig
from repro.core.topology import ReplicaMap
from repro.db.cluster import ClusterSpec
from repro.protocols.base import get_protocol, protocols_supporting
from repro.sim.rng import RngRegistry
from repro.transport.base import TransportError
from repro.workloads.micro import MicroBenchmark

__all__ = ["CODECS", "NodeAddress", "Topology", "make_local_topology"]

#: Wire codec names a topology may ask for
#: (:func:`repro.transport.codec.resolve_codec` picks the implementation).
CODECS = ("json", "msgpack")


@dataclass(frozen=True)
class NodeAddress:
    dc: str
    host: str
    port: int


@dataclass
class Topology:
    """A parsed topology file."""

    datacenters: Tuple[str, ...]
    nodes: Dict[str, NodeAddress]
    protocol: str = ClusterSpec.protocol
    partitions_per_table: int = ClusterSpec.partitions_per_table
    seed: int = ClusterSpec.seed
    codec: str = "json"
    workload: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            descriptor = get_protocol(self.protocol)
        except ValueError:
            descriptor = None
        if descriptor is None or not descriptor.supports_tcp:
            supported = protocols_supporting("supports_tcp")
            raise TransportError(
                f"TCP topologies support the MDCC variants and Replicated "
                f"Commit {supported}; got {self.protocol!r}"
            )
        if self.codec not in CODECS:
            raise TransportError(
                f"unknown codec {self.codec!r}; choose from {', '.join(CODECS)}"
            )
        for node_id, address in self.nodes.items():
            if address.dc not in self.datacenters:
                raise TransportError(
                    f"node {node_id!r} lives in unknown DC {address.dc!r}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict) -> "Topology":
        known = [spec_field.name for spec_field in fields(cls)]
        raw = _checked("topology", raw, known, required=("datacenters", "nodes"))
        nodes = {}
        for node_id, spec in raw["nodes"].items():
            spec = _checked(
                f"node {node_id!r}", spec, ("dc", "host", "port"), required=("dc", "port")
            )
            nodes[node_id] = NodeAddress(
                dc=spec["dc"], host=spec.get("host", "127.0.0.1"), port=int(spec["port"])
            )
        deployment = {
            key: convert(raw[key])
            for key, convert in (("protocol", str), ("partitions_per_table", int), ("seed", int))
            if key in raw
        }
        return cls(
            datacenters=tuple(raw["datacenters"]),
            nodes=nodes,
            codec=raw.get("codec", "json"),
            **deployment,
            workload=_checked(
                "workload",
                raw.get("workload", {}),
                ("name", "items", "min_stock", "max_stock"),
            ),
        )

    @classmethod
    def load(cls, path: str) -> "Topology":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def as_dict(self) -> Dict:
        return {
            "datacenters": list(self.datacenters),
            "partitions_per_table": self.partitions_per_table,
            "protocol": self.protocol,
            "seed": self.seed,
            "codec": self.codec,
            "nodes": {
                node_id: {"dc": a.dc, "host": a.host, "port": a.port}
                for node_id, a in sorted(self.nodes.items())
            },
            "workload": dict(self.workload),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ------------------------------------------------------------------
    # Derived cluster objects
    # ------------------------------------------------------------------
    def cluster_fields(self) -> Dict[str, Any]:
        """The :class:`~repro.db.cluster.ClusterSpec` fields this file
        fixes.  A cluster of real processes runs these and the spec's
        defaults for the rest — a flag asking for anything else cannot be
        honoured."""
        return {
            "protocol": self.protocol,
            "datacenters": self.datacenters,
            "partitions_per_table": self.partitions_per_table,
            "seed": self.seed,
        }

    def spec(self) -> ClusterSpec:
        """The deployment every process of this file builds its
        :class:`~repro.db.cluster.Cluster` from; a file no spec admits is
        a :class:`TransportError` here, when a cluster is assembled."""
        try:
            return ClusterSpec(**self.cluster_fields())
        except ValueError as exc:
            raise TransportError(str(exc)) from None

    def dc_of(self, node_id: str) -> Optional[str]:
        address = self.nodes.get(node_id)
        return address.dc if address else None

    def build_placement(self) -> ReplicaMap:
        """The replica map every process of this file derives."""
        return self.spec().placement()

    def build_config(self) -> MDCCConfig:
        """The config every process of this file derives."""
        return self.spec().config()

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def build_workload(self, **knobs: object) -> MicroBenchmark:
        """The deployment's micro-benchmark; ``knobs`` are the access-pattern
        keywords (``hotspot_fraction``, ``locality``) only a driver sets."""
        return MicroBenchmark(
            num_items=int(self.workload.get("items", 100)),
            min_stock=int(self.workload.get("min_stock", 100)),
            max_stock=int(self.workload.get("max_stock", 200)),
            **knobs,
        )

    def item_keys(self) -> List[str]:
        return self.build_workload().keys

    def preload_plan(self) -> List[Tuple[str, int]]:
        """(key, stock) for every item — identical in every process."""
        return self.build_workload().stock_plan(RngRegistry(seed=self.seed))


def _checked(
    what: str, raw: object, known: Sequence[str], required: Sequence[str] = ()
) -> Dict:
    """A copy of ``raw`` — or a :class:`TransportError` naming the key: a
    typo'd topology must not half-apply (the ``checked_fields`` rule of
    the specs), and a missing key is not a bare ``KeyError``."""
    if not isinstance(raw, dict):
        raise TransportError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise TransportError(
            f"unknown {what} key(s): {', '.join(unknown)}; known: {', '.join(known)}"
        )
    missing = [key for key in required if key not in raw]
    if missing:
        raise TransportError(f"{what} is missing required key(s): {', '.join(missing)}")
    return dict(raw)


def make_local_topology(
    spec: ClusterSpec,
    *,
    codec: str = "json",
    base_port: int = 7100,
    host: str = "127.0.0.1",
    ports: Optional[List[int]] = None,
    items: int = 200,
    min_stock: int = 100,
    max_stock: int = 200,
) -> Topology:
    """A loopback topology deploying ``spec``: every storage node on
    ``host``, sequential ports from ``base_port`` (or explicit ``ports``,
    e.g. pre-bound free ones in tests).  A file carries only the four
    deployment keys, so a spec that sets any other field is refused."""
    fixed = {
        "protocol": spec.protocol,
        "datacenters": spec.datacenters,
        "partitions_per_table": spec.partitions_per_table,
        "seed": spec.seed,
    }
    if spec != ClusterSpec(**fixed):
        raise TransportError(
            "a topology file carries only protocol, data centers, partitions "
            "and seed"
        )
    slots = [
        (dc, partition)
        for dc in spec.effective_datacenters
        for partition in range(spec.effective_partitions)
    ]
    if ports is None:
        ports = [base_port + index for index in range(len(slots))]
    if len(ports) != len(slots):
        raise TransportError(
            f"{len(slots)} nodes need {len(slots)} ports; got {len(ports)}"
        )
    nodes = {
        ReplicaMap.storage_node_id(dc, partition): NodeAddress(dc=dc, host=host, port=port)
        for (dc, partition), port in zip(slots, ports)
    }
    return Topology(
        datacenters=spec.effective_datacenters,
        nodes=nodes,
        protocol=spec.protocol,
        partitions_per_table=spec.effective_partitions,
        seed=spec.seed,
        codec=codec,
        workload={
            "name": "micro",
            "items": items,
            "min_stock": min_stock,
            "max_stock": max_stock,
        },
    )
