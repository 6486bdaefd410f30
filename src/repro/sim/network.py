"""Wide-area network model: the five-data-center fabric of the paper.

The MDCC evaluation ran across five Amazon EC2 regions: US-West
(N. California), US-East (Virginia), EU (Ireland), Asia-Pacific (Singapore)
and Asia-Pacific (Tokyo).  :data:`DEFAULT_RTT_MATRIX` encodes round-trip
times representative of those links circa the paper's measurements; the
protocol-visible property is the *ordering and rough magnitude* of the
inter-DC distances — e.g. the 4th-closest data center being meaningfully
farther than the 3rd is what separates QW-4/MDCC from QW-3 in Figure 3.

Failure injection mirrors §5.3.4: failing a data center silently drops every
message to or from its nodes ("we simulated the failed data center by
preventing the data center from receiving any messages").  Beyond the
paper's single scripted outage, the fabric supports the fault vocabulary of
the chaos engine (:mod:`repro.faults`): N-way partitions, per-node crashes,
and composable per-link degradation policies (added latency, jitter, loss).
"""

from __future__ import annotations

import math

from math import cos as _cos, exp as _exp, log as _log, sin as _sin, sqrt as _sqrt

_TWOPI = 2.0 * math.pi
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.sim.core import SimulationError, Simulator
from repro.sim.rng import RngRegistry

__all__ = [
    "DEFAULT_RTT_MATRIX",
    "EC2_REGIONS",
    "LatencyModel",
    "LinkPolicy",
    "Network",
    "NetworkStats",
]

#: The five regions of the paper's deployment, in the order introduced.
EC2_REGIONS: Tuple[str, ...] = (
    "us-west",
    "us-east",
    "eu-west",
    "ap-southeast",
    "ap-northeast",
)

#: Representative inter-region round-trip times in milliseconds.
#: Keyed by unordered region pair.
DEFAULT_RTT_MATRIX: Dict[FrozenSet[str], float] = {
    frozenset(("us-west", "us-east")): 80.0,
    frozenset(("us-west", "eu-west")): 170.0,
    frozenset(("us-west", "ap-southeast")): 210.0,
    frozenset(("us-west", "ap-northeast")): 120.0,
    frozenset(("us-east", "eu-west")): 90.0,
    frozenset(("us-east", "ap-southeast")): 260.0,
    frozenset(("us-east", "ap-northeast")): 170.0,
    frozenset(("eu-west", "ap-southeast")): 250.0,
    frozenset(("eu-west", "ap-northeast")): 270.0,
    frozenset(("ap-southeast", "ap-northeast")): 75.0,
}


class LatencyModel:
    """Samples one-way message latencies between data centers.

    One-way latency is half the configured RTT, multiplied by a lognormal
    jitter factor (geo links "vary significantly ... over time", §1) plus a
    fixed per-message processing overhead.  Intra-DC messages use a small
    constant RTT — the paper ignores intra-DC latency as negligible, but a
    nonzero value keeps event ordering realistic.
    """

    def __init__(
        self,
        rtt_matrix: Optional[Dict[FrozenSet[str], float]] = None,
        intra_dc_rtt: float = 1.0,
        jitter_sigma: float = 0.06,
        processing_overhead: float = 0.5,
        rng_registry: Optional[RngRegistry] = None,
    ) -> None:
        self.rtt_matrix = dict(DEFAULT_RTT_MATRIX if rtt_matrix is None else rtt_matrix)
        self.intra_dc_rtt = intra_dc_rtt
        self.jitter_sigma = jitter_sigma
        self.processing_overhead = processing_overhead
        registry = rng_registry or RngRegistry(seed=0)
        self._rng = registry.stream("network.latency")
        #: bound method: one attribute lookup saved per latency sample.
        #: Must stay ``gauss`` — swapping the distribution (or the call
        #: count) would shift the shared jitter stream and change every
        #: downstream trajectory, breaking the byte-identity artifacts.
        self._gauss = self._rng.gauss
        # Directional (src, dst) -> RTT table so the per-message hot path
        # avoids building a frozenset for every send.
        self._directional: Dict[Tuple[str, str], float] = {}
        #: (src, dst) -> precomputed base_rtt/2, filled lazily: the jitter
        #: multiplier is the only per-message math left in one_way().
        self._half_rtt: Dict[Tuple[str, str], float] = {}
        self._known: set[str] = set()
        for pair, rtt in self.rtt_matrix.items():
            names = tuple(sorted(pair))
            if len(names) == 2:
                self._directional[(names[0], names[1])] = rtt
                self._directional[(names[1], names[0])] = rtt
                self._known.update(names)

    def base_rtt(self, dc_a: str, dc_b: str) -> float:
        """Deterministic round-trip time between two data centers."""
        if dc_a == dc_b:
            return self.intra_dc_rtt
        rtt = self._directional.get((dc_a, dc_b))
        if rtt is None:
            raise SimulationError(f"no RTT configured for {dc_a!r} <-> {dc_b!r}")
        return rtt

    def one_way(self, src_dc: str, dst_dc: str) -> float:
        """Sample a one-way latency in milliseconds.

        Draws exactly one ``gauss`` from the shared jitter stream per call
        (when jitter is enabled) — the draw discipline the determinism
        artifacts depend on.
        """
        half = self._half_rtt.get((src_dc, dst_dc))
        if half is None:
            half = self.base_rtt(src_dc, dst_dc) / 2.0
            self._half_rtt[(src_dc, dst_dc)] = half
        sigma = self.jitter_sigma
        if sigma > 0:
            half *= math.exp(self._gauss(0.0, sigma))
        return half + self.processing_overhead

    def datacenters(self) -> Tuple[str, ...]:
        """All data centers mentioned in the matrix."""
        return tuple(sorted(self._known))

    def knows_datacenter(self, dc: str) -> bool:
        return dc in self._known

    def rtts_from(self, dc: str) -> Dict[str, float]:
        """``other_dc -> rtt`` for every configured link of ``dc``.

        The template for cloning a data center's network position — a
        replacement DC joining where a failed one used to be inherits its
        round-trip times.
        """
        return {
            other: rtt
            for (src, other), rtt in self._directional.items()
            if src == dc
        }

    def add_datacenter(self, dc: str, rtts: Dict[str, float]) -> None:
        """Register a new data center's links at runtime (elastic joins).

        ``rtts`` maps existing data centers to round-trip times.  Every
        *currently known* DC must be covered — a partially connected DC
        would crash the simulation on its first unreachable send — except
        that a matrix-known DC absent from ``rtts`` whose links were
        copied wholesale is caught at send time as before.
        """
        if dc in self._known:
            raise SimulationError(f"data center {dc!r} already configured")
        if not rtts:
            raise SimulationError(f"no RTTs supplied for new data center {dc!r}")
        missing = self._known - set(rtts)
        if missing:
            raise SimulationError(
                f"RTTs for new data center {dc!r} missing links to "
                f"{sorted(missing)}"
            )
        for other, rtt in rtts.items():
            if other == dc:
                raise SimulationError(f"self-RTT supplied for {dc!r}")
            if not rtt > 0:
                raise SimulationError(f"non-positive RTT {rtt!r} for {dc!r}<->{other!r}")
        for other, rtt in rtts.items():
            self.rtt_matrix[frozenset((dc, other))] = float(rtt)
            self._directional[(dc, other)] = float(rtt)
            self._directional[(other, dc)] = float(rtt)
        self._known.add(dc)

    def sorted_rtts_from(self, dc: str) -> list[Tuple[str, float]]:
        """(other_dc, rtt) pairs sorted by distance — used by tests/benches."""
        out = [(other, self.base_rtt(dc, other)) for other in self.datacenters() if other != dc]
        out.sort(key=lambda item: item[1])
        return out


@dataclass(frozen=True)
class LinkPolicy:
    """A composable degradation applied to one DC pair's traffic.

    Stacks on top of the base :class:`LatencyModel` sample: extra one-way
    latency, extra lognormal jitter on that latency, and an independent
    loss probability.  ``drop_rate=1.0`` is a severed (flapped-down) link.
    """

    extra_latency_ms: float = 0.0
    jitter_sigma: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_latency_ms < 0:
            raise SimulationError(f"negative extra latency: {self.extra_latency_ms}")
        if self.jitter_sigma < 0:
            raise SimulationError(f"negative jitter sigma: {self.jitter_sigma}")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise SimulationError(f"drop rate out of range: {self.drop_rate}")


@dataclass
class NetworkStats:
    """Aggregate network counters, exposed for benchmarks and tests."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    per_type: Dict[str, int] = field(default_factory=dict)
    #: why messages were dropped: "dc-failure", "partition", "node-failure",
    #: "link-policy", "random", "unknown-destination", "unknown-source"
    #: (a deregistered node's residual timer fired).  Previously a DC
    #: outage and a partition were indistinguishable in the totals.
    dropped_by_reason: Dict[str, int] = field(default_factory=dict)

    def note_sent(self, message: object) -> None:
        self.messages_sent += 1
        name = type(message).__name__
        self.per_type[name] = self.per_type.get(name, 0) + 1

    def note_dropped(self, reason: str) -> None:
        self.messages_dropped += 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "dropped_by_reason": dict(sorted(self.dropped_by_reason.items())),
        }


class Network:
    """The message fabric connecting all simulated nodes.

    Nodes register under a unique id; :meth:`send` samples a latency from
    the :class:`LatencyModel` and schedules ``dst.on_message(msg, src_id)``.
    Messages are never reordered on the same (src, dst) pair beyond what
    latency jitter produces — like UDP, not TCP; the Paxos machinery is
    robust to reordering by design, and the paper's protocol tolerates
    "lost, duplicated or re-ordered messages".

    Failure injection:

    * :meth:`fail_datacenter` / :meth:`recover_datacenter` — drop all
      traffic touching a DC (Figure 8's scenario).  Idempotent: repeated
      calls (and repeats racing in-flight timers) are no-ops.
    * :meth:`fail_node` / :meth:`recover_node` — drop all traffic touching
      one node (a master crash, not a whole-DC outage).
    * :meth:`partition` / :meth:`heal_partition` — drop traffic between two
      specific DCs.
    * :meth:`partition_groups` / :meth:`clear_partition_groups` — an N-way
      split: DCs talk only within their group; unlisted DCs form one
      implicit remainder group.
    * :meth:`set_link_policy` / :meth:`clear_link_policy` — degrade one DC
      pair (added latency, jitter, loss).
    * :meth:`set_drop_rate` — uniform random message loss.

    Every fault transition notifies subscribers registered via
    :meth:`subscribe` — the hook the chaos engine's event log hangs off.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_model: Optional[LatencyModel] = None,
        rng_registry: Optional[RngRegistry] = None,
    ) -> None:
        self.sim = sim
        registry = rng_registry or RngRegistry(seed=0)
        self.latency = latency_model or LatencyModel(rng_registry=registry)
        self._drop_rng = registry.stream("network.drop")
        self._link_rng = registry.stream("network.linkfault")
        self._nodes: Dict[str, "NodeLike"] = {}
        self._failed_dcs: set[str] = set()
        self._failed_nodes: set[str] = set()
        self._partitions: set[FrozenSet[str]] = set()
        #: dc -> group index under an N-way partition (None = no split).
        self._groups: Optional[Dict[str, int]] = None
        self._link_policies: Dict[FrozenSet[str], LinkPolicy] = {}
        self._listeners: List[Callable[[float, str, Dict[str, object]], None]] = []
        self.drop_rate = 0.0
        self.stats = NetworkStats()
        #: True while no DC/node failure, partition or group split is in
        #: force — lets :meth:`send` skip :meth:`_blocked_reason` entirely.
        #: Maintained by every fault mutator via :meth:`_refresh_fault_flag`.
        self._fault_free = True

    def _refresh_fault_flag(self) -> None:
        self._fault_free = not (
            self._failed_dcs
            or self._failed_nodes
            or self._partitions
            or self._groups is not None
        )

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, node: "NodeLike") -> None:
        """Attach a node; its ``node_id`` must be unique.

        Registration is a *runtime* operation: nodes may join long after
        construction (elastic membership).  Two guarantees make that safe:

        * the node's data center must be known to the latency model (see
          :meth:`add_datacenter`) — previously a node in an unknown DC
          registered silently, exchanged intra-DC traffic below the RTT
          model, and bypassed every DC-keyed fault (outages, partitions,
          link policies all match on the DC name), surfacing only as a
          mid-simulation crash on its first cross-DC send;
        * every fault already in force applies immediately — fault state
          is keyed by DC name and node id, never by registration-time
          snapshots, so a late registrant inherits active outages,
          partitions, group splits, link policies and node crashes.
        """
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        if not self.latency.knows_datacenter(node.dc):
            raise SimulationError(
                f"node {node.node_id!r} registered in unknown data center "
                f"{node.dc!r}; call add_datacenter() first"
            )
        self._nodes[node.node_id] = node

    def deregister(self, node_id: str) -> None:
        """Detach a node (a decommissioned replica).

        Subsequent traffic to it drops as ``unknown-destination``; a
        standing per-node failure entry is cleared so the id can be
        reused by a later (re-)join.  Deregistering an unknown id is a
        no-op — decommission races heal_all in chaos schedules.
        """
        if self._nodes.pop(node_id, None) is None:
            return
        self._failed_nodes.discard(node_id)
        self._refresh_fault_flag()
        self._notify("node-deregistered", node_id=node_id)

    def reset_datacenter_faults(self, dc: str) -> None:
        """Clear fault state keyed to ``dc``'s *name* (elastic rejoins).

        Fault state is DC-name-keyed, so a data center that failed, was
        decommissioned, and later rejoins under the same name would
        inherit its dead predecessor's outage and link faults — the
        DC-level analogue of :meth:`deregister` clearing per-node failure
        entries for id reuse.  Lifts a standing outage, pairwise
        partitions and degraded links involving ``dc``; an N-way group
        split is left alone (the rejoined DC lands in the implicit
        remainder group, as documented for late registrants).
        """
        self.recover_datacenter(dc)
        for pair in sorted(self._partitions, key=sorted):
            if dc in pair:
                self.heal_partition(*pair)
        for pair in sorted(self._link_policies, key=sorted):
            if dc in pair:
                self.clear_link_policy(*pair)

    def add_datacenter(self, dc: str, rtts: Dict[str, float]) -> None:
        """Wire a brand-new data center into the fabric at runtime.

        Delegates link setup to the latency model and announces the
        expansion to fault-event subscribers.  Nodes for ``dc`` can be
        registered once this returns; all DC-keyed fault state applies to
        them like any other DC (there is nothing to inherit — a new DC
        starts fault-free, but e.g. a group split listing only old DCs
        puts it in the implicit remainder group).
        """
        self.latency.add_datacenter(dc, rtts)
        self._notify("dc-registered", dc=dc, links=len(rtts))

    def node(self, node_id: str) -> "NodeLike":
        return self._nodes[node_id]

    def knows(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src_id: str, dst_id: str, message: object) -> None:
        """Send ``message`` from ``src_id`` to ``dst_id`` (fire and forget)."""
        # Inlined stats.note_sent: this is the single hottest method in the
        # simulator, called once per protocol message.
        stats = self.stats
        stats.messages_sent += 1
        per_type = stats.per_type
        name = message.__class__.__name__
        # try/except subscripts beat .get on these always-hot dicts: the
        # exceptional arms (a new message type, a deregistered node) are
        # rare, and CPython try blocks cost nothing until they raise.
        try:
            per_type[name] += 1
        except KeyError:
            per_type[name] = 1
        nodes = self._nodes
        try:
            src = nodes[src_id]
        except KeyError:
            # A deregistered (decommissioned) node's residual timers may
            # still fire; its sends go nowhere — the process is gone.
            stats.note_dropped("unknown-source")
            return
        try:
            dst = nodes[dst_id]
        except KeyError:
            stats.note_dropped("unknown-destination")
            return
        if not self._fault_free:
            blocked = self._blocked_reason(src_id, src.dc, dst_id, dst.dc)
            if blocked is not None:
                stats.note_dropped(blocked)
                return
        if self.drop_rate > 0 and self._drop_rng.random() < self.drop_rate:
            stats.note_dropped("random")
            return
        # Inlined LatencyModel.one_way — the per-message draw discipline
        # (exactly one gauss when jitter is on) is preserved verbatim.
        latency = self.latency
        try:
            half = latency._half_rtt[(src.dc, dst.dc)]
        except KeyError:
            half = latency.base_rtt(src.dc, dst.dc) / 2.0
            latency._half_rtt[(src.dc, dst.dc)] = half
        sigma = latency.jitter_sigma
        if sigma > 0:
            # Inlined random.Random.gauss (identical algorithm and draw
            # count, including the cached second variate on the Random
            # instance) — the stream stays bit-for-bit identical while
            # the per-message method-call overhead goes away.
            rng = latency._rng
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng.random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            half *= _exp(z * sigma)
        delay = half + latency.processing_overhead
        if self._link_policies:
            policy = self._link_policies.get(frozenset((src.dc, dst.dc)))
            if policy is not None:
                if policy.drop_rate > 0 and self._link_rng.random() < policy.drop_rate:
                    stats.note_dropped("link-policy")
                    return
                extra = policy.extra_latency_ms
                if policy.jitter_sigma > 0:
                    extra *= math.exp(self._link_rng.gauss(0.0, policy.jitter_sigma))
                delay += extra
        self.sim.post(delay, self._deliver, (dst_id, message, src_id))

    def broadcast(self, src_id: str, dst_ids: Iterable[str], message: object) -> int:
        """Send the same message to several destinations; returns the count."""
        count = 0
        for dst_id in dst_ids:
            self.send(src_id, dst_id, message)
            count += 1
        return count

    def _deliver(self, dst_id: str, message: object, src_id: str) -> None:
        try:
            dst = self._nodes[dst_id]
        except KeyError:
            self.stats.note_dropped("unknown-destination")
            return
        if not self._fault_free:
            # A DC or node that failed while the message was in flight
            # loses it.  (_fault_free is False whenever either set is
            # non-empty, so the fast path cannot skip a real failure.)
            if dst.dc in self._failed_dcs:
                self.stats.note_dropped("dc-failure")
                return
            if dst_id in self._failed_nodes:
                self.stats.note_dropped("node-failure")
                return
        self.stats.messages_delivered += 1
        dst.on_message(message, src_id)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def subscribe(
        self, listener: Callable[[float, str, Dict[str, object]], None]
    ) -> None:
        """Register ``listener(now_ms, event, details)`` for every fault
        transition.  No-op transitions (failing an already-failed DC) do
        not fire — the hook reports effective state changes only."""
        self._listeners.append(listener)

    def _notify(self, event: str, **details: object) -> None:
        for listener in self._listeners:
            listener(self.sim.now, event, dict(details))

    def fail_datacenter(self, dc: str) -> None:
        """Drop all traffic to and from ``dc`` until recovery (§5.3.4).

        Idempotent: a second failure of an already-dark DC — a scheduled
        fault racing an in-flight timer that already fired — changes
        nothing and notifies nobody."""
        if dc in self._failed_dcs:
            return
        self._failed_dcs.add(dc)
        self._fault_free = False
        self._notify("dc-failed", dc=dc)

    def recover_datacenter(self, dc: str) -> None:
        if dc not in self._failed_dcs:
            return
        self._failed_dcs.discard(dc)
        self._refresh_fault_flag()
        self._notify("dc-recovered", dc=dc)

    def fail_node(self, node_id: str) -> None:
        """Crash one node: all its traffic drops until :meth:`recover_node`.

        Finer-grained than a DC outage — e.g. a master crash that leaves
        the rest of its data center serving."""
        if node_id in self._failed_nodes:
            return
        self._failed_nodes.add(node_id)
        self._fault_free = False
        self._notify("node-failed", node_id=node_id)

    def recover_node(self, node_id: str) -> None:
        if node_id not in self._failed_nodes:
            return
        self._failed_nodes.discard(node_id)
        self._refresh_fault_flag()
        self._notify("node-recovered", node_id=node_id)

    def partition(self, dc_a: str, dc_b: str) -> None:
        """Sever the link between two data centers (both directions)."""
        pair = frozenset((dc_a, dc_b))
        if pair in self._partitions:
            return
        self._partitions.add(pair)
        self._fault_free = False
        self._notify("partitioned", pair=tuple(sorted(pair)))

    def heal_partition(self, dc_a: str, dc_b: str) -> None:
        pair = frozenset((dc_a, dc_b))
        if pair not in self._partitions:
            return
        self._partitions.discard(pair)
        self._refresh_fault_flag()
        self._notify("partition-healed", pair=tuple(sorted(pair)))

    def partition_groups(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the fabric N ways: traffic flows only within a group.

        DCs not named in any group form one implicit remainder group (they
        can still talk to each other, but to no listed DC).  Replaces any
        previous group split; pairwise :meth:`partition` cuts compose on
        top."""
        assignment: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for dc in group:
                if dc in assignment:
                    raise SimulationError(f"DC {dc!r} appears in two groups")
                assignment[dc] = index
        self._groups = assignment
        self._fault_free = False
        self._notify(
            "partition-groups",
            groups=tuple(tuple(sorted(g)) for g in groups),
        )

    def clear_partition_groups(self) -> None:
        if self._groups is None:
            return
        self._groups = None
        self._refresh_fault_flag()
        self._notify("partition-groups-cleared")

    def set_link_policy(self, dc_a: str, dc_b: str, policy: LinkPolicy) -> None:
        """Degrade the ``dc_a <-> dc_b`` link (both directions)."""
        self._link_policies[frozenset((dc_a, dc_b))] = policy
        self._notify(
            "link-degraded",
            pair=tuple(sorted((dc_a, dc_b))),
            extra_latency_ms=policy.extra_latency_ms,
            jitter_sigma=policy.jitter_sigma,
            drop_rate=policy.drop_rate,
        )

    def clear_link_policy(self, dc_a: str, dc_b: str) -> None:
        if self._link_policies.pop(frozenset((dc_a, dc_b)), None) is not None:
            self._notify("link-restored", pair=tuple(sorted((dc_a, dc_b))))

    def link_policy(self, dc_a: str, dc_b: str) -> Optional[LinkPolicy]:
        return self._link_policies.get(frozenset((dc_a, dc_b)))

    def set_drop_rate(self, rate: float) -> None:
        """Uniform random loss probability applied to every message."""
        if not 0.0 <= rate <= 1.0:
            raise SimulationError(f"drop rate out of range: {rate}")
        self.drop_rate = rate

    def is_failed(self, dc: str) -> bool:
        return dc in self._failed_dcs

    def is_node_failed(self, node_id: str) -> bool:
        return node_id in self._failed_nodes

    def active_faults(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of every fault currently in force."""
        return {
            "failed_dcs": sorted(self._failed_dcs),
            "failed_nodes": sorted(self._failed_nodes),
            "partitions": sorted(tuple(sorted(p)) for p in self._partitions),
            "groups": None
            if self._groups is None
            else dict(sorted(self._groups.items())),
            "degraded_links": sorted(
                tuple(sorted(pair)) for pair in self._link_policies
            ),
            "drop_rate": self.drop_rate,
        }

    def heal_all(self) -> None:
        """Lift every standing fault (the post-scenario cleanup)."""
        for dc in sorted(self._failed_dcs):
            self.recover_datacenter(dc)
        for node_id in sorted(self._failed_nodes):
            self.recover_node(node_id)
        for pair in sorted(self._partitions, key=sorted):
            self.heal_partition(*pair)
        self.clear_partition_groups()
        for pair in sorted(self._link_policies, key=sorted):
            self.clear_link_policy(*pair)
        self.drop_rate = 0.0

    def _blocked_reason(
        self, src_id: str, src_dc: str, dst_id: str, dst_dc: str
    ) -> Optional[str]:
        if src_dc in self._failed_dcs or dst_dc in self._failed_dcs:
            return "dc-failure"
        if src_id in self._failed_nodes or dst_id in self._failed_nodes:
            return "node-failure"
        if src_dc != dst_dc:
            if frozenset((src_dc, dst_dc)) in self._partitions:
                return "partition"
            if self._groups is not None and self._groups.get(
                src_dc, -1
            ) != self._groups.get(dst_dc, -1):
                return "partition"
        return None


class NodeLike:
    """Structural interface the network expects (see
    :class:`repro.transport.base.Node`)."""

    node_id: str
    dc: str

    def on_message(self, message: object, src_id: str) -> None:  # pragma: no cover
        raise NotImplementedError
