"""Replica placement and master policies.

Deployment mirrors §5.1: "Each data center has a full replica of the data,
and within a data center, each table is range partitioned by key, and
distributed across several storage nodes."  A record therefore has one
replica per data center, hosted on the storage node that owns its
partition there.

Master policies (§2: "MDCC supports an individual master per record"):

* ``hash`` — each record's master data center is chosen by key hash,
  spreading mastership uniformly (the evaluation's Multi setup: "masters
  being uniformly distributed across all the data centers", §5.3.1).
* ``fixed:<dc>`` — all masters in one data center (the Megastore*-style
  setup, and the paper's insert default of one master per table).
* ``adaptive`` — mastership starts out hash-placed but *moves*: write
  origins are tracked per record and the
  :mod:`repro.placement` subsystem migrates masters toward the dominant
  origin data center via Phase-1 ballot takeovers (§3.1.1: "the
  mastership can change by running Phase 1").  ``master_dc`` then
  consults the mutable, versioned
  :class:`~repro.placement.directory.PlacementDirectory`.

Elastic membership: when a
:class:`~repro.reconfig.directory.MembershipDirectory` is attached, the
data-center set (and with it the replica sets, quorum sizes and hash
master placement) is *dynamic* — every lookup reads the directory's
current epoch state, so a single ``admit``/``retire`` atomically resizes
quorums for every record.

:class:`ReplicaMap` is the single owner of the static-vs-elastic rule.
Every role, MDCC or baseline, asks it the same two questions —
:meth:`ReplicaMap.quorums` and :attr:`ReplicaMap.epoch` — and gets the
build-time sizes at epoch 0 from a static map, the directory's current
ones from an elastic map; no role keeps a flag or a copy of its own.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

from repro.core.options import RecordId
from repro.paxos.quorum import QuorumSpec
from repro.storage.partition import stable_hash

__all__ = ["ReplicaMap", "MASTER_POLICIES", "by_replica_set"]

#: The named master policies (``fixed:<dc>`` is the parameterized one).
MASTER_POLICIES = ("hash", "adaptive")

T = TypeVar("T")


def by_replica_set(
    items: Iterable[T], replicas_of: Callable[[T], Sequence[str]]
) -> Dict[Tuple[str, ...], List[T]]:
    """One transaction's items grouped by the nodes ``replicas_of`` sends
    each to, groups and members in first-seen order: the unit one message
    goes to.  MDCC's fast path groups options by their record's replica
    set, 2PC and quorum writes group write-set entries the same way, and
    a Replicated Commit DC coordinator by the entry's one local
    participant."""
    groups: Dict[Tuple[str, ...], List[T]] = {}
    for item in items:
        groups.setdefault(tuple(replicas_of(item)), []).append(item)
    return groups


class ReplicaMap:
    """Maps records to replica storage nodes and master data centers."""

    def __init__(
        self,
        datacenters: Sequence[str],
        partitions_per_table: int = 1,
        master_policy: str = "hash",
        tracker_halflife_ms: float = 10_000.0,
        membership=None,
    ) -> None:
        if not datacenters:
            raise ValueError("need at least one data center")
        if partitions_per_table < 1:
            raise ValueError("need at least one partition")
        self._datacenters: Tuple[str, ...] = tuple(datacenters)
        #: the elastic-membership directory (None for a static cluster).
        #: When set, the DC tuple (and everything derived from it) tracks
        #: the directory's epoch state instead of the build-time set.
        self.membership = membership
        if membership is not None and membership.active != self._datacenters:
            raise ValueError(
                "membership directory's active set does not match the "
                "build-time data centers"
            )
        self.partitions_per_table = partitions_per_table
        self.master_policy = master_policy
        if master_policy.startswith("fixed:"):
            fixed_dc = master_policy.split(":", 1)[1]
            if fixed_dc not in self.datacenters:
                raise ValueError(f"unknown fixed master DC {fixed_dc!r}")
        elif master_policy not in MASTER_POLICIES:
            raise ValueError(f"unknown master policy {master_policy!r}")
        #: the membership epoch protocol messages are fenced against and
        #: the quorum sizes that go with it.  A static cluster stays at
        #: epoch 0, so every epoch check is a no-op; the directory
        #: refreshes both on admit / retire — once per resize, not once
        #: per message handled.
        self.epoch = 0
        if membership is not None:
            membership.on_resize.append(self._resized)
        self._resized()
        #: per-record placement caches, valid only while the mapping is
        #: immutable: a static DC set (no membership directory) and a
        #: non-adaptive master policy.  Under those policies every lookup
        #: is a pure function of the record id.  The node ids they hold
        #: come from one interned tuple per partition, shared by all of
        #: its records.
        self._static_placement = membership is None
        self._partition_nodes: Dict[int, Tuple[str, ...]] = {}
        self._replicas_cache: Dict[RecordId, Tuple[str, ...]] = {}
        self._master_node_cache: Dict[RecordId, str] = {}
        #: adaptive-policy state (None under the static policies).  Imported
        #: lazily: repro.placement depends on repro.core, not vice versa.
        self.tracker = None
        self.directory = None
        if master_policy == "adaptive":
            from repro.placement.directory import PlacementDirectory
            from repro.placement.tracker import AccessTracker

            self.tracker = AccessTracker(halflife_ms=tracker_halflife_ms)
            self.directory = PlacementDirectory(fallback=self._hash_master_dc)

    # ------------------------------------------------------------------
    # Membership (static or epoch-versioned)
    # ------------------------------------------------------------------
    @property
    def datacenters(self) -> Tuple[str, ...]:
        """The quorum-member data centers under the current epoch."""
        if self.membership is not None:
            return self.membership.active
        return self._datacenters

    @property
    def joining_datacenters(self) -> Tuple[str, ...]:
        """DCs replicated-to but not yet in quorums (empty when static)."""
        if self.membership is not None:
            return self.membership.joining
        return ()

    def _resized(self) -> None:
        if self.membership is not None:
            self.epoch = self.membership.epoch
        self._spec = QuorumSpec.for_replication(len(self.datacenters))

    @property
    def is_elastic(self) -> bool:
        return self.membership is not None

    # ------------------------------------------------------------------
    # Node naming and placement
    # ------------------------------------------------------------------
    @staticmethod
    def storage_node_id(dc: str, partition: int) -> str:
        return f"store-{dc}-p{partition}"

    def partition_of(self, table: str, key: str) -> int:
        return stable_hash(f"{table}:{key}") % self.partitions_per_table

    def replicas(self, record: RecordId) -> Sequence[str]:
        """One storage node per quorum-member data center, in DC order.

        Joining data centers are deliberately excluded: a replica being
        bootstrapped must never count toward a fast or classic quorum.
        """
        if self._static_placement:
            cached = self._replicas_cache.get(record)
            if cached is None:
                cached = self._replicas_cache[record] = self._nodes_of_partition(
                    self.partition_of(record.table, record.key)
                )
            return cached
        partition = self.partition_of(record.table, record.key)
        return [self.storage_node_id(dc, partition) for dc in self.datacenters]

    def _nodes_of_partition(self, partition: int) -> Tuple[str, ...]:
        """A static map's node per data center for ``partition``, in DC
        order: one tuple per partition, built once."""
        nodes = self._partition_nodes.get(partition)
        if nodes is None:
            nodes = self._partition_nodes[partition] = tuple(
                self.storage_node_id(dc, partition) for dc in self._datacenters
            )
        return nodes

    def replicas_for_repair(self, record: RecordId) -> List[str]:
        """Replicas including joining DCs — the anti-entropy sweep scope.

        Repair (CatchUp / visibility re-drive) is version-guarded and safe
        at any epoch, so sweeping a half-bootstrapped replica is how a
        joining DC catches up through writes that landed after its
        snapshot cut.
        """
        partition = self.partition_of(record.table, record.key)
        return [
            self.storage_node_id(dc, partition)
            for dc in (*self.datacenters, *self.joining_datacenters)
        ]

    def replica_in(self, record: RecordId, dc: str) -> str:
        partition = self.partition_of(record.table, record.key)
        return self.storage_node_id(dc, partition)

    @property
    def replication(self) -> int:
        return len(self.datacenters)

    def quorums(self) -> QuorumSpec:
        """Quorum sizes under the current membership epoch."""
        return self._spec

    # ------------------------------------------------------------------
    # Mastership
    # ------------------------------------------------------------------
    def master_dc(self, record: RecordId) -> str:
        if self.master_policy.startswith("fixed:"):
            return self.master_policy.split(":", 1)[1]
        if self.master_policy == "adaptive":
            return self.directory.master_dc(record)
        return self._hash_master_dc(record)

    def _hash_master_dc(self, record: RecordId) -> str:
        index = stable_hash(f"master:{record.table}:{record.key}") % len(
            self.datacenters
        )
        return self.datacenters[index]

    @property
    def is_adaptive(self) -> bool:
        return self.master_policy == "adaptive"

    def note_write(self, record: RecordId, origin_dc: str, now: float) -> None:
        """Feed the access tracker; a no-op under static policies."""
        if self.tracker is not None:
            self.tracker.note(record, origin_dc, now)

    def master_node(self, record: RecordId) -> str:
        if self._static_placement and self.tracker is None:
            # Adaptive mastership migrates at runtime; everything else is a
            # pure function of the record id and can be looked up once.
            cached = self._master_node_cache.get(record)
            if cached is None:
                cached = self._master_node_cache[record] = self.replicas(record)[
                    self._datacenters.index(self.master_dc(record))
                ]
            return cached
        return self.replica_in(record, self.master_dc(record))

    def master_candidates(self, record: RecordId) -> List[str]:
        """Failover order: the record's master first, then the other
        replicas in data-center order (any node can take over mastership,
        §3.2.3)."""
        primary = self.master_node(record)
        rest = [node for node in self.replicas(record) if node != primary]
        return [primary] + rest
