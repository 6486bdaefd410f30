"""Typed scenario specs: the canonical programmatic entry point.

Every way of running an experiment — the CLI subcommands, the figure
suite, a user script — describes *what to run* with two frozen
dataclasses and hands them to two functions:

* :class:`ClusterSpec` — the deployment: protocol, data centers,
  partitioning, master placement, seed and the MDCC tunables the CLI
  exposes.  :func:`build_cluster` turns one into a running cluster.
* :class:`ScenarioSpec` — the experiment: a :class:`ClusterSpec` plus
  workload, scale, measurement window, workload knobs and (optionally)
  a named fault schedule.  :func:`run_scenario` resolves one into the
  three pieces of a run — a cluster, a workload object, an optional
  :class:`~repro.faults.schedule.FaultSchedule` — and hands them to the
  one run driver, :func:`repro.bench.driver.run`.

Specs are frozen, validated on construction, and round-trip through
JSON (:meth:`ScenarioSpec.to_json` / :meth:`ScenarioSpec.from_json`),
so an experiment is a reviewable artifact: commit the JSON, re-run it
byte-identically with ``repro run --spec scenario.json``, and find the
same block under ``"spec"`` in every JSON result envelope.

An experiment a spec cannot say — a hand-built fault schedule, a custom
:class:`~repro.core.config.MDCCConfig`, a stock range, a
``migration_policy`` — composes the same three pieces directly: each
knob lives in exactly one place.  Deployment knobs (``table_master_dc``,
``migration_policy``, ``rtt_matrix``, ``jitter_sigma``, placement-manager
cadences) are keywords of :func:`repro.db.cluster.build_cluster`; table
size, stock range and access pattern are keywords of the workload
constructors (:mod:`repro.workloads`); clients, windows, client
placement, the single outage, audit and bucket are keywords of the
driver.

What a protocol can run — adaptive placement, elastic membership, the
single-entity-group partition collapse, whether the γ/batching tunables
configure anything — comes from its
:class:`~repro.protocols.base.Protocol` descriptor; validation here
asks capability flags, never protocol names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.bench.driver import RunResult, run
from repro.core.config import MDCCConfig
from repro.db.cluster import (
    Cluster,
    build_cluster as _build_cluster,
)
from repro.faults.schedule import NAMED_SCHEDULES, FaultSchedule, named_schedule
from repro.protocols.base import get_protocol
from repro.sim.network import EC2_REGIONS
from repro.workloads import get_workload

__all__ = [
    "ClusterSpec",
    "ScenarioSpec",
    "build_cluster",
    "run_scenario",
]

#: The stock range every spec-described run populates its table with —
#: high enough that no measurement window exhausts an item.  (The
#: workload constructors default to the paper's 10-30.)
SPEC_STOCK = {"min_stock": 500, "max_stock": 1_000}


@dataclass(frozen=True)
class ClusterSpec:
    """The deployment half of an experiment: what cluster to build.

    Attributes:
        protocol: any of :data:`repro.db.cluster.PROTOCOLS` — the three
            MDCC variants or a baseline.
        datacenters: initial membership; ``None`` means the paper's five
            EC2 regions.
        partitions_per_table: storage nodes per table per data center
            (Megastore* always collapses to 1 — single entity group).
        master_policy: ``"hash"``, ``"adaptive"`` or ``"fixed:<dc>"``;
            ``None`` defers to the context default (``"hash"``, or a
            fault schedule's hint).
        seed: the experiment seed — every RNG stream derives from it.
        gamma_policy / batch_ms / demarcation: the MDCC tunables the CLI
            exposes (γ policy of §3.3.2, visibility batching window,
            §3.4.2 demarcation limit).
        elastic: build the cluster reconfigurable (runtime DC join/leave).
    """

    protocol: str = "mdcc"
    datacenters: Optional[Tuple[str, ...]] = None
    partitions_per_table: int = 2
    master_policy: Optional[str] = None
    seed: int = 1
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
        if self.master_policy == "table":
            # Per-table defaults have no spec field; the cluster would
            # fail on its first proposal without them.
            raise ValueError(
                "the 'table' master policy needs per-table master defaults, "
                "which a spec cannot carry: use "
                "repro.db.cluster.build_cluster(table_master_dc=...)"
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
        # The paper's Megastore* places all data in a single entity group.
        if get_protocol(self.protocol).single_entity_group:
            return 1
        return self.partitions_per_table

    def config(self) -> Optional[MDCCConfig]:
        """The :class:`MDCCConfig` this spec describes (``None`` for
        protocols the γ/batching/demarcation tunables do not configure)."""
        return get_protocol(self.protocol).make_config(
            len(self.effective_datacenters),
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
        return cls(**_checked_fields(cls, data))


@dataclass(frozen=True)
class ScenarioSpec:
    """The experiment half: what to run on a :class:`ClusterSpec`.

    :func:`run_scenario` returns a
    :class:`~repro.bench.driver.RunResult` either way.  Without
    ``schedule`` it runs one fault-free workload experiment (``fail_dc``
    injects the Figure-8 single-outage exception); with ``schedule`` —
    one of :data:`repro.faults.schedule.NAMED_SCHEDULES` — it replays
    that fault schedule and the result also carries the chaos event log,
    recovery outcomes and post-heal probe verdicts.  ``workload=None``
    defers to the schedule's hint.  The workload knobs (``hotspot``,
    ``locality``, ``phase_s``) apply with or without a schedule.
    ``victim`` / ``replacement`` / ``donor`` parameterize the
    ``dc-replace`` elastic-membership schedule only.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    workload: Optional[str] = "micro"
    clients: int = 25
    items: int = 1_000
    warmup_s: float = 5.0
    measure_s: float = 30.0
    hotspot: Optional[float] = None
    locality: Optional[float] = None
    phase_s: float = 20.0
    audit: bool = True
    fail_dc: Optional[str] = None
    fail_at_s: Optional[float] = None
    schedule: Optional[str] = None
    bucket_s: float = 5.0
    victim: Optional[str] = None
    replacement: Optional[str] = None
    donor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload is None and self.schedule is None:
            raise ValueError("workload is required without a fault schedule")
        # (get_workload raises on unknown names)
        knobs = () if self.workload is None else get_workload(self.workload).spec_knobs
        if self.clients < 1 or self.items < 1:
            raise ValueError("clients and items must be positive")
        if self.warmup_s < 0 or self.measure_s <= 0:
            raise ValueError("warmup_s must be >= 0 and measure_s > 0")
        if self.phase_s <= 0 or self.bucket_s <= 0:
            raise ValueError("phase_s and bucket_s must be positive")
        if (self.hotspot is not None and "hotspot_fraction" not in knobs) or (
            self.locality is not None and "locality" not in knobs
        ):
            raise ValueError("hotspot/locality apply to the micro workload")
        if self.schedule is None:
            if self.fail_at_s is not None and self.fail_dc is None:
                raise ValueError("fail_at_s needs fail_dc")
        elif self.schedule not in NAMED_SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"choose from {', '.join(NAMED_SCHEDULES)}"
            )
        elif self.fail_dc is not None or self.fail_at_s is not None:
            raise ValueError("fault schedules inject their own failures")
        else:
            # Outside the protocol's gated set its guarantees are not
            # defined under that fault: a usage error, not a scenario.
            gated = get_protocol(self.cluster.protocol).chaos_schedules
            if self.schedule not in gated:
                raise ValueError(
                    f"protocol {self.cluster.protocol!r} is not gated on "
                    f"schedule {self.schedule!r}; supported schedules: "
                    f"{', '.join(gated) or 'none'}"
                )
        if self.schedule != "dc-replace":
            for name in ("victim", "replacement", "donor"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"{name} parameterizes the dc-replace schedule"
                    )
            return
        datacenters = self.cluster.effective_datacenters
        if self.victim is not None:
            if self.victim not in datacenters:
                raise ValueError(
                    f"victim {self.victim!r} is not in the initial membership"
                )
            if self.victim == datacenters[0]:
                # The reconfig control plane lives in the first DC; failing
                # it stalls the membership operations themselves.
                raise ValueError(
                    f"victim {self.victim!r} hosts the reconfig control "
                    "plane (the first listed data center); pick another "
                    "victim or reorder the data centers"
                )
        if self.donor is not None and (
            self.donor not in datacenters or self.donor == self.victim
        ):
            raise ValueError("donor must be a surviving member of the cluster")
        if self.replacement is not None and self.replacement in datacenters:
            raise ValueError(
                f"replacement {self.replacement!r} is already a member"
            )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"cluster": self.cluster.to_dict()}
        for spec_field in fields(self):
            if spec_field.name != "cluster":
                data[spec_field.name] = getattr(self, spec_field.name)
        return data

    def to_json(self) -> str:
        """Canonical byte form: sorted keys, two-space indent, newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        checked = _checked_fields(cls, data)
        cluster = checked.get("cluster")
        if isinstance(cluster, dict):
            checked["cluster"] = ClusterSpec.from_dict(cluster)
        return cls(**checked)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a scenario spec must be a JSON object")
        return cls.from_dict(data)


def _checked_fields(cls: Any, data: Dict[str, object]) -> Dict[str, Any]:
    """Reject unknown keys loudly — a typo'd spec must not half-apply."""
    known = {spec_field.name for spec_field in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
        )
    prepared = dict(data)
    if isinstance(prepared.get("datacenters"), list):
        prepared["datacenters"] = tuple(prepared["datacenters"])
    return prepared


# ----------------------------------------------------------------------
# Canonical entry points
# ----------------------------------------------------------------------
def build_cluster(spec: ClusterSpec = ClusterSpec()) -> Cluster:
    """Build the deployment a :class:`ClusterSpec` describes.

    Knobs without spec fields (``table_master_dc``, ``migration_policy``,
    ``rtt_matrix``, ``jitter_sigma``, placement-manager cadences) live on
    :func:`repro.db.cluster.build_cluster` directly.
    """
    return _deploy(spec)


def _deploy(
    spec: ClusterSpec, schedule: Optional[FaultSchedule] = None, **placement: Any
) -> Cluster:
    """``spec``'s cluster; a schedule's hints fill what the spec left open
    (its master policy; elastic when it contains membership events)."""
    return _build_cluster(
        spec.protocol,
        datacenters=spec.effective_datacenters,
        partitions_per_table=spec.effective_partitions,
        master_policy=spec.master_policy
        or (schedule.master_policy if schedule is not None else None)
        or "hash",
        seed=spec.seed,
        config=spec.config(),
        elastic=spec.elastic or (schedule is not None and schedule.needs_reconfig),
        **placement,
    )


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Run the experiment a :class:`ScenarioSpec` describes: resolve it
    into (cluster, workload, schedule) and hand them to the one driver."""
    schedule = None
    if spec.schedule is not None:
        schedule = named_schedule(
            spec.schedule,
            start_ms=spec.warmup_s * 1_000.0,
            duration_ms=spec.measure_s * 1_000.0,
            **{
                name: getattr(spec, name)
                for name in ("victim", "replacement", "donor")
                if getattr(spec, name) is not None
            },
        )
    workload_name = spec.workload
    if workload_name is None:
        assert schedule is not None  # __post_init__ requires one of the two
        workload_name = schedule.workload
    workload_cls = get_workload(workload_name)
    knobs: Dict[str, Any] = {
        "hotspot_fraction": spec.hotspot,
        "locality": spec.locality,
        "phase_ms": spec.phase_s * 1_000.0,
    }
    workload = workload_cls(
        num_items=spec.items,
        **SPEC_STOCK,
        **{knob: knobs[knob] for knob in workload_cls.spec_knobs},
    )
    if schedule is None and workload.tracker_halflife_ms is not None:
        cluster = _deploy(
            spec.cluster, tracker_halflife_ms=workload.tracker_halflife_ms
        )
    else:
        cluster = _deploy(spec.cluster, schedule)
    client_dcs = None
    preferred_dc = cluster.descriptor.preferred_client_dc
    if workload.pins_preferred_client_dc and preferred_dc is not None:
        client_dcs = [preferred_dc]
    fail_dc_at = None
    if spec.fail_dc is not None:
        at_s = spec.fail_at_s if spec.fail_at_s is not None else spec.measure_s / 2
        fail_dc_at = (spec.fail_dc, (spec.warmup_s + at_s) * 1_000.0)
    return run(
        cluster,
        workload,
        schedule,
        num_clients=spec.clients,
        warmup_ms=spec.warmup_s * 1_000.0,
        measure_ms=spec.measure_s * 1_000.0,
        client_dcs=client_dcs,
        fail_dc_at=fail_dc_at,
        audit=spec.audit,
        bucket_ms=spec.bucket_s * 1_000.0,
    )
