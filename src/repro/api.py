"""Typed scenario specs: the canonical programmatic entry point.

Every way of running an experiment — the CLI subcommands, the figure
suite, a user script — describes *what to run* with two frozen
dataclasses and hands them to two functions:

* :class:`ClusterSpec` — the deployment: protocol, data centers,
  partitioning, master placement, seed, the MDCC tunables the CLI
  exposes and elastic membership.  :func:`build_cluster` turns one into
  a running simulated cluster; both live in :mod:`repro.db.cluster` and
  are re-exported here (``repro.build_cluster``, ``repro.db.build_cluster``
  and ``repro.api.build_cluster`` are one function).
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

An experiment a spec cannot say — a hand-built fault schedule, a stock
range, a ``migration_policy`` — composes the same three pieces
directly: each knob lives in exactly one place.  The deployment is a
:class:`ClusterSpec` (the MDCC tunables γ, γ policy, batching and
demarcation included); what a spec does not describe
(``migration_policy``, ``jitter_sigma``, placement-manager cadences)
are the four keywords :func:`build_cluster` takes beside it;
table size, stock range and access pattern are keywords of the workload
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
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional

from repro.bench.driver import RunResult, run
from repro.db.cluster import ClusterSpec, build_cluster, checked_fields
from repro.faults.schedule import NAMED_SCHEDULES, named_schedule
from repro.protocols.base import get_protocol
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
        datacenters = self.cluster.effective_datacenters
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
            if self.fail_dc is not None and self.fail_dc not in datacenters:
                raise ValueError(
                    f"fail_dc {self.fail_dc!r} is not a data center of the "
                    f"cluster; choose from {', '.join(datacenters)}"
                )
            if self.fail_at_s is not None and not 0 <= self.fail_at_s < self.measure_s:
                raise ValueError(
                    f"fail_at_s={self.fail_at_s} is outside the measurement "
                    f"window [0, {self.measure_s})"
                )
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
        return cls(**checked_fields(cls, data))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a scenario spec must be a JSON object")
        return cls.from_dict(data)


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
    if schedule is not None:
        # A schedule's hints fill what the spec left open: its master
        # policy, and elastic when it contains membership events.
        cluster = build_cluster(
            replace(
                spec.cluster,
                master_policy=spec.cluster.master_policy or schedule.master_policy,
                elastic=spec.cluster.elastic or schedule.needs_reconfig,
            )
        )
    elif workload.tracker_halflife_ms is not None:
        cluster = build_cluster(
            spec.cluster, tracker_halflife_ms=workload.tracker_halflife_ms
        )
    else:
        cluster = build_cluster(spec.cluster)
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
