"""The one run driver: (cluster, workload, schedule) → one result.

Every experiment — a figure, a chaos cell, a CLI invocation, a test —
is three already-built pieces handed to :func:`run`:

* a :class:`~repro.db.cluster.Cluster` (the deployment is a
  :class:`~repro.db.cluster.ClusterSpec`, built by
  :func:`repro.db.cluster.build_cluster` — or, over TCP, by
  :mod:`repro.transport.runner` from a topology file's spec),
* a :class:`~repro.workloads.base.Workload` (table size, stock range and
  access-pattern knobs live on the workload's constructor),
* optionally a :class:`~repro.faults.schedule.FaultSchedule`,

plus the run knobs that belong to neither: client count and placement,
the warm-up and measurement windows, the Figure-8 single outage, whether
to audit, and the availability-timeline bucket.  The lifecycle is the
same for all of them — and for both transports: it advances the run only
through the cluster's :class:`~repro.transport.base.Transport` verbs
(``schedule`` / ``spawn`` / ``run`` / ``run_until``), so the simulator
and a cluster of real processes (:mod:`repro.transport.runner`) execute
every line below; what differs per transport is how time advances, how
a replica's snapshot is read, how a fault is applied, and process
spawn/reap — none of it here:

1. install the :class:`~repro.faults.controller.ChaosController` (if a
   schedule was given) and the single outage (if asked);
2. drive the workload's closed loop through warm-up + measurement;
3. heal every injected fault and let in-flight commits settle
   (:data:`DRAIN_MS`, or the schedule's ``settle_ms`` — the whole span
   in simulated time, an upper bound in wall time);
4. after a fault schedule, run anti-entropy sweeps so replicas that
   missed visibilities catch up (the paper's §5.3.4 "background
   process");
5. run every invariant checker — update-ledger audit, replica
   convergence, schema constraints, dangling-probe verdicts.

Scaling note: the paper measured 100 clients for 2-3 wall-clock minutes
on EC2.  The figures run the same protocols above a discrete-event
simulation, so "time" is simulated milliseconds; shapes, orderings and
ratios are preserved, absolute throughput numbers are not comparable.
Over TCP the same fields are wall-clock milliseconds on loopback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.checkers import check_constraints, check_replica_convergence
from repro.db.cluster import Cluster
from repro.faults.controller import CHAOS_TABLE, ChaosController
from repro.faults.schedule import FaultSchedule
from repro.metrics import LatencyRecorder
from repro.workloads.base import Workload
from repro.workloads.generator import WorkloadStats

__all__ = ["DRAIN_MS", "RunResult", "run"]

#: post-measurement settle time of a run without a fault schedule (a
#: schedule brings its own ``settle_ms``).
DRAIN_MS = 30_000.0


@dataclass
class RunResult:
    """Everything a figure, a chaos verdict or the CLI needs from one run.

    ``timeline`` covers the measurement window in fixed buckets
    *including empty ones*, so bounded unavailability is checkable
    ("commits continued in every bucket").  ``schedule`` and the chaos
    fields after it stay empty for a run without a fault schedule.
    """

    protocol: str
    workload: str
    seed: int
    stats: WorkloadStats
    bucket_ms: float
    timeline: List[Dict[str, object]]
    audit_problems: List[str] = field(default_factory=list)
    divergent_records: int = 0
    constraint_violations: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    schedule: Optional[str] = None
    probe_problems: List[str] = field(default_factory=list)
    recovery_outcomes: List[Dict[str, object]] = field(default_factory=list)
    chaos_events: List[Dict[str, object]] = field(default_factory=list)
    dropped_by_reason: Dict[str, int] = field(default_factory=dict)

    @property
    def latencies(self) -> LatencyRecorder:
        return self.stats.write_latencies

    @property
    def commits(self) -> int:
        return self.stats.commits

    @property
    def aborts(self) -> int:
        return self.stats.aborts

    def _percentile(self, fraction: float) -> Optional[float]:
        recorder = self.stats.write_latencies
        return recorder.percentile(fraction) if len(recorder) else None

    @property
    def median_ms(self) -> Optional[float]:
        return self._percentile(0.5)

    @property
    def p90_ms(self) -> Optional[float]:
        return self._percentile(0.9)

    @property
    def p99_ms(self) -> Optional[float]:
        return self._percentile(0.99)

    @property
    def throughput_tps(self) -> float:
        return self.stats.throughput_tps()

    @property
    def availability(self) -> float:
        """Fraction of measurement-window buckets with >= 1 commit."""
        if not self.timeline:
            return 0.0
        return sum(1 for row in self.timeline if row["commits"]) / len(self.timeline)

    @property
    def clean(self) -> bool:
        return not (
            self.audit_problems
            or self.divergent_records
            or self.constraint_violations
            or self.probe_problems
        )

    def as_dict(self) -> Dict[str, object]:
        """A deterministic, JSON-ready summary (the `chaos` CLI contract)."""

        def rounded(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 2)

        return {
            "schedule": self.schedule,
            "variant": self.protocol,
            "workload": self.workload,
            "seed": self.seed,
            "commits": self.commits,
            "aborts": self.aborts,
            "median_ms": rounded(self.median_ms),
            "p90_ms": rounded(self.p90_ms),
            "p99_ms": rounded(self.p99_ms),
            "throughput_tps": round(self.throughput_tps, 2),
            "availability": round(self.availability, 4),
            "bucket_ms": self.bucket_ms,
            "timeline": self.timeline,
            "invariants": {
                "audit_problems": len(self.audit_problems),
                "divergent_records": self.divergent_records,
                "constraint_violations": self.constraint_violations,
                "probe_problems": len(self.probe_problems),
                "clean": self.clean,
            },
            "recovery_outcomes": self.recovery_outcomes,
            "chaos_events": self.chaos_events,
            "dropped_by_reason": dict(sorted(self.dropped_by_reason.items())),
            "migrations": self.extra.get("migrations", 0),
            "master_policy": self.extra.get("master_policy", "hash"),
            "membership": self.extra.get("membership"),
        }


def run(
    cluster: Cluster,
    workload: Workload,
    schedule: Optional[FaultSchedule] = None,
    *,
    num_clients: int,
    warmup_ms: float,
    measure_ms: float,
    client_dcs: Optional[Sequence[str]] = None,
    fail_dc_at: Optional[Tuple[str, float]] = None,
    audit: bool = True,
    bucket_ms: float = 5_000.0,
) -> RunResult:
    """Drive ``workload`` on ``cluster`` while ``schedule``'s faults fire.

    ``fail_dc_at=(dc, at_ms)`` is Figure 8's fault without the chaos
    machinery: ``dc`` goes dark at the given offset and is never
    recovered (simulated network only).  ``client_dcs`` pins every client
    to the listed data centers (round-robin); the default spreads them
    over all.
    """
    controller = None
    if schedule is not None:
        # crash-master resolves its victim record lazily: the workload's
        # table is populated after the controller is installed.
        controller = ChaosController(
            cluster, schedule, workload_source=lambda: (workload.table, workload.keys)
        )
        controller.install()
    if fail_dc_at is not None:
        dc, at_ms = fail_dc_at
        cluster.transport.schedule(at_ms, cluster.fail_datacenter, dc)
    stats, pool = workload.run(
        cluster,
        num_clients=num_clients,
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
        client_dcs=client_dcs,
    )
    if controller is not None:
        controller.heal_all()
    pool.drain(DRAIN_MS if schedule is None else schedule.settle_ms)

    result = RunResult(
        protocol=cluster.protocol,
        workload=workload.name,
        seed=cluster.rng.seed,
        stats=stats,
        bucket_ms=bucket_ms,
        timeline=_timeline(stats, bucket_ms),
        schedule=None if schedule is None else schedule.name,
    )
    if audit:
        table, keys = workload.table, workload.keys
        if controller is not None:
            _run_antientropy(cluster, table, keys, controller)
        result.audit_problems = workload.ledger.audit(cluster)
        result.divergent_records = len(check_replica_convergence(cluster, table, keys))
        result.constraint_violations = len(check_constraints(cluster, table, keys))
        if controller is not None:
            result.probe_problems = controller.probe_problems()
    if controller is not None:
        result.recovery_outcomes = list(controller.recovery_outcomes)
        result.chaos_events = controller.log_as_rows()
    result.counters = cluster.counters.as_dict()
    result.dropped_by_reason = dict(cluster.network.stats.dropped_by_reason)

    placement = cluster.placement
    result.extra["master_policy"] = placement.master_policy
    result.extra["migrations"] = (
        0 if placement.directory is None else placement.directory.migrations
    )
    if cluster.membership is not None:
        membership = cluster.membership.as_dict()
        membership["quorums"] = placement.quorums().as_dict()
        membership["reconfig_events"] = list(cluster.reconfig.log)
        membership["stale_epoch_dropped"] = cluster.counters.get(
            "reconfig.stale_epoch_dropped"
        )
        result.extra["membership"] = membership
    return result


def _timeline(stats: WorkloadStats, bucket_ms: float) -> List[Dict[str, object]]:
    """Per-bucket commit count and mean latency over the measure window."""
    latency_sums: Dict[int, float] = {}
    for timestamp, value in stats.latency_series.points:
        if stats.measure_start <= timestamp < stats.measure_end:
            index = int((timestamp - stats.measure_start) // bucket_ms)
            latency_sums[index] = latency_sums.get(index, 0.0) + value
    return [
        {
            "t_s": round((start - stats.measure_start) / 1000.0, 1),
            "commits": count,
            "mean_ms": round(latency_sums[index] / count, 1) if count else None,
        }
        for index, (start, count) in enumerate(
            stats.latency_series.bucket_counts(
                bucket_ms, stats.measure_start, stats.measure_end
            )
        )
    ]


def _run_antientropy(
    cluster: Cluster, table: str, keys: List[str], controller: ChaosController
) -> None:
    """Sweep workload + probe records until nothing lags (max 4 rounds).

    The sweeps repair version lag via catch-up, re-drive visibilities a
    fault ate, and escalate provably-stuck options to a recovery agent —
    so a later round is needed to observe the effects of the repairs the
    previous round kicked off."""
    agent = cluster.add_anti_entropy_agent(cluster.placement.datacenters[0])
    if cluster.descriptor.supports_recovery:
        agent.attach_recovery(
            cluster.add_recovery_agent(cluster.placement.datacenters[0])
        )
    transport = cluster.transport
    for _round in range(4):
        report = transport.run_until(
            agent.sweep(table, keys), limit=transport.now + 120_000
        )
        if controller.probe_keys:
            probe_report = transport.run_until(
                agent.sweep(CHAOS_TABLE, controller.probe_keys),
                limit=transport.now + 120_000,
            )
            report.merge(probe_report)
        transport.run(until=transport.now + 10_000, waiting_for=())
        if (
            report.records_with_lag == 0
            and report.unreachable_replies == 0
            and report.visibilities_redriven == 0
            and report.recoveries_triggered == 0
        ):
            break
