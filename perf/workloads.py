"""The simulator workloads: what one repetition runs, times and checks.

Every function here runs the program once at a fixed size and a given
seed and returns a JSON-ready :func:`outcome` dict.  A repetition is
deliberately small (1–3 s of host time): ``perf/run.py`` repeats it in
fresh processes for as long as ``--seconds`` asks and reports medians
over the repetitions.  All clients are closed loops — a client issues its
next transaction when the previous one returns, as the paper's emulated
browsers do.

The timed region is the workload's own entry point (``bench.run`` or
``run_scenario``): table load, warm-up, the measure window and the
in-call drain.  Commits, aborts and latencies cover the measure window
only; event/message counts cover the whole region, so ``…_per_commit``
ratios are comparable across commits of the repository but are not "cost
of exactly one transaction".  Post-run settling and audits are untimed.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from entry import (
    NODE_TARGET,
    ClusterSpec,
    MicroBenchmark,
    ScenarioSpec,
    TPCWBenchmark,
    build_cluster,
    check_constraints,
    check_replica_convergence,
    run_scenario,
)
from hostspeed import HostSpeed

__all__ = [
    "SIM_WORKLOADS",
    "begin_region",
    "outcome",
    "percentile",
    "region",
    "timed",
    "timing_of",
]

CLIENTS = 20
ITEMS = 500
WARMUP_S = 5.0
#: stock range of ``BENCH_sim_core.json`` — high enough that the measure
#: windows below never exhaust an item.
STOCK = {"min_stock": 500, "max_stock": 1_000}
SETTLE_MS = 30_000.0

#: simulated seconds of measure window per repetition.
FAST_MEASURE_S = 10.0
CONTENDED_MEASURE_S = 20.0
TPCW_MEASURE_S = 10.0
OUTAGE_MEASURE_S = 20.0
BASELINE_MEASURE_S = 10.0
BASELINE_PROTOCOLS = ("2pc", "repcommit", "megastore", "qw3")


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def timed(
    tracer: Any, host: HostSpeed, root: str, function: Callable, *args: Any, **kwargs: Any
):
    """``(result, timing)`` of one call — the timed region — during which
    ``host`` samples the host's speed (``perf/hostspeed.py``); see
    :func:`timing_of` for ``timing``.

    Cyclic GC is off inside (as ``repro bench`` does): the object graph
    is overwhelmingly acyclic, so collector pauses are pure timing noise.
    With a tracer the call runs under a root span and the tracer is live
    only for its duration, so untimed audits never reach the ledger.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    begun = begin_region(host)
    try:
        if tracer is not None:
            tracer.active = True
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        if tracer is not None:
            result = tracer.call(root, function, *args, **kwargs)
        else:
            result = function(*args, **kwargs)
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.active = False
        speed = host.stop()
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return result, timing_of(begun, wall_s, cpu_s, speed)


def begin_region(host: HostSpeed, tick: bool = True) -> Dict[str, Any]:
    """Set-up is over and a timed region begins: ends the watch ``host``
    kept over set-up (the first time round) and starts the region's."""
    ready = time.time()
    setup_speed = host.stop() if host.watching else None
    host.start(tick)
    return {"ready": ready, "setup_speed": setup_speed}


def timing_of(
    begun: Dict[str, Any], wall_s: float, cpu_s: float, speed: Dict[str, float]
) -> Dict[str, Any]:
    """:func:`begin_region`, a region's clock readings and what
    ``HostSpeed.stop()`` said of it, as one timing: ``raw_wall_s`` is what
    the clock read less the samples' own time, ``wall_s`` and ``cpu_s``
    are *scaled to the reference host*, ``scale`` is scaled ÷ raw."""
    raw_wall_s = wall_s - speed["inside_wall_s"]
    return {
        **begun,
        "raw_wall_s": raw_wall_s,
        "wall_s": raw_wall_s * speed["scale"],
        "cpu_s": (cpu_s - speed["inside_cpu_s"]) * speed["scale"],
        "scale": speed["scale"],
    }


def region(
    *, commits: int, aborts: int, latencies: Iterable[float], clock: str, timing: Dict[str, float]
) -> Dict[str, Any]:
    """What one timed region measured.  Wall-clock latencies are scaled
    to the reference host like the region itself; simulated ones are exact."""
    ordered = sorted(latencies)
    scale = timing["scale"] if clock == "wall" else 1.0
    return {
        "commits": commits,
        "aborts": aborts,
        "raw_wall_s": timing["raw_wall_s"],
        "wall_s": timing["wall_s"],
        "cpu_s": timing["cpu_s"],
        "latency_ms": {
            "clock": clock,
            "samples": len(ordered),
            "p50": percentile(ordered, 0.50) * scale,
            "p95": percentile(ordered, 0.95) * scale,
            "p99": percentile(ordered, 0.99) * scale,
        },
    }


def outcome(
    *,
    regions: List[Dict[str, Any]],
    first_timing: Dict[str, float],
    failures: List[str],
    counts: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, float]] = None,
    wall_extra: Optional[Dict[str, float]] = None,
    unfinished: int = 0,
) -> Dict[str, Any]:
    """The JSON-ready result of one repetition: its timed regions, when
    set-up ended and what the host's speed was during it, what its checks
    found.  ``extra``
    / ``wall_extra`` are per-layer metrics only this workload has; on the
    simulator the former must repeat exactly."""
    return {
        "regions": regions,
        "attempted": sum(r["commits"] + r["aborts"] for r in regions) + unfinished,
        "failures": failures,
        "ready": first_timing["ready"],
        "setup_speed": first_timing["setup_speed"],
        "counts": counts,
        "extra": extra or {},
        "wall_extra": wall_extra or {},
    }


# ----------------------------------------------------------------------
# Exact counts
# ----------------------------------------------------------------------
def _counts(sim: Any, network: Any, counters: Any, nodes: Iterable[Any]) -> Dict[str, Any]:
    stats = network.stats
    counter_values = counters.as_dict()
    return {
        "events": sim.events_processed,
        "messages": stats.messages_sent,
        "dropped": stats.messages_dropped,
        "per_type": dict(sorted(stats.per_type.items())),
        "coordinator_commits": counter_values.get("coordinator.commits", 0),
        "fast_commits": counter_values.get("coordinator.fast_commits", 0),
        "recoveries": sum(
            value
            for name, value in counter_values.items()
            if name.startswith("master.recovery.")
        ),
        "classic_rounds": counter_values.get("master.phase2_started", 0),
        "wal_entries": sum(len(node.wal) for node in nodes if hasattr(node, "wal")),
    }


def _counts_of_cluster(cluster: Any) -> Dict[str, Any]:
    return _counts(
        cluster.sim, cluster.network, cluster.counters, cluster.storage_nodes.values()
    )


def _counts_of_traced_nodes(tracer: Any) -> Dict[str, Any]:
    """The same counts when the entry point returns no cluster handle:
    reached through the nodes the tracer saw handling messages."""
    nodes = list(tracer.receivers[NODE_TARGET].values())
    transport = nodes[0].transport
    return _counts(transport.sim, transport.network, nodes[0].counters, nodes)


def _sum_counts(parts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    total: Dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for name, count in value.items():
                    bucket[name] = bucket.get(name, 0) + count
            else:
                total[key] = total.get(key, 0) + value
    return total


# ----------------------------------------------------------------------
# One cluster, one workload class
# ----------------------------------------------------------------------
def _run_bench(
    tracer: Any,
    host: HostSpeed,
    protocol: str,
    seed: int,
    bench: Any,
    table: str,
    keys: Callable[[], List[str]],
    measure_s: float,
    transactional: bool = True,
) -> Dict[str, Any]:
    """Build, run (timed), settle and audit.  ``transactional=False``
    (quorum writes) reports the ledger problems instead of failing on
    them."""
    cluster = build_cluster(ClusterSpec(protocol=protocol, seed=seed))
    (stats, _pool), timing = timed(
        tracer,
        host,
        "workloads/run",
        bench.run,
        cluster,
        num_clients=CLIENTS,
        warmup_ms=WARMUP_S * 1_000.0,
        measure_ms=measure_s * 1_000.0,
    )
    counts = _counts_of_cluster(cluster)
    cluster.sim.run(until=cluster.sim.now + SETTLE_MS)
    ledger_problems = bench.ledger.audit(cluster)
    failures: List[str] = []
    if transactional:
        failures += [f"{protocol}: ledger audit: {p}" for p in ledger_problems[:5]]
        divergent = check_replica_convergence(cluster, table, keys())
        if divergent:
            failures.append(f"{protocol}: {len(divergent)} divergent records")
        violations = check_constraints(cluster, table, keys())
        if violations:
            failures.append(f"{protocol}: {len(violations)} constraint violations")
    if stats.commits == 0:
        failures.append(f"{protocol}: no transaction committed")
    return {
        "commits": stats.commits,
        "aborts": stats.aborts,
        "latencies": stats.write_latencies.values,
        "timing": timing,
        "failures": failures,
        "counts": counts,
        "ledger_problems": len(ledger_problems),
    }


def _one_bench(run: Dict[str, Any]) -> Dict[str, Any]:
    """The repetition that consists of one :func:`_run_bench`."""
    return outcome(
        regions=[
            region(
                commits=run["commits"],
                aborts=run["aborts"],
                latencies=run["latencies"],
                clock="sim",
                timing=run["timing"],
            )
        ],
        first_timing=run["timing"],
        failures=run["failures"],
        counts=run["counts"],
    )


def _micro(hotspot: Optional[float] = None) -> Any:
    return MicroBenchmark(num_items=ITEMS, hotspot_fraction=hotspot, **STOCK)


def sim_micro_fast(seed: int, tracer: Any, host: HostSpeed) -> Dict[str, Any]:
    bench = _micro()
    return _one_bench(
        _run_bench(tracer, host, "mdcc", seed, bench, "items", lambda: bench.keys, FAST_MEASURE_S)
    )


def sim_micro_contended(seed: int, tracer: Any, host: HostSpeed) -> Dict[str, Any]:
    bench = _micro(hotspot=0.5)
    return _one_bench(
        _run_bench(
            tracer, host, "fast", seed, bench, "items", lambda: bench.keys, CONTENDED_MEASURE_S
        )
    )


def sim_tpcw_mix(seed: int, tracer: Any, host: HostSpeed) -> Dict[str, Any]:
    bench = TPCWBenchmark(num_items=ITEMS, **STOCK)
    return _one_bench(
        _run_bench(
            tracer, host, "mdcc", seed, bench, "item", lambda: bench.item_keys, TPCW_MEASURE_S
        )
    )


def sim_micro_outage(seed: int, tracer: Any, host: HostSpeed) -> Dict[str, Any]:
    spec = ScenarioSpec(
        cluster=ClusterSpec(protocol="mdcc", seed=seed),
        workload="micro",
        clients=CLIENTS,
        items=ITEMS,
        warmup_s=WARMUP_S,
        measure_s=OUTAGE_MEASURE_S,
        schedule="dc-outage",
        bucket_s=1.0,
    )
    result, timing = timed(tracer, host, "workloads/run", run_scenario, spec)
    failures: List[str] = []
    if not result.clean:
        failures.append(
            "post-heal invariants: "
            f"{len(result.audit_problems)} ledger problems, "
            f"{result.divergent_records} divergent records, "
            f"{result.constraint_violations} constraint violations, "
            f"{len(result.probe_problems)} probe problems"
        )
    if result.commits == 0:
        failures.append("no transaction committed")
    stats = result.stats
    stamps = sorted(stamp for stamp, _latency in stats.latency_series.points)
    edges = [stats.measure_start, *stamps, stats.measure_end]
    max_gap = max(later - earlier for earlier, later in zip(edges, edges[1:]))
    return outcome(
        regions=[
            region(
                commits=result.commits,
                aborts=result.aborts,
                latencies=stats.write_latencies.values,
                clock="sim",
                timing=timing,
            )
        ],
        first_timing=timing,
        failures=failures,
        counts=_counts_of_traced_nodes(tracer) if tracer is not None else None,
        extra={
            "faults.max_commit_gap_ms": max_gap,
            "faults.availability": result.availability,
        },
    )


def sim_micro_baselines(seed: int, tracer: Any, host: HostSpeed) -> Dict[str, Any]:
    """Four protocols back to back, pooled into one region."""
    runs = []
    extra: Dict[str, float] = {}
    wall_extra: Dict[str, float] = {}
    for protocol in BASELINE_PROTOCOLS:
        bench = _micro()
        run = _run_bench(
            tracer,
            host,
            protocol,
            seed,
            bench,
            "items",
            lambda bench=bench: bench.keys,
            BASELINE_MEASURE_S,
            transactional=protocol != "qw3",
        )
        runs.append(run)
        commits = max(run["commits"], 1)
        wall_extra[f"protocols.{protocol}.wall_ms_per_commit"] = (
            run["timing"]["wall_s"] * 1e3 / commits
        )
        extra[f"protocols.{protocol}.events_per_commit"] = run["counts"]["events"] / commits
        extra[f"protocols.{protocol}.commit_latency_ms_p50"] = percentile(
            sorted(run["latencies"]), 0.50
        )
        if protocol == "qw3":
            # Quorum writes promise nothing: lost updates are reported.
            extra["protocols.qw3.lost_updates"] = float(run["ledger_problems"])
    pooled = {
        key: sum(run["timing"][key] for run in runs) for key in ("raw_wall_s", "wall_s", "cpu_s")
    }
    return outcome(
        regions=[
            region(
                commits=sum(run["commits"] for run in runs),
                aborts=sum(run["aborts"] for run in runs),
                latencies=[latency for run in runs for latency in run["latencies"]],
                clock="sim",
                timing=pooled,
            )
        ],
        first_timing=runs[0]["timing"],
        failures=[failure for run in runs for failure in run["failures"]],
        counts=_sum_counts([run["counts"] for run in runs]),
        extra=extra,
        wall_extra=wall_extra,
    )


SIM_WORKLOADS: Dict[str, Callable[[int, Any, HostSpeed], Dict[str, Any]]] = {
    "sim_micro_fast": sim_micro_fast,
    "sim_micro_contended": sim_micro_contended,
    "sim_tpcw_mix": sim_tpcw_mix,
    "sim_micro_outage": sim_micro_outage,
    "sim_micro_baselines": sim_micro_baselines,
}
