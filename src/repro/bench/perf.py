"""`repro bench`: the deterministic simulator-core performance baseline.

Runs a fixed micro workload (fixed seed, fixed client/item counts) on
each first-class variant (the MDCC variants plus Replicated Commit)
and emits ``BENCH_sim_core.json`` — the committed
perf baseline CI gates against on every PR so the perf trajectory of
the simulator core is visible (and enforced) over time.

The payload has two disjoint parts:

* ``results`` (plus ``params``/``schema``/``seed``) — **simulated-time**
  derived (events per simulated second, commits per simulated second,
  per-type message counts) and therefore exactly reproducible: two runs
  at the same seed must render byte-identical JSON once the wall-clock
  block is stripped, and CI asserts they do.
* ``wallclock`` — how fast the host chewed through the event heap
  (events per wall-second).  Machine-dependent by nature, excluded from
  every byte-identity comparison and advisory only: raw wall-clock on a
  shared host swings by more than any tolerance worth gating on
  (``perf/hostspeed.py``); ``perf/run.py`` measures speed.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.api import ClusterSpec, build_cluster
from repro.workloads.micro import MicroBenchmark

__all__ = [
    "BENCH_SCHEMA",
    "compare_to_baseline",
    "render_bench_json",
    "run_bench",
    "strip_wallclock",
]

BENCH_SCHEMA = "bench_sim_core/v3"

#: the fixed workload; changing any of these is a schema bump.
_DEFAULTS = dict(
    clients=20,
    items=500,
    warmup_ms=5_000.0,
    measure_ms=20_000.0,
    partitions_per_table=2,
    min_stock=500,
    max_stock=1_000,
)

_VARIANTS = ("mdcc", "fast", "multi", "repcommit")


def _bench_one(
    protocol: str, seed: int, params: Dict
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One variant run: returns (deterministic result, wallclock block)."""
    cluster = build_cluster(
        ClusterSpec(
            protocol=protocol,
            seed=seed,
            partitions_per_table=params["partitions_per_table"],
        )
    )
    bench = MicroBenchmark(
        num_items=params["items"],
        min_stock=params["min_stock"],
        max_stock=params["max_stock"],
    )
    # Timing discipline (as pyperf does): cyclic GC off during the timed
    # region.  The sim's object graph is overwhelmingly acyclic — frozen
    # dataclasses, tuples — so refcounting reclaims it and collector
    # pauses are pure timing noise.  Simulated results are unaffected.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        stats, _pool = bench.run(
            cluster,
            num_clients=params["clients"],
            warmup_ms=params["warmup_ms"],
            measure_ms=params["measure_ms"],
        )
        wall_s = time.perf_counter() - wall_start
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    events = cluster.sim.events_processed
    sim_ms = cluster.sim.now
    sim_s = sim_ms / 1_000.0
    measure_s = params["measure_ms"] / 1_000.0
    net = cluster.network.stats
    print(
        f"[bench] {protocol}: {events} events in {wall_s:.2f}s wall "
        f"({events / wall_s:,.0f} events/wall-s — advisory, machine-dependent)",
        file=sys.stderr,
    )
    result = {
        "aborts": stats.aborts,
        "commits": stats.commits,
        "commits_per_sim_s": round(stats.commits / measure_s, 3),
        "events": events,
        "events_per_sim_s": round(events / sim_s, 3),
        "messages": {
            "delivered": net.messages_delivered,
            "dropped": net.messages_dropped,
            "per_type": dict(sorted(net.per_type.items())),
            "sent": net.messages_sent,
        },
        "messages_per_sim_s": round(net.messages_sent / sim_s, 3),
        "sim_ms": round(sim_ms, 3),
    }
    wallclock = {
        "events_per_wall_s": round(events / wall_s, 1),
        "wall_s": round(wall_s, 3),
    }
    return result, wallclock


def run_bench(seed: int = 7, overrides: Optional[Dict] = None) -> Dict[str, object]:
    """The artifact payload: deterministic for a given seed + params,
    except for the clearly-separated ``wallclock`` block."""
    params = dict(_DEFAULTS)
    if overrides:
        params.update(overrides)
    results: Dict[str, object] = {}
    wallclock: Dict[str, object] = {}
    for protocol in _VARIANTS:
        results[protocol], wallclock[protocol] = _bench_one(protocol, seed, params)
    return {
        "params": params,
        "results": results,
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "wallclock": wallclock,
    }


def strip_wallclock(payload: Dict[str, object]) -> Dict[str, object]:
    """The byte-identity view: everything except machine-dependent keys."""
    return {key: value for key, value in payload.items() if key != "wallclock"}


def compare_to_baseline(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Gate a fresh bench payload against a committed baseline.

    Returns a list of failure messages (empty == gate passes): any
    difference in the deterministic view (schema, params, seed or
    per-variant simulated results) is a hard failure — the simulated
    trajectory drifted, which no amount of "it got faster" excuses.
    The ``wallclock`` blocks are not compared.
    """
    failures: List[str] = []
    if baseline.get("schema") != current.get("schema"):
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')!r} vs "
            f"current {current.get('schema')!r} — regenerate the baseline "
            "with `repro bench`"
        )
        return failures
    base_det = strip_wallclock(baseline)
    cur_det = strip_wallclock(current)
    for key in sorted(set(base_det) | set(cur_det)):
        if base_det.get(key) != cur_det.get(key):
            failures.append(
                f"deterministic drift in {key!r}: the simulated "
                "trajectory no longer matches the committed baseline"
            )
    return failures


def render_bench_json(payload: Dict[str, object]) -> str:
    """The canonical byte form: sorted keys, two-space indent, newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
