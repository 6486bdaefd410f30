"""Ablation A5 — visibility batching (§7 future work).

"In the future, we plan to explore more optimizations of the protocol,
such as ... batching techniques that reduce the message overhead."

Visibility notifications are off the commit critical path (§3.2.1), so
buffering them for a few milliseconds and shipping one message per
destination trades a bounded visibility delay for fewer wide-area
messages.  This ablation measures that trade on the micro-benchmark:

* total network messages drop measurably with batching on;
* commit latency and throughput stay within a few percent (the batch
  window only delays when updates become visible, not when they commit);
* all consistency audits still pass.
"""

from repro.bench import run
from repro.bench.reporting import format_table, save_results
from repro.db.cluster import ClusterSpec, build_cluster
from repro.workloads import MicroBenchmark

_CACHE = {}

WINDOWS_MS = (0.0, 5.0, 20.0)


def batching_results():
    if not _CACHE:
        for window in WINDOWS_MS:
            _CACHE[window] = run(
                build_cluster(ClusterSpec(seed=66, batch_ms=window)),
                MicroBenchmark(num_items=1_000, min_stock=500, max_stock=1_000),
                num_clients=25,
                warmup_ms=5_000,
                measure_ms=20_000,
            )
    return _CACHE


def test_ablation_batching(benchmark):
    results = benchmark.pedantic(batching_results, rounds=1, iterations=1)

    rows = []
    for window, r in results.items():
        rows.append(
            {
                "batch_ms": window,
                "commits": r.commits,
                "median_ms": round(r.median_ms, 1),
                "tps": round(r.throughput_tps, 1),
                "messages_saved": r.counters.get(
                    "coordinator.visibility_batched", 0
                ),
            }
        )
    table = format_table(rows, title="Ablation — visibility batching window")
    print()
    print(table)
    save_results("ablation_batching", table)

    plain = results[0.0]
    for window, r in results.items():
        benchmark.extra_info[f"saved_{window}ms"] = r.counters.get(
            "coordinator.visibility_batched", 0
        )
        # Correctness is batching-independent.
        assert r.audit_problems == [], window
        assert r.constraint_violations == 0, window
        if window > 0:
            # Real message savings, minimal performance cost.
            assert r.counters.get("coordinator.visibility_batched", 0) > 0
            assert r.commits >= 0.9 * plain.commits
            assert r.median_ms <= 1.1 * plain.median_ms
