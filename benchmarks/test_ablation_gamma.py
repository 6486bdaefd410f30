"""Ablation A1 — the fast/classic policy's γ horizon (§3.3.2).

The paper: "If we detect a collision, we set the next γ instances (default
100) to classic.  After γ transactions, fast instances are automatically
tried again."  This ablation sweeps γ on a contended physical-write
workload (the Fast configuration, where every conflict is a collision)
and reports commits, aborts and latency.

Expected trade-off: tiny γ re-probes fast ballots while the hot spot is
still contended and pays repeated collision resolutions; large γ parks
hot records in (stable, slower) master-routed mode longer than needed.
"""

from repro.bench import run
from repro.bench.reporting import format_table, save_results
from repro.db.cluster import ClusterSpec, build_cluster
from repro.workloads import MicroBenchmark

GAMMAS = (1, 10, 100, 1_000)
_CACHE = {}


def gamma_results():
    if not _CACHE:
        for gamma in GAMMAS:
            _CACHE[gamma] = run(
                build_cluster(ClusterSpec(protocol="fast", seed=21, gamma=gamma)),
                # 200 items: hot, plenty of write-write conflicts
                MicroBenchmark(num_items=200, min_stock=2_000, max_stock=4_000),
                num_clients=30,
                warmup_ms=5_000,
                measure_ms=30_000,
            )
    return _CACHE


def test_ablation_gamma(benchmark):
    results = benchmark.pedantic(gamma_results, rounds=1, iterations=1)

    rows = []
    for gamma in GAMMAS:
        r = results[gamma]
        rows.append(
            {
                "gamma": gamma,
                "commits": r.commits,
                "aborts": r.aborts,
                "median_ms": round(r.median_ms, 1),
                "collisions": r.counters.get("coordinator.collisions", 0),
            }
        )
    table = format_table(rows, title="Ablation — γ (classic instances after a collision)")
    print()
    print(table)
    save_results("ablation_gamma", table)
    benchmark.extra_info.update({f"commits_g{g}": results[g].commits for g in GAMMAS})

    # Correctness must hold at every γ.
    for gamma in GAMMAS:
        assert results[gamma].audit_problems == [], gamma
        assert results[gamma].constraint_violations == 0, gamma
    # γ=1 re-probes fast immediately on a contended record: it must pay
    # more collision resolutions than the paper's γ=100.
    collisions = {
        g: results[g].counters.get("coordinator.collisions", 0) for g in GAMMAS
    }
    assert collisions[1] > collisions[100]
