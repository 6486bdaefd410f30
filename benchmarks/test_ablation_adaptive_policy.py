"""Ablation A4 — static vs adaptive fast/classic policy (§5.3.2 future work).

The paper: "fast ballots can take advantage of master-less operation as
long as the conflict rate is not very high.  When the conflict rate is too
high, a master-based approach is more beneficial and MDCC should be
configured as Multi.  Exploring policies to automatically determine the
best strategy remains as future work."

This ablation runs that future work: the adaptive policy doubles a
record's classic horizon on closely spaced collisions and resets it after
quiet periods (:mod:`repro.core.fastpolicy`).  Expectations:

* **hot workload** (tiny hot-spot): adaptive keeps contended records in
  master-serialized classic mode, avoiding repeated collision-recovery
  rounds — commits should be at least comparable to static-γ;
* **uniform workload** (no hot-spot): collisions are rare and the policy
  should not matter — both configurations commit within a few percent,
  and the adaptive run stays on the fast path for most transactions.
"""

from repro.bench import run
from repro.bench.reporting import format_table, save_results
from repro.db.cluster import ClusterSpec, build_cluster
from repro.workloads import MicroBenchmark

_CACHE = {}

SCENARIOS = {
    "hot": dict(hotspot_fraction=0.02, num_items=1_000),
    "uniform": dict(hotspot_fraction=None, num_items=1_000),
}


def adaptive_results():
    if not _CACHE:
        for scenario, extra in SCENARIOS.items():
            for policy in ("static", "adaptive"):
                _CACHE[(scenario, policy)] = run(
                    build_cluster(ClusterSpec(seed=44, gamma_policy=policy)),
                    MicroBenchmark(min_stock=500, max_stock=1_000, **extra),
                    num_clients=30,
                    warmup_ms=5_000,
                    measure_ms=30_000,
                )
    return _CACHE


def test_ablation_adaptive_policy(benchmark):
    results = benchmark.pedantic(adaptive_results, rounds=1, iterations=1)

    rows = []
    for (scenario, policy), r in results.items():
        rows.append(
            {
                "scenario": scenario,
                "policy": policy,
                "commits": r.commits,
                "aborts": r.aborts,
                "median_ms": round(r.median_ms, 1) if r.median_ms else None,
                "fast_commits": r.counters.get("coordinator.fast_commits", 0),
                "recoveries": r.counters.get("coordinator.collisions", 0),
            }
        )
    table = format_table(rows, title="Ablation — static vs adaptive gamma policy")
    print()
    print(table)
    save_results("ablation_adaptive_policy", table)

    for (scenario, policy), r in results.items():
        benchmark.extra_info[f"{scenario}_{policy}_commits"] = r.commits
        # Correctness never depends on the policy.
        assert r.audit_problems == [], (scenario, policy)
        assert r.constraint_violations == 0, (scenario, policy)

    # Uniform: policy choice is performance-neutral (within 15%).
    uniform_static = results[("uniform", "static")].commits
    uniform_adaptive = results[("uniform", "adaptive")].commits
    assert uniform_adaptive >= 0.85 * uniform_static

    # Hot: the adaptive policy must not collapse relative to static.
    hot_static = results[("hot", "static")].commits
    hot_adaptive = results[("hot", "adaptive")].commits
    assert hot_adaptive >= 0.85 * hot_static
