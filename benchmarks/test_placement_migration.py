"""Adaptive master placement vs. static hash under a moving hotspot.

The paper's Figure 7 (§5.3.3) fixes master locality as a workload knob
and shows Multi's response time degrading as locality drops.  This
benchmark makes that story *dynamic*: the follow-the-sun workload rotates
the dominant write-origin data center every ``PHASE_MS``, and the
:mod:`repro.placement` subsystem chases it — migrating each record's
mastership to the dominant origin through Phase-1 ballot takeovers.

Expected shape (deterministic under the fixed seed):

* **median commit latency**: adaptive placement clearly beats static
  ``hash`` placement once the hotspot has rotated — the active region's
  clients find their masters locally instead of paying a wide-area
  detour on ~4/5 of records;
* **per-phase medians**: every daylight phase after the first sees the
  benefit (the first phase pays the adaptation delay);
* **migration counts are bounded**: the policy's dominance threshold,
  improvement margin and per-record cooldown keep migrations near one
  per record per phase — no ping-ponging;
* **correctness is untouched**: both runs audit clean (no lost updates,
  no constraint violations, replicas converge).
"""

from repro.bench import run
from repro.bench.reporting import format_table, save_results
from repro.db.cluster import ClusterSpec, build_cluster
from repro.workloads import GeoShiftBenchmark
from repro.placement.policy import MigrationPolicy

PROTOCOL = "multi"  # every commit routes through the master: locality shows
NUM_ITEMS = 120
NUM_CLIENTS = 20
PHASE_MS = 25_000.0
WARMUP_MS = 5_000.0
MEASURE_MS = 70_000.0  # measurement ends exactly on a phase boundary
SEED = 7

POLICY = MigrationPolicy(
    dominance_threshold=0.55,
    improvement_margin=0.1,
    min_weight=1.5,
    cooldown_ms=10_000.0,
)

_CACHE = {}


def placement_results():
    if not _CACHE:
        for master_policy in ("hash", "adaptive"):
            _CACHE[master_policy] = run(
                build_cluster(
                    ClusterSpec(protocol=PROTOCOL, seed=SEED, master_policy=master_policy),
                    migration_policy=POLICY if master_policy == "adaptive" else None,
                    tracker_halflife_ms=5_000.0,
                ),
                GeoShiftBenchmark(num_items=NUM_ITEMS, phase_ms=PHASE_MS),
                num_clients=NUM_CLIENTS,
                warmup_ms=WARMUP_MS,
                measure_ms=MEASURE_MS,
            )
    return _CACHE


def _phase_medians(result):
    """Median committed-write latency per daylight phase."""
    by_phase = {}
    for timestamp, latency in result.latencies.timestamped:
        by_phase.setdefault(int(timestamp // PHASE_MS), []).append(latency)
    return {
        phase: sorted(values)[len(values) // 2]
        for phase, values in sorted(by_phase.items())
    }


def test_placement_migration(benchmark):
    results = benchmark.pedantic(placement_results, rounds=1, iterations=1)
    hash_result = results["hash"]
    adaptive = results["adaptive"]

    rows = []
    for name, result in results.items():
        local = result.counters.get("coordinator.local_master_proposals", 0)
        remote = result.counters.get("coordinator.remote_master_proposals", 0)
        rows.append(
            {
                "placement": name,
                "median": round(result.median_ms, 1),
                "p90": round(result.p90_ms, 1),
                "commits": result.commits,
                "aborts": result.aborts,
                "migrations": result.extra["migrations"],
                "local%": round(100.0 * local / max(local + remote, 1)),
            }
        )
    phase_rows = []
    for name, result in results.items():
        for phase, median in _phase_medians(result).items():
            phase_rows.append(
                {"placement": name, "phase": phase, "median": round(median, 1)}
            )
    table = (
        format_table(
            rows, title="Adaptive vs static master placement (geoshift, multi)"
        )
        + "\n"
        + format_table(phase_rows, title="Median by daylight phase (ms)")
    )
    print()
    print(table)
    save_results("placement_migration", table)
    benchmark.extra_info.update(
        {
            "hash_median": round(hash_result.median_ms, 1),
            "adaptive_median": round(adaptive.median_ms, 1),
            "migrations": adaptive.extra["migrations"],
        }
    )

    # Correctness first: both placements audit clean.
    for result in results.values():
        assert not result.audit_problems
        assert result.constraint_violations == 0
        assert result.divergent_records == 0

    # The headline: once the hotspot rotates, adaptive placement clearly
    # beats static hash on median commit latency.
    assert adaptive.median_ms < 0.75 * hash_result.median_ms

    # Masters actually followed the sun.
    adaptive_local = adaptive.counters.get("coordinator.local_master_proposals", 0)
    adaptive_remote = adaptive.counters.get("coordinator.remote_master_proposals", 0)
    hash_local = hash_result.counters.get("coordinator.local_master_proposals", 0)
    hash_remote = hash_result.counters.get("coordinator.remote_master_proposals", 0)
    assert adaptive_local / (adaptive_local + adaptive_remote) > 2 * hash_local / (
        hash_local + hash_remote
    )

    # Every phase after the first (which pays the adaptation delay) is
    # faster than static placement's same phase.
    adaptive_phases = _phase_medians(adaptive)
    hash_phases = _phase_medians(hash_result)
    later = [p for p in adaptive_phases if p > min(adaptive_phases)]
    assert later, "expected multiple daylight phases in the measurement window"
    for phase in later:
        assert adaptive_phases[phase] < hash_phases[phase], (
            phase,
            adaptive_phases,
            hash_phases,
        )

    # Hysteresis bounds migrations: roughly one per record per phase.
    phases = int((WARMUP_MS + MEASURE_MS) // PHASE_MS) + 1
    migrations = adaptive.extra["migrations"]
    assert migrations >= NUM_ITEMS // 2, "adaptation barely happened"
    assert migrations <= NUM_ITEMS * (phases + 1), (
        f"{migrations} migrations for {NUM_ITEMS} records over {phases} phases "
        "— the policy is ping-ponging"
    )
    # Static placement performs none, by construction.
    assert hash_result.extra["migrations"] == 0
