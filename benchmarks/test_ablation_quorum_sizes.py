"""Ablation A3 — replication factor and quorum sizing.

The paper deploys five data centers with classic quorums of 3 and fast
quorums of 4 (§3.3.1).  This ablation re-derives the minimal quorums for
N = 3, 5 and sweeps the deployment: fewer replicas mean a *smaller* fast
quorum wait (the 4th-closest DC is farther than the 2nd-closest) but less
failure tolerance; the latency ordering across N is a direct property of
the RTT matrix.
"""

from repro.bench.reporting import format_table, save_results
from repro.paxos.quorum import QuorumSpec
from repro.sim.network import EC2_REGIONS

#: Data-center subsets per replication factor (prefix of the paper's five).
DEPLOYMENTS = {3: EC2_REGIONS[:3], 5: EC2_REGIONS}
_CACHE = {}


def quorum_results():
    if not _CACHE:
        from repro.db.cluster import ClusterSpec, build_cluster
        from repro.workloads.micro import MicroBenchmark

        for n, regions in DEPLOYMENTS.items():
            cluster = build_cluster(ClusterSpec(seed=23, datacenters=regions))
            bench = MicroBenchmark(num_items=1_000, min_stock=500, max_stock=1_000)
            stats, pool = bench.run(
                cluster, num_clients=30, warmup_ms=5_000, measure_ms=30_000
            )
            pool.drain(20_000)
            _CACHE[n] = (stats, bench.audit(cluster))
    return _CACHE


def test_ablation_quorum_sizes(benchmark):
    results = benchmark.pedantic(quorum_results, rounds=1, iterations=1)

    rows = []
    for n in sorted(DEPLOYMENTS):
        spec = QuorumSpec.for_replication(n)
        stats, problems = results[n]
        rows.append(
            {
                "replicas": n,
                "classic_quorum": spec.classic_size,
                "fast_quorum": spec.fast_size,
                "median_ms": round(stats.write_latencies.median, 1),
                "commits": stats.commits,
                "audit_problems": len(problems),
            }
        )
    table = format_table(rows, title="Ablation — replication factor & quorum sizes")
    print()
    print(table)
    save_results("ablation_quorum_sizes", table)

    # Derived sizes match the paper's N=5 setting and the N=3 minimum.
    assert QuorumSpec.for_replication(5).classic_size == 3
    assert QuorumSpec.for_replication(5).fast_size == 4
    assert QuorumSpec.for_replication(3).fast_size == 3
    # Correctness is independent of N.
    for n in DEPLOYMENTS:
        assert results[n][1] == [], n
    # Fewer replicas -> nearer fast quorum -> lower median latency.
    assert (
        results[3][0].write_latencies.median < results[5][0].write_latencies.median
    )
