#!/usr/bin/env python
"""Data-center failover drill (the paper's §5.3.4 / Figure 8 scenario).

Clients in US-West run the micro-benchmark's buy transaction.  A minute
in, the US-East data center — the one closest to US-West — goes dark.
MDCC's quorums simply wait for the next-farthest data center: commits
continue seamlessly, at a modestly higher latency.

The script prints a latency time line around the outage and the paper's
two summary numbers (average response time before and after the failure),
then brings the data center back and heals it with the anti-entropy
agent — the "background process [that brings] them up-to-date" the paper
anticipates.

Run it:

    python examples/failover_drill.py
"""

from repro import ClusterSpec, Constraint, TableSchema, build_cluster
from repro.bench import run
from repro.db.checkers import check_replica_convergence
from repro.workloads import MicroBenchmark

FAIL_AT_MS = 60_000.0
MEASURE_MS = 120_000.0
BUCKET_MS = 10_000.0


def main() -> None:
    result = run(
        build_cluster(ClusterSpec(seed=8)),
        MicroBenchmark(num_items=2_000, min_stock=500, max_stock=1_000),
        num_clients=30,
        warmup_ms=5_000,
        measure_ms=MEASURE_MS,
        client_dcs=["us-west"],  # all clients in one DC, like the paper
        fail_dc_at=("us-east", 5_000 + FAIL_AT_MS),
    )

    series = result.stats.latency_series
    print("=== commit latency time line (all clients in us-west) ===")
    print(f"{'window':>16} {'commits':>8} {'avg ms':>8}")
    for start, mean, count in series.bucket_means(BUCKET_MS):
        end = start + BUCKET_MS
        label = f"{start / 1000:5.0f}-{end / 1000:3.0f}s"
        marker = " <- us-east fails" if start <= 5_000 + FAIL_AT_MS < end else ""
        print(f"{label:>16} {count:8d} {mean:8.1f}{marker}")

    before = [v for t, v in series.points if t < 5_000 + FAIL_AT_MS]
    after = [v for t, v in series.points if t >= 5_000 + FAIL_AT_MS]
    print(f"\naverage before failure: {sum(before) / len(before):6.1f} ms "
          f"({len(before)} commits)")
    print(f"average after failure:  {sum(after) / len(after):6.1f} ms "
          f"({len(after)} commits)")
    print(
        "\nCommits continue across the outage: the fast quorum (4 of 5) "
        "simply\nwaits for the next-farthest data center instead of the "
        "failed one —\nno interruption, modestly higher latency (the "
        "paper: 173.5 -> 211.7 ms)."
    )
    assert after, "commits must continue through the data-center failure"

    heal_demo()


def heal_demo() -> None:
    """Outage, recovery, then anti-entropy repair of the stale replicas."""
    print("\n=== healing the recovered data center ===")
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=9))
    cluster.register_table(
        TableSchema("items", constraints={"stock": Constraint(minimum=0)})
    )
    keys = [f"item:{i}" for i in range(50)]
    for key in keys:
        cluster.load_record("items", key, {"stock": 100})
    client = cluster.add_client("us-west")
    sim = cluster.sim

    cluster.fail_datacenter("us-east")
    for key in keys[:30]:  # 30 records updated while us-east is dark
        tx = cluster.begin(client)
        tx.decrement("items", key, "stock", 10)
        assert sim.run_until(tx.commit()).committed
    sim.run(until=sim.now + 5_000)
    cluster.recover_datacenter("us-east")

    stale = check_replica_convergence(cluster, "items", keys)
    print(f"after recovery: {len(stale)} record(s) stale on us-east")

    agent = cluster.add_anti_entropy_agent("us-west")
    report = sim.run_until(agent.sweep("items", keys))
    sim.run(until=sim.now + 5_000)
    remaining = check_replica_convergence(cluster, "items", keys)
    print(
        f"anti-entropy sweep: {report.records_swept} records probed, "
        f"{report.replicas_repaired} replicas repaired, "
        f"{len(remaining)} still divergent"
    )
    assert not remaining, "sweep must heal every stale replica"


if __name__ == "__main__":
    main()
