"""Ablation A2 — quorum demarcation on/off (§3.4.2, Figure 2).

The paper's Figure 2 shows why per-node escrow alone is unsafe under
quorum replication: with stock 4 and five concurrent decrement-by-1
options, "through different message arrival orders it is possible for all
5 transactions to commit, even though committing them all violates the
constraint."  The demarcation limit L = (N - Q_F)/N · X closes the hole.

This benchmark reproduces the figure's scenario directly: rounds of
simultaneous decrements against a scarce record, under link jitter strong
enough to shuffle per-node arrival orders.  With demarcation enabled the
constraint holds in every round (at the cost of early rejections — the
slack); with plain escrow some rounds over-commit and drive every replica
negative.
"""

from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema
from repro.bench.reporting import format_table, save_results

ROUNDS = 12  # seeds 0..11 include several reordering-prone interleavings
STOCK = 4
CLIENTS_PER_ROUND = 8
JITTER_SIGMA = 0.25  # strong reordering, the paper's "different message orders"

_CACHE = {}


def _burst_round(demarcation: bool, seed: int) -> dict:
    """One Figure-2 burst: 8 simultaneous decrement-1 txs on stock 4."""
    cluster = build_cluster(
        ClusterSpec(partitions_per_table=1, seed=seed, demarcation=demarcation),
        jitter_sigma=JITTER_SIGMA,
    )
    cluster.register_table(
        TableSchema("items", constraints={"stock": Constraint(minimum=0)})
    )
    cluster.load_record("items", "scarce", {"stock": STOCK})
    datacenters = cluster.placement.datacenters
    futures = []
    for i in range(CLIENTS_PER_ROUND):
        tx = cluster.begin(cluster.add_client(datacenters[i % len(datacenters)]))
        tx.decrement("items", "scarce", "stock", 1)
        futures.append(tx.commit())
    cluster.sim.run(until=45_000)
    committed = sum(1 for f in futures if f.done and f.result().committed)
    floor = min(
        snap.value["stock"]
        for snap in cluster.committed_snapshots("items", "scarce").values()
    )
    return {"committed": committed, "floor": floor}


def demarcation_results():
    if not _CACHE:
        for enabled in (True, False):
            rounds = [_burst_round(enabled, seed) for seed in range(ROUNDS)]
            _CACHE[enabled] = {
                "total_commits": sum(r["committed"] for r in rounds),
                "overdrawn_rounds": sum(
                    1 for r in rounds if r["committed"] > STOCK
                ),
                "negative_floor_rounds": sum(1 for r in rounds if r["floor"] < 0),
                "worst_floor": min(r["floor"] for r in rounds),
                "max_committed": max(r["committed"] for r in rounds),
            }
    return _CACHE


def test_ablation_demarcation(benchmark):
    results = benchmark.pedantic(demarcation_results, rounds=1, iterations=1)

    rows = []
    for enabled in (True, False):
        r = results[enabled]
        rows.append({"demarcation": "on" if enabled else "off", **r})
    table = format_table(
        rows,
        title=(
            f"Ablation — demarcation on/off: {ROUNDS} Figure-2 bursts "
            f"({CLIENTS_PER_ROUND} simultaneous -1s on stock {STOCK})"
        ),
    )
    print()
    print(table)
    save_results("ablation_demarcation", table)
    benchmark.extra_info["overdrawn_off"] = results[False]["overdrawn_rounds"]
    benchmark.extra_info["worst_floor_off"] = results[False]["worst_floor"]

    on, off = results[True], results[False]
    # The paper's guarantee: with demarcation, no interleaving can commit
    # beyond the constraint — never more than STOCK commits, no replica
    # ever negative.
    assert on["max_committed"] <= STOCK
    assert on["worst_floor"] >= 0
    assert on["overdrawn_rounds"] == 0
    # Plain escrow over-commits under reordering in at least one round
    # (Figure 2's exact failure), and the overdraw is visible on replicas.
    assert off["overdrawn_rounds"] > 0
    assert off["worst_floor"] < 0
    # The price of safety: demarcation's slack rejects earlier, so it
    # commits no more than plain escrow overall.
    assert on["total_commits"] <= off["total_commits"]
