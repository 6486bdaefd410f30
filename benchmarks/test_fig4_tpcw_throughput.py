"""Figure 4 — TPC-W throughput scale-out (§5.2.2).

Paper setup: (50 clients, 5k items), (100, 10k), (200, 20k) with data per
storage node held constant — clients and storage scale together.  Paper
result: QW protocols scale almost linearly; MDCC tracks them (within 10%
of QW-4 at 200 clients); 2PC scales but lower; Megastore* stays flat
("all transactions are serialized for the single partition").

Scaled-down scales: (12, 480 items), (25, 1,000), (50, 2,000) — same
clients-per-item ratio, 30 simulated seconds measured per point.
"""

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.reporting import format_table, save_results

SCALES = ((12, 480), (25, 1_000), (50, 2_000))
PROTOCOLS = ("qw4", "mdcc", "repcommit", "2pc", "megastore")
WINDOW = dict(warmup_s=10.0, measure_s=30.0, audit=False)
_CACHE = {}


def fig4_results():
    if not _CACHE:
        for protocol in PROTOCOLS:
            for clients, items in SCALES:
                _CACHE[(protocol, clients)] = run_scenario(
                    ScenarioSpec(
                        cluster=ClusterSpec(protocol=protocol, seed=4),
                        workload="tpcw",
                        clients=clients,
                        items=items,
                        **WINDOW,
                    )
                )
    return _CACHE


def test_fig4_tpcw_throughput(benchmark):
    results = benchmark.pedantic(fig4_results, rounds=1, iterations=1)

    rows = []
    for protocol in PROTOCOLS:
        row = {"protocol": protocol}
        for clients, _items in SCALES:
            row[f"{clients} clients (tps)"] = round(
                results[(protocol, clients)].throughput_tps, 1
            )
        rows.append(row)
    table = format_table(rows, title="Figure 4 — TPC-W committed write transactions / second")
    print()
    print(table)
    save_results("fig4_tpcw_throughput", table)

    tps = {key: r.throughput_tps for key, r in results.items()}
    small, mid, large = (s[0] for s in SCALES)
    benchmark.extra_info.update(
        {f"{p}_{c}": round(tps[(p, c)], 1) for p in PROTOCOLS for c, _ in SCALES}
    )

    # QW-4, MDCC and Replicated Commit scale near-linearly:
    # 4x clients -> >= 2.5x throughput (no serialization bottleneck).
    for protocol in ("qw4", "mdcc", "repcommit"):
        assert tps[(protocol, large)] >= 2.5 * tps[(protocol, small)], protocol
    # MDCC throughput stays within ~35% of QW-4 at the largest scale
    # (paper: within 10% at 200 clients; our scaled run is noisier).
    assert tps[("mdcc", large)] >= 0.65 * tps[("qw4", large)]
    # MDCC beats the other strongly consistent protocols at scale.
    assert tps[("mdcc", large)] > tps[("2pc", large)]
    assert tps[("mdcc", large)] > tps[("megastore", large)]
    # Replicated Commit's majority reads cost throughput on TPC-W's
    # read-heavy transactions (MDCC reads locally), but its commit path
    # still clears the single-log Megastore* ceiling easily.
    assert tps[("mdcc", large)] > tps[("repcommit", large)]
    assert tps[("repcommit", large)] > tps[("megastore", large)]
    # Megastore* does not scale: the single log caps it well below linear.
    assert tps[("megastore", large)] <= 1.7 * tps[("megastore", small)]
