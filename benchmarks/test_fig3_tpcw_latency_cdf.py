"""Figure 3 — TPC-W write-transaction response-time CDFs (§5.2.1).

Paper setup: TPC-W at scale factor 10,000 items, 100 geo-distributed
clients, five protocols.  Paper medians: QW-3 188ms < QW-4 260ms < MDCC
278ms < 2PC 668ms << Megastore* 17,810ms.

The headline claims this reproduces:

* MDCC's latency is close to the eventually consistent QW-4 (same quorum
  wait) — "strong consistency at a cost similar to eventually consistent
  protocols";
* MDCC halves 2PC's latency (one round trip instead of two);
* Megastore* is orders of magnitude slower under load because all
  transactions serialize through one commit log.

Scaled-down run: 50 clients, 2,000 items, 60 simulated seconds.
"""

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.reporting import cdf_table, format_table, save_results, shape_check

PROTOCOLS = ("qw3", "qw4", "mdcc", "repcommit", "2pc", "megastore")
_CACHE = {}


def fig3_results():
    if not _CACHE:
        for protocol in PROTOCOLS:
            _CACHE[protocol] = run_scenario(
                ScenarioSpec(
                    cluster=ClusterSpec(protocol=protocol, seed=3),
                    workload="tpcw",
                    clients=50,
                    items=2_000,
                    warmup_s=10.0,
                    measure_s=60.0,
                    audit=protocol not in ("qw3", "qw4"),  # QW loses updates by design
                )
            )
    return _CACHE


def test_fig3_tpcw_latency_cdf(benchmark):
    results = benchmark.pedantic(fig3_results, rounds=1, iterations=1)

    rows = cdf_table({name: r.latencies for name, r in results.items()})
    table = format_table(
        rows, title="Figure 3 — TPC-W write transaction response times (ms)"
    )
    print()
    print(table)
    save_results("fig3_tpcw_latency_cdf", table)

    medians = {name: r.median_ms for name, r in results.items()}
    benchmark.extra_info.update(
        {f"median_{k}": round(v, 1) for k, v in medians.items() if v is not None}
    )

    # Paper ordering (Fig. 3), with Replicated Commit slotted between
    # MDCC and 2PC: its commit is one WAN round like MDCC's fast path,
    # but every read pays the majority price (Patterson et al. §5):
    # QW-3 < QW-4 <= MDCC < RC < 2PC << Megastore*.
    shape_check(
        [
            ("qw3", medians["qw3"]),
            ("qw4", medians["qw4"]),
            ("mdcc", medians["mdcc"]),
            ("repcommit", medians["repcommit"]),
            ("2pc", medians["2pc"]),
            ("megastore", medians["megastore"]),
        ],
        tolerance=1.05,
    )
    # MDCC within ~40% of QW-4 (same fast-quorum wait, plus option logic).
    assert medians["mdcc"] <= 1.4 * medians["qw4"]
    # "MDCC reduces per transaction latencies by at least 50% compared to
    # 2PC" — i.e. 2PC is at least ~2x slower.
    assert medians["2pc"] >= 1.8 * medians["mdcc"]
    # Replicated Commit: one WAN round per transaction, so well under
    # 2PC's two all-replica rounds, but above MDCC (majority reads).
    assert medians["2pc"] >= 1.5 * medians["repcommit"]
    assert medians["repcommit"] <= 1.6 * medians["mdcc"]
    # Megastore* serializes everything through one commit log: far slower
    # than every parallel protocol.  The paper's 27x-over-2PC gap needs its
    # full 100-client saturation (queue depth scales with offered load vs
    # Megastore*'s ~fixed serialized capacity); at this scaled-down load we
    # assert the conservative shape and record the measured ratio.
    assert medians["megastore"] >= 2 * medians["2pc"]
    assert medians["megastore"] >= 4 * medians["mdcc"]
    benchmark.extra_info["megastore_over_2pc"] = round(
        medians["megastore"] / medians["2pc"], 2
    )
    # Strongly consistent protocols pass the audits.
    for name in ("mdcc", "repcommit", "2pc", "megastore"):
        assert results[name].audit_problems == [], name
        assert results[name].constraint_violations == 0, name
