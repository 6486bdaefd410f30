"""In-text median tables (§5.2.1 and §5.3.1) — paper vs. reproduction.

The paper reports two median-latency tables in prose:

* TPC-W (Figure 3's medians): QW-3 188ms, QW-4 260ms, MDCC 278ms,
  2PC 668ms, Megastore* 17,810ms.
* Micro-benchmark (Figure 5's medians): MDCC 245ms, Fast 276ms,
  Multi 388ms, 2PC 543ms.

Absolute numbers depend on the authors' EC2 RTTs and testbed; the
reproduction asserts the *ratios* between protocols, which are properties
of the protocols' round-trip structure, and prints both for comparison.
"""

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.reporting import format_table, save_results

PAPER_TPCW = {"qw3": 188.0, "qw4": 260.0, "mdcc": 278.0, "2pc": 668.0, "megastore": 17_810.0}
PAPER_MICRO = {"mdcc": 245.0, "fast": 276.0, "multi": 388.0, "2pc": 543.0}

SCALE = dict(clients=30, items=1_600, warmup_s=10.0, measure_s=30.0, audit=False)
_CACHE = {}


def median_results():
    if not _CACHE:
        tpcw = {}
        for protocol in PAPER_TPCW:
            tpcw[protocol] = run_scenario(
                ScenarioSpec(
                    cluster=ClusterSpec(protocol=protocol, seed=11),
                    workload="tpcw",
                    **SCALE,
                )
            ).median_ms
        micro = {}
        for protocol in PAPER_MICRO:
            micro[protocol] = run_scenario(
                ScenarioSpec(cluster=ClusterSpec(protocol=protocol, seed=12), **SCALE)
            ).median_ms
        _CACHE["tpcw"] = tpcw
        _CACHE["micro"] = micro
    return _CACHE


def _rows(paper, measured, baseline):
    rows = []
    for protocol, paper_ms in paper.items():
        ours = measured[protocol]
        rows.append(
            {
                "protocol": protocol,
                "paper (ms)": paper_ms,
                "ours (ms)": round(ours, 1),
                "paper ratio": round(paper_ms / paper[baseline], 2),
                "our ratio": round(ours / measured[baseline], 2),
            }
        )
    return rows


def test_median_tables(benchmark):
    results = benchmark.pedantic(median_results, rounds=1, iterations=1)
    tpcw, micro = results["tpcw"], results["micro"]

    table = format_table(
        _rows(PAPER_TPCW, tpcw, "mdcc"),
        title="TPC-W median write latencies — paper vs reproduction (ratios vs MDCC)",
    ) + "\n" + format_table(
        _rows(PAPER_MICRO, micro, "mdcc"),
        title="Micro-benchmark medians — paper vs reproduction (ratios vs MDCC)",
    )
    print()
    print(table)
    save_results("median_tables", table)
    benchmark.extra_info.update(
        {f"tpcw_{k}": round(v, 1) for k, v in tpcw.items()}
    )
    benchmark.extra_info.update(
        {f"micro_{k}": round(v, 1) for k, v in micro.items()}
    )

    # Ratio shape vs MDCC.  Paper ratios: qw3 0.68, qw4 0.94, 2pc 2.4,
    # megastore 64.  Accept generous bands — the substrate differs.
    assert 0.4 <= tpcw["qw3"] / tpcw["mdcc"] <= 1.0
    assert 0.6 <= tpcw["qw4"] / tpcw["mdcc"] <= 1.05
    assert 1.8 <= tpcw["2pc"] / tpcw["mdcc"] <= 4.5
    # Paper ratio 64x at 100-client saturation; Megastore* queue depth
    # scales with offered load vs its fixed serialized capacity, so the
    # scaled-down run asserts a conservative floor.
    assert tpcw["megastore"] / tpcw["mdcc"] >= 4.0
    # Micro ratios: fast 1.13, multi 1.58, 2pc 2.2.
    assert 0.95 <= micro["fast"] / micro["mdcc"] <= 1.5
    assert 1.3 <= micro["multi"] / micro["mdcc"] <= 2.6
    assert 1.8 <= micro["2pc"] / micro["mdcc"] <= 4.0
