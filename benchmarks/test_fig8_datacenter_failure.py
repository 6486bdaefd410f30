"""Figure 8 — response times across a data-center failure (§5.3.4).

Paper setup: 100 clients in US-West issue write transactions; about two
minutes in, the US-East data center (closest to US-West) is killed by
dropping all its messages.  Paper result: commits continue seamlessly;
average response time rises from 173.5ms to 211.7ms (the fast quorum must
now wait for a farther data center), and variance increases.

In our RTT matrix the 4th-closest response to a US-West client comes from
EU-Ireland (170ms RTT) before the failure and AP-Singapore (210ms) after —
the same ~40ms shift the paper measured.

Scaled-down run: 40 US-West clients, failure at t=60s of a 120s window.

This benchmark hands a hand-built schedule to the one run driver
(:func:`repro.bench.driver.run`): the figure's fault is a one-event
:class:`~repro.faults.schedule.FaultSchedule`, so the figure and
``benchmarks/test_chaos_scenarios.py`` exercise the exact same machinery
and cannot drift apart.  Unlike the chaos suite's ``dc-outage`` schedule,
the paper's scenario never recovers the data center.
"""

from repro.bench import run
from repro.bench.reporting import format_table, save_results
from repro.db.cluster import ClusterSpec, build_cluster
from repro.faults import FaultSchedule
from repro.workloads import MicroBenchmark

FAIL_AT_MS = 60_000.0
_CACHE = {}


def fig8_schedule() -> FaultSchedule:
    return FaultSchedule(
        "fig8-dc-outage",
        description="§5.3.4: kill us-east mid-run; no recovery.",
    ).fail_dc(FAIL_AT_MS, "us-east")


def fig8_result():
    if not _CACHE:
        _CACHE["run"] = run(
            build_cluster(ClusterSpec(seed=8)),
            MicroBenchmark(num_items=2_000, min_stock=500, max_stock=1_000),
            fig8_schedule(),
            num_clients=40,
            warmup_ms=5_000,
            measure_ms=120_000,
            client_dcs=["us-west"],
            audit=False,
        )
    return _CACHE["run"]


def test_fig8_datacenter_failure(benchmark):
    result = benchmark.pedantic(fig8_result, rounds=1, iterations=1)
    series = result.stats.latency_series

    rows = [
        {
            "t (s)": int(start // 1000),
            "mean latency (ms)": round(mean, 1),
            "commits": count,
        }
        for start, mean, count in series.bucket_means(10_000.0)
    ]
    table = format_table(
        rows,
        title=f"Figure 8 — latency time series (US-East killed at t={int(FAIL_AT_MS//1000)}s)",
    )
    print()
    print(table)
    save_results("fig8_datacenter_failure", table)

    # Means before/after the failure, excluding a settling band around it.
    before = series.mean_between(result.stats.measure_start, FAIL_AT_MS)
    after = series.mean_between(FAIL_AT_MS + 5_000, result.stats.measure_end)
    benchmark.extra_info["mean_before_ms"] = round(before, 1)
    benchmark.extra_info["mean_after_ms"] = round(after, 1)

    # Commits continue in every bucket after the failure: seamless.
    post_failure_buckets = [
        count
        for start, _mean, count in series.bucket_means(10_000.0)
        if start >= FAIL_AT_MS
    ]
    assert post_failure_buckets and all(count > 0 for count in post_failure_buckets)
    # Latency rises (wait shifts to the next-farthest DC) but stays the
    # same order of magnitude — no timeout cliffs.
    assert 1.05 * before < after < 2.0 * before
    assert result.commits > 0
    # The scenario engine saw the same fault the figure plots (the trailing
    # dc-recovered is the driver's post-run heal, outside the window).
    in_window = [
        e["event"]
        for e in result.chaos_events
        if e["t_ms"] <= result.stats.measure_end
    ]
    assert in_window == ["dc-failed"]
