"""The repository's benchmark: one command, every metric by name.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py                    # all workloads, end-to-end metrics
    python3 perf/run.py --trace --out t.json
    python3 perf/run.py --list | --check-entry | --check-noise

A run repeats one fixed-size repetition of the workload (``perf/rep.py``,
a fresh process each time) until the timed regions add up to
``--seconds``, checks every repetition's outputs, prints each metric with
its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

Every wall-clock value is scaled to a reference host (``perf/hostspeed.py``:
each timed region is bracketed by two samples of a fixed piece of work)
and reported as the median over the run's timed regions, because the host
this was built on changes speed by half from one ten-second stretch to
the next (``perf/README.md`` has the numbers).  Set-up time and peak RSS
are medians over the repetitions.  Simulated-clock values must be
identical in every repetition of a run — that is checked, not assumed.

This file never imports the program: everything it knows about the
workload comes from ``BENCHMARK.json`` and the repetitions' JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(PERF_DIR)
BENCHMARK_JSON = os.path.join(REPO_DIR, "BENCHMARK.json")

#: a repetition that has not finished by then is killed and counted.
REP_TIMEOUT_S = 150.0
#: a run is over within this many times ``--seconds`` all-in (set-up,
#: host-speed samples and audits included): the driver's budget is about
#: twice ``run_seconds`` per run.
RUN_CAP = 1.75
#: share of ``--seconds`` a traced run gives the isolated-op probes and
#: the untraced reference repetitions; the rest goes to traced ones.
LAYERS_SHARE = 0.2
REFERENCE_SHARE = 0.3

#: per-layer metrics only some workloads produce; 0 elsewhere.
WORKLOAD_SPECIFIC = ("faults.", "protocols.", "transport.tcp.frames_per_commit")
#: what must repeat exactly between repetitions at one seed (simulator).
EXACT_FIELDS = ("attempted", "counts", "extra")
EXACT_REGION_FIELDS = ("commits", "aborts", "latency_ms")


class BenchmarkError(Exception):
    """The benchmark could not produce a result at all."""


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def _spawn(script: str, arguments: List[str]) -> Dict[str, Any]:
    """Run one child to completion and parse the JSON on its last line."""
    command = [sys.executable, os.path.join(PERF_DIR, script), *arguments]
    try:
        done = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=REP_TIMEOUT_S,
            cwd=REPO_DIR,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{script} did not finish within {REP_TIMEOUT_S:.0f} s")
    if done.returncode != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        raise BenchmarkError(f"{script} exited {done.returncode}: {tail}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"{script} printed no result")


def _repeat(
    workload: str, seed: int, budget_s: float, traced: bool, spans: bool, deadline: float
) -> List[Dict[str, Any]]:
    """Repetitions until their timed regions add up to ``budget_s``, or
    until one more would end after ``deadline``."""
    reps: List[Dict[str, Any]] = []
    timed_s = 0.0
    while True:
        started = time.monotonic()
        arguments = [
            "--workload", workload,
            "--seed", str(seed),
            "--traced", "1" if traced else "0",
            "--spans", "1" if spans and not reps else "0",
            "--spawned-at", repr(time.time()),
        ]  # fmt: skip
        rep = _spawn("rep.py", arguments)
        reps.append(rep)
        timed_s += sum(region["raw_wall_s"] for region in rep["regions"])
        finished = time.monotonic()
        if timed_s >= budget_s or finished + (finished - started) > deadline:
            return reps


def _regions(reps: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [region for rep in reps for region in rep["regions"]]


def _simulated(reps: List[Dict[str, Any]]) -> bool:
    return reps[0]["regions"][0]["latency_ms"]["clock"] == "sim"


def _differing_fields(
    a: Dict[str, Any], b: Dict[str, Any], fields: Any = EXACT_FIELDS
) -> List[str]:
    """The fields in which two simulator repetitions at one seed differ."""
    differing = [field for field in fields if a[field] != b[field]]
    for field in EXACT_REGION_FIELDS:
        if [r[field] for r in a["regions"]] != [r[field] for r in b["regions"]]:
            differing.append(field)
    return differing


def _problems(reps: List[Dict[str, Any]]) -> List[str]:
    """Every check a set of repetitions failed."""
    problems = [failure for rep in reps for failure in rep["failures"]]
    if _simulated(reps):
        for rep in reps[1:]:
            for field in _differing_fields(reps[0], rep):
                problems.append(
                    f"nondeterministic: {field} differs between two "
                    "repetitions at the same seed"
                )
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    regions = _regions(reps)
    median = statistics.median
    commits = sum(r["commits"] for r in regions)
    return {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "commits_per_wall_s": median(r["commits"] / r["wall_s"] for r in regions),
        "cpu_ms_per_commit": median(r["cpu_s"] * 1e3 / max(r["commits"], 1) for r in regions),
        "commit_latency_ms_p50": median(r["latency_ms"]["p50"] for r in regions),
        "commit_latency_ms_p95": median(r["latency_ms"]["p95"] for r in regions),
        "commit_share": commits / max(commits + sum(r["aborts"] for r in regions), 1),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
    }


def _wall_ms_per_commit(rep: Dict[str, Any]) -> float:
    regions = rep["regions"]
    return sum(r["wall_s"] for r in regions) * 1e3 / max(sum(r["commits"] for r in regions), 1)


def _typical(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The repetition whose scaled wall time per commit is the median."""
    ordered = sorted(reps, key=_wall_ms_per_commit)
    return ordered[(len(ordered) - 1) // 2]


def _tables(rep: Dict[str, Any]) -> List[Dict[str, Dict[str, int]]]:
    """The ledgers of every process of a traced repetition."""
    trace = rep["trace"]
    return [trace["table"], *(server["table"] for server in trace["servers"] if server)]


def per_layer(
    names: List[str],
    reference: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    isolated: Dict[str, float],
) -> Dict[str, float]:
    """A value for every per-layer metric ``BENCHMARK.json`` names.  A
    layer a workload never enters costs it nothing: its metrics are 0."""
    plain = _typical(reference)
    best = _typical(traced)
    commits = max(sum(r["commits"] for r in plain["regions"]), 1)
    traced_commits = max(sum(r["commits"] for r in best["regions"]), 1)
    traced_raw_s = sum(r["raw_wall_s"] for r in best["regions"])
    # The ledger is in nanoseconds as the clock read them; this takes
    # them to milliseconds on the reference host, per commit.
    ledger_ms = sum(r["wall_s"] for r in best["regions"]) / traced_raw_s / 1e6 / traced_commits
    tables = _tables(best)
    # Exact counts: the untraced repetition's; an entry point that hands
    # out no cluster reports them from the traced one — same names, and
    # _trace_problems checks that they agree when both exist.
    counts = plain["counts"] or best["counts"] or {}
    per_type = counts.get("per_type", {})

    def count(key: str) -> float:
        return float(counts.get(key, 0))

    def ledger_sum(column: str, matches: Any) -> int:
        return sum(
            row[column] for table in tables for name, row in table.items() if matches(name)
        )

    known = {
        "sim.core.events_per_commit": count("events") / commits,
        "sim.core.events_per_wall_s": count("events")
        / sum(r["wall_s"] for r in plain["regions"]),
        "sim.network.messages_per_commit": count("messages") / commits,
        "sim.network.dropped_share": count("dropped") / max(count("messages"), 1.0),
        "core.coordinator.fast_path_share": count("fast_commits")
        / max(count("coordinator_commits"), 1.0),
        "core.recovery.recoveries_per_commit": count("recoveries") / commits,
        "core.master.classic_rounds_per_commit": count("classic_rounds") / commits,
        "storage.wal_entries_per_commit": count("wal_entries") / commits,
        "db.client.commit_latency_ms_p99": statistics.median(
            r["latency_ms"]["p99"] for r in _regions(reference)
        ),
        "transport.codec.bytes_per_commit": ledger_sum(
            "units", lambda name: name == "transport.codec/dumps"
        )
        / traced_commits,
        "trace.overhead_ratio": _wall_ms_per_commit(best) / _wall_ms_per_commit(plain),
        # What no wrapper saw.  Nothing under the simulator, where one
        # root span covers the region; the event loop, the sockets and
        # the waiting of all four processes under TCP.
        "trace.unattributed_ms_per_commit": (
            traced_raw_s * 1e9 * len(tables)
            - ledger_sum("self_ns", lambda name: not name.startswith("hostspeed/"))
        )
        * ledger_ms,
        **plain["extra"],
        **{
            name: statistics.median(rep["wall_extra"][name] for rep in reference)
            for name in plain["wall_extra"]
        },
        **isolated,
    }
    metrics: Dict[str, float] = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name in known:
            value = known[name]
        elif head == "sim.network.msgs_per_commit":
            value = per_type.get(tail, 0) / commits
        elif head.startswith("handlers.") and tail == "self_ms_per_commit":
            handler = head.partition(".")[2]
            value = ledger_sum("self_ns", lambda n: n.split("/")[-1] == handler) * ledger_ms
        elif tail == "self_ms_per_commit":
            value = ledger_sum("self_ns", lambda n: n.split("/")[0] == head) * ledger_ms
        elif tail == "calls_per_commit":
            value = ledger_sum("calls", lambda n: n.split("/")[0] == head) / traced_commits
        elif name.startswith(WORKLOAD_SPECIFIC):
            value = 0.0
        else:
            raise BenchmarkError(f"BENCHMARK.json names {name}, which nothing measures")
        metrics[name] = float(value)
    return metrics


def _trace_problems(reference: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> List[str]:
    """Tracing must not change what the program does."""
    plain, best = reference[0], traced[0]
    if not _simulated(reference):
        return []
    problems = [
        f"observer effect: {field} differs with tracing on"
        for field in _differing_fields(plain, best, fields=())
    ]
    if plain["counts"] and plain["counts"] != best["counts"]:
        problems.append("observer effect: exact counts differ with tracing on")
    return problems


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(
    spec: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool, spans: bool
) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_CAP * seconds
    if not trace:
        reps = _repeat(workload, seed, seconds, False, False, deadline)
        problems = _problems(reps)
        measured = end_to_end(reps)
        try:
            metrics = {m["name"]: float(measured[m["name"]]) for m in spec["end_to_end"]}
        except KeyError as exc:
            raise BenchmarkError(f"BENCHMARK.json names {exc}, which nothing measures")
        detail: Dict[str, Any] = {"repetitions": reps}
    else:
        isolated = _spawn("layers.py", ["--budget-s", repr(seconds * LAYERS_SHARE)])
        reference = _repeat(workload, seed, seconds * REFERENCE_SHARE, False, False, deadline)
        traced = _repeat(
            workload,
            seed,
            seconds * (1.0 - LAYERS_SHARE - REFERENCE_SHARE),
            True,
            spans,
            deadline,
        )
        reps = reference + traced
        problems = _problems(reference) + _problems(traced)
        problems += _trace_problems(reference, traced)
        names = [metric["name"] for metric in spec["per_layer"]]
        metrics = per_layer(names, reference, traced, isolated)
        detail = {"repetitions": reference, "traced_repetitions": traced}
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": len(problems),
        "problems": problems,
        "metrics": metrics,
        "repetitions": len(reps),
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_result(spec: Dict[str, Any], result: Dict[str, Any]) -> None:
    units = _units(spec)
    regions = _regions(result["detail"]["repetitions"])
    latency = regions[0]["latency_ms"]
    speed = statistics.median(r["wall_s"] / r["raw_wall_s"] for r in regions)
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['repetitions']} repetitions, {len(regions)} timed regions of "
        f"{regions[0]['commits']} commits / {regions[0]['aborts']} aborts  "
        f"latency clock: {latency['clock']} ({latency['samples']} samples per region)  "
        f"host at {speed:.2f} of reference speed"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<46} {_format(value):>12} {units[name]}")
    for problem in result["problems"]:
        print(f"  FAILED {result['workload']}: {problem}")


def result_line(spec: Dict[str, Any], results: List[Dict[str, Any]]) -> str:
    """The machine-readable last line."""
    single = len(results) == 1
    units = _units(spec)
    metrics = {}
    for result in results:
        for name, value in result["metrics"].items():
            key = name if single else f"{result['workload']}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    return json.dumps(
        {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics,
        }
    )


def load_spec() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def list_benchmark(spec: Dict[str, Any]) -> int:
    print("command:", " ".join(spec["command"]), f"(run_seconds {spec['run_seconds']})")
    print("\nworkloads:")
    for workload in spec["workloads"]:
        print(f"  {workload['name']:<22} {workload['why']}")
    print("\nend-to-end metrics (name, unit, better, bound):")
    for metric in spec["end_to_end"]:
        print(
            f"  {metric['name']:<24} {metric['unit']:<6} {metric['better']:<7} "
            f"{metric['bound']:.0%}"
        )
    print("\nper-layer metrics (name, unit, better):")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<46} {metric['unit']:<6} {metric['better']}")
    return 0


def check_entry() -> int:
    sys.path.insert(0, PERF_DIR)
    import entry

    problems = entry.check_entry()
    for problem in problems:
        print(f"check-entry: {problem}", file=sys.stderr)
    if not problems:
        print(f"check-entry: {len(entry.__all__)} symbols and "
              f"{len(entry.trace_targets())} trace targets resolve; "
              "nothing comes from a module marked for deletion")
    return 1 if problems else 0


def check_noise(spec: Dict[str, Any], workloads: List[str], seed: int, seconds: float) -> int:
    """Two sets of runs of the same code at the same seed must agree:
    simulated-clock metrics and exact counts exactly, wall-clock
    end-to-end metrics within their bounds."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    failed = False
    for workload in workloads:
        first = run_workload(spec, workload, seed, seconds, False, False)
        second = run_workload(spec, workload, seed, seconds, False, False)
        simulated = _simulated(first["detail"]["repetitions"])
        print(f"== {workload}  seed {seed}")
        print(f"  {'metric':<24} {'first':>12} {'second':>12} {'change':>8}  verdict")
        for name, (bound, better) in bounds.items():
            a, b = first["metrics"][name], second["metrics"][name]
            exact = simulated and name in (
                "commit_latency_ms_p50", "commit_latency_ms_p95", "commit_share"
            )
            worse = (b - a) / a if better == "lower" else (a - b) / a
            if exact:
                ok, rule = a == b, "exact"
            else:
                ok, rule = abs(worse) <= bound, f"within {bound:.0%}"
            failed |= not ok
            print(
                f"  {name:<24} {_format(a):>12} {_format(b):>12} {worse:>+8.1%}  "
                f"{'ok' if ok else 'FAILED'} ({rule})"
            )
        if simulated:
            same = not _differing_fields(
                first["detail"]["repetitions"][0], second["detail"]["repetitions"][0]
            )
            failed |= not same
            print(f"  exact counts (events, messages, per type, counters): "
                  f"{'identical' if same else 'FAILED: differ'}")
        for result in (first, second):
            for problem in result["problems"]:
                failed = True
                print(f"  FAILED {workload}: {problem}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository's benchmark (see perf/README.md)."
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: the traced run (per-layer metrics); 0: end-to-end metrics",
    )  # fmt: skip
    parser.add_argument("--out", help="write the full report (and spans) here")
    parser.add_argument("--list", action="store_true", help="show BENCHMARK.json")
    parser.add_argument("--check-entry", action="store_true")
    parser.add_argument("--check-noise", action="store_true")
    args = parser.parse_args(argv)

    spec = load_spec()
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(known)}")
    selected = [args.workload] if args.workload else known
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.list:
        return list_benchmark(spec)
    if args.check_entry:
        return check_entry()
    try:
        if args.check_noise:
            return check_noise(spec, selected, args.seed, seconds)
        results = []
        for workload in selected:
            result = run_workload(
                spec, workload, args.seed, seconds, bool(args.trace), args.out is not None
            )
            print_result(spec, result)
            results.append(result)
    except BenchmarkError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    print(result_line(spec, results))
    for result in results:
        for problem in result["problems"]:
            print(f"perf/run.py: {result['workload']} failed: {problem}", file=sys.stderr)
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
