"""Command-line interface: run any protocol/workload combination.

A downstream user's entry point to the reproduction without writing a
script::

    python -m repro run --protocol mdcc --workload micro --clients 25
    python -m repro run --protocol 2pc --workload tpcw --measure-s 20
    python -m repro compare --protocols mdcc,2pc,qw4 --workload micro
    python -m repro run --protocol mdcc --fail-dc us-east --fail-at-s 30
    python -m repro run --protocol multi --workload geoshift --master-policy adaptive
    python -m repro chaos dc-outage --variant multi --seed 7
    python -m repro reconfig --datacenters us-west,us-east,eu-west --seed 7
    python -m repro list

``run`` executes one experiment and prints a summary (or ``--json``);
``compare`` runs several protocols on the identical workload and prints
the Figure-3-style comparison table; ``chaos`` replays a named fault
schedule (:mod:`repro.faults`) against one MDCC variant and prints the
scenario verdict as JSON — deterministic for a given seed, so two runs
diff empty; ``reconfig`` replays the elastic-membership disaster-replace
lifecycle (outage → decommission → snapshot-bootstrapped replacement
join) and reports the membership history alongside the verdict;
``list`` enumerates the available protocols, workloads, master policies
and chaos schedules.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.driver import RunResult
from repro.db.cluster import PROTOCOLS
from repro.protocols.base import get_protocol, protocols_supporting
from repro.faults.schedule import NAMED_SCHEDULES
from repro.workloads import WORKLOADS, get_workload

__all__ = ["build_parser", "main"]

#: geoshift phase for the subcommands without a --phase-s flag (`chaos`,
#: `reconfig`): the sun of a follow-the-sun-outage cell moves every 15 s,
#: as in benchmarks/results/chaos_matrix.txt.
_CHAOS_PHASE_S = 15.0

_PROTOCOL_NOTES = {
    "mdcc": "full MDCC: fast ballots + commutative updates + demarcation",
    "fast": "fast ballots without commutative update support",
    "multi": "master-routed classic ballots (Multi-Paxos per record)",
    "repcommit": "Replicated Commit: Paxos across DCs over per-DC 2PC",
    "2pc": "two-phase commit over the same replicas",
    "qw3": "quorum writes, write quorum 3 (eventually consistent)",
    "qw4": "quorum writes, write quorum 4 (eventually consistent)",
    "megastore": "Megastore*: one Paxos log per entity group",
}

_MASTER_POLICY_NOTES = {
    "hash": "static, uniform by key hash (the paper's Multi setup)",
    "fixed:<dc>": "static, all masters in one data center",
    "table": "static, the table schema's default master DC (Python API only)",
    "adaptive": "dynamic: mastership migrates to the dominant write origin",
}

_CHAOS_NOTES = {
    "dc-outage": "Figure 8: one full data-center outage and recovery",
    "rolling-partitions": "successive N-way splits sweeping the fabric",
    "flaky-wan": "degraded links: latency, jitter, loss, a flapping route",
    "coordinator-crash": "dangling transactions + a master crash/re-election",
    "follow-the-sun-outage": "geoshift + adaptive placement; hotspot DC dies",
    "dc-replace": "elastic membership: outage, decommission, replacement join",
}


def _master_policy(value: str) -> str:
    if value.startswith("fixed:"):
        from repro.sim.network import EC2_REGIONS

        dc = value.split(":", 1)[1]
        if dc not in EC2_REGIONS:
            raise argparse.ArgumentTypeError(
                f"unknown data center {dc!r}; choose from {', '.join(EC2_REGIONS)}"
            )
        return value
    if value in ("hash", "adaptive"):
        return value
    if value == "table":
        # Per-table defaults have no CLI syntax; the workloads here would
        # crash on the first proposal without them.
        raise argparse.ArgumentTypeError(
            "the 'table' policy needs per-table master defaults and is only "
            "available through the Python API (build_cluster(table_master_dc=...))"
        )
    raise argparse.ArgumentTypeError(
        f"unknown master policy {value!r}; choose hash, adaptive or fixed:<dc>"
    )


def _datacenter_list(value: str) -> tuple:
    from repro.sim.network import EC2_REGIONS

    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if len(names) < 2:
        raise argparse.ArgumentTypeError("need at least two data centers")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError("duplicate data center")
    unknown = [name for name in names if name not in EC2_REGIONS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown data center(s) {', '.join(unknown)}; "
            f"choose from {', '.join(EC2_REGIONS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MDCC (EuroSys'13) reproduction — run simulated "
        "geo-replicated transaction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one protocol on one workload")
    _experiment_args(run)
    run.add_argument(
        "--protocol", choices=PROTOCOLS, default="mdcc", help="protocol to run"
    )
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="run the ScenarioSpec JSON in FILE ('-' for stdin); the spec "
        "fully defines the experiment, so other experiment flags are "
        "ignored (see repro.api.ScenarioSpec.to_json)",
    )
    run.add_argument(
        "--transport",
        choices=("sim", "tcp"),
        default="sim",
        help="sim (deterministic, default) or tcp (the same run against a "
        "live local cluster; needs --topology; windows are wall-clock)",
    )
    run.add_argument(
        "--topology",
        default=None,
        help="tcp only: topology file (see `repro topology` to generate "
        "one); protocol, seed, items and data centers come from it",
    )
    run.add_argument(
        "--spawn-servers",
        action="store_true",
        help="tcp only: launch `repro serve` subprocesses for every "
        "topology node, shut them down afterwards",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a causal trace of every transaction to FILE "
        "(repro.trace artifact JSON); the run's own output is unchanged",
    )

    trace = sub.add_parser(
        "trace",
        help="run a scenario with causal tracing on and emit the trace artifact",
        description="Runs one MDCC-variant scenario with the deterministic "
        "tracer installed and writes the trace artifact: every transaction's "
        "spans (fast-accept, phase1-takeover, phase2-tally, visibility "
        "fan-out, recovery escalation) with abort/slow-path attributions, "
        "plus per-node counter and latency metrics.  Byte-identical across "
        "runs at the same seed.  --explain TXN_ID prints one transaction's "
        "causal timeline as an indented tree.",
    )
    _experiment_args(trace)
    trace.add_argument(
        "--protocol",
        choices=protocols_supporting("supports_tracing"),
        default="mdcc",
        help="protocol to trace (must emit causal spans)",
    )
    trace.add_argument(
        "--schedule",
        choices=NAMED_SCHEDULES,
        default=None,
        help="optionally replay a named fault schedule while tracing",
    )
    trace.add_argument(
        "--out",
        default="-",
        metavar="FILE",
        help="trace artifact path ('-' for stdout, the default)",
    )
    trace.add_argument(
        "--explain",
        default=None,
        metavar="TXN_ID",
        help="print the causal timeline of one transaction instead of "
        "the artifact (combine with --out FILE to also keep the artifact)",
    )

    serve = sub.add_parser(
        "serve",
        help="run one storage node as a real process over asyncio TCP",
        description="Hosts a single MDCC storage node listening on its "
        "topology address.  One process per node; shut down with SIGTERM "
        "or a transport-level shutdown control frame (the driver sends "
        "one when --spawn-servers is used).",
    )
    serve.add_argument("--topology", required=True, help="topology JSON file")
    serve.add_argument("--node", required=True, help="node id to host")

    topo = sub.add_parser(
        "topology",
        help="generate a loopback topology file for the TCP backend",
    )
    topo.add_argument("--out", required=True, help="output path")
    topo.add_argument(
        "--datacenters",
        type=_datacenter_list,
        default=("us-west", "us-east", "eu-west"),
    )
    topo.add_argument(
        "--protocol",
        choices=protocols_supporting("supports_tcp"),
        default="mdcc",
    )
    topo.add_argument("--partitions", type=int, default=1)
    topo.add_argument("--seed", type=int, default=1)
    topo.add_argument("--codec", choices=("json", "msgpack"), default="json")
    topo.add_argument("--base-port", type=int, default=7100)
    topo.add_argument("--items", type=int, default=200)

    bench = sub.add_parser(
        "bench",
        help="deterministic simulator-core perf baseline (BENCH_sim_core.json)",
        description="Runs a fixed micro workload on every MDCC variant and "
        "emits simulated events/sec + commits/sec.  Byte-identical across "
        "runs at the same seed; wall-clock numbers go to stderr only.",
    )
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument(
        "--output",
        default="BENCH_sim_core.json",
        help="artifact path ('-' for stdout)",
    )
    bench.add_argument(
        "--measure-s",
        type=float,
        default=None,
        help="override the fixed measurement window (changes the artifact!)",
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="gate against a committed baseline JSON: exit 1 on any "
        "deterministic drift (wall-clock numbers are advisory)",
    )

    compare = sub.add_parser(
        "compare", help="run several protocols on the identical workload"
    )
    _experiment_args(compare)
    compare.add_argument(
        "--protocols",
        default="mdcc,2pc,qw4",
        help="comma-separated protocol list (default: mdcc,2pc,qw4)",
    )
    compare.add_argument("--json", action="store_true")

    chaos = sub.add_parser(
        "chaos",
        help="replay a named fault schedule against one MDCC variant",
        description="Runs a chaos scenario (see `repro list` for the named "
        "schedules) and prints the scenario verdict as JSON: availability "
        "timeline, invariant-checker results, recovery outcomes and the "
        "fault event log.  Deterministic for a given --seed.",
    )
    chaos.add_argument(
        "schedule", choices=NAMED_SCHEDULES, help="named fault schedule"
    )
    chaos.add_argument(
        "--variant",
        choices=tuple(
            name for name in PROTOCOLS if get_protocol(name).chaos_schedules
        ),
        default="mdcc",
        help="protocol under test (see `repro list` for per-protocol "
        "schedule support)",
    )
    chaos.add_argument("--workload", choices=WORKLOADS, default=None)
    chaos.add_argument("--clients", type=int, default=20)
    chaos.add_argument("--items", type=int, default=300)
    chaos.add_argument("--warmup-s", type=float, default=5.0)
    chaos.add_argument("--measure-s", type=float, default=60.0)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--bucket-s",
        type=float,
        default=5.0,
        help="availability-timeline bucket width in seconds",
    )
    chaos.add_argument(
        "--master-policy",
        type=_master_policy,
        default=None,
        help="override the schedule's master-policy hint",
    )
    chaos.add_argument(
        "--events",
        action="store_true",
        help="include the full chaos event log in the output",
    )
    chaos.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a causal trace of the scenario to FILE",
    )

    reconfig = sub.add_parser(
        "reconfig",
        help="replay the elastic-membership dc-replace lifecycle",
        description="Builds an elastic cluster, runs a workload while one "
        "data center fails, is decommissioned (epoch-fenced quorum "
        "shrink + mastership evacuation) and is replaced by a "
        "snapshot-bootstrapped join, then prints the scenario verdict "
        "plus the membership history as JSON.  Deterministic for a "
        "given --seed; exits 1 on any invariant violation or if the "
        "replacement was not admitted.",
    )
    reconfig.add_argument(
        "--variant",
        choices=protocols_supporting("supports_elastic"),
        default="mdcc",
        help="protocol under test (elastic membership required)",
    )
    reconfig.add_argument(
        "--datacenters",
        type=_datacenter_list,
        default=None,
        help="comma-separated initial membership (default: all five regions)",
    )
    reconfig.add_argument(
        "--victim", default="us-east", help="data center that fails and leaves"
    )
    reconfig.add_argument(
        "--replacement",
        default="us-east-2",
        help="name of the joining replacement DC (clones the victim's links)",
    )
    reconfig.add_argument(
        "--donor", default="us-west", help="DC that streams the bootstrap snapshot"
    )
    reconfig.add_argument("--workload", choices=WORKLOADS, default=None)
    reconfig.add_argument("--clients", type=int, default=20)
    reconfig.add_argument("--items", type=int, default=300)
    reconfig.add_argument("--warmup-s", type=float, default=5.0)
    reconfig.add_argument("--measure-s", type=float, default=60.0)
    reconfig.add_argument("--seed", type=int, default=7)
    reconfig.add_argument(
        "--bucket-s",
        type=float,
        default=5.0,
        help="availability-timeline bucket width in seconds",
    )
    reconfig.add_argument(
        "--events",
        action="store_true",
        help="include the full chaos event log in the output",
    )
    reconfig.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a causal trace of the scenario to FILE",
    )

    lister = sub.add_parser(
        "list",
        help="enumerate protocols, workloads, master policies and "
        "chaos schedules",
    )
    lister.add_argument("--json", action="store_true")

    from repro.analysis.cli import add_analyze_parser

    add_analyze_parser(sub)
    return parser


def _experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="micro"
    )
    parser.add_argument("--clients", type=int, default=25)
    parser.add_argument("--items", type=int, default=1_000)
    parser.add_argument("--warmup-s", type=float, default=5.0)
    parser.add_argument("--measure-s", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--hotspot",
        type=float,
        default=None,
        help="hot-spot fraction of the table, e.g. 0.02 (micro only)",
    )
    parser.add_argument(
        "--locality",
        type=float,
        default=None,
        help="fraction of txs touching locally-mastered records (micro only)",
    )
    parser.add_argument(
        "--gamma-policy", choices=("static", "adaptive"), default="static"
    )
    parser.add_argument(
        "--master-policy",
        type=_master_policy,
        default="hash",
        help="master placement: hash, adaptive or fixed:<dc> "
        "(adaptive requires an MDCC variant)",
    )
    parser.add_argument(
        "--phase-s",
        type=float,
        default=20.0,
        help="geoshift only: seconds the sun stays over one region",
    )
    parser.add_argument(
        "--batch-ms",
        type=float,
        default=0.0,
        help="visibility batching window (MDCC variants)",
    )
    parser.add_argument(
        "--no-demarcation",
        action="store_true",
        help="disable the quorum demarcation limit (unsafe; for study)",
    )
    parser.add_argument(
        "--fail-dc",
        default=None,
        help="data center to fail mid-run (e.g. us-east)",
    )
    parser.add_argument(
        "--fail-at-s",
        type=float,
        default=None,
        help="simulated seconds into the run at which --fail-dc goes dark",
    )
    parser.add_argument(
        "--no-audit", action="store_true", help="skip post-run consistency audits"
    )


def _cluster_spec_from_args(
    args: argparse.Namespace, protocol: str, *, elastic: bool = False
) -> ClusterSpec:
    """Argparse flags -> typed deployment spec (one mapping for all
    subcommands; flags a subcommand lacks fall back to spec defaults)."""
    try:
        return ClusterSpec(
            protocol=protocol,
            datacenters=getattr(args, "datacenters", None),
            partitions_per_table=getattr(
                args, "partitions_per_table", ClusterSpec.partitions_per_table
            ),
            master_policy=getattr(args, "master_policy", None),
            seed=args.seed,
            gamma_policy=getattr(args, "gamma_policy", "static"),
            batch_ms=getattr(args, "batch_ms", 0.0),
            demarcation=not getattr(args, "no_demarcation", False),
            elastic=elastic,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _spec_from_args(
    args: argparse.Namespace,
    protocol: str,
    *,
    schedule: Optional[str] = None,
    elastic: bool = False,
) -> ScenarioSpec:
    """The one place argparse namespaces become scenario specs — every
    experiment-running subcommand funnels through here, so the flag ->
    spec-field mapping (and its validation) lives in exactly one spot."""
    dc_replace = schedule == "dc-replace"
    try:
        return ScenarioSpec(
            cluster=_cluster_spec_from_args(args, protocol, elastic=elastic),
            workload=getattr(args, "workload", "micro"),
            clients=args.clients,
            items=args.items,
            warmup_s=args.warmup_s,
            measure_s=args.measure_s,
            hotspot=getattr(args, "hotspot", None),
            locality=getattr(args, "locality", None),
            phase_s=getattr(args, "phase_s", _CHAOS_PHASE_S),
            audit=not getattr(args, "no_audit", False),
            fail_dc=getattr(args, "fail_dc", None),
            fail_at_s=getattr(args, "fail_at_s", None),
            schedule=schedule,
            bucket_s=getattr(args, "bucket_s", 5.0),
            victim=getattr(args, "victim", None) if dc_replace else None,
            replacement=getattr(args, "replacement", None) if dc_replace else None,
            donor=getattr(args, "donor", None) if dc_replace else None,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _run_one(protocol: str, args: argparse.Namespace):
    spec = _spec_from_args(args, protocol)
    return spec, _run_traced(
        args.seed, getattr(args, "trace", None), lambda: run_scenario(spec)
    )


def _as_dict(result: RunResult, spec: ScenarioSpec) -> dict:
    return {
        "protocol": result.protocol,
        "commits": result.commits,
        "aborts": result.aborts,
        "median_ms": result.median_ms,
        "p90_ms": result.p90_ms,
        "p99_ms": result.p99_ms,
        "throughput_tps": result.throughput_tps,
        "audit_problems": len(result.audit_problems),
        "constraint_violations": result.constraint_violations,
        "divergent_records": result.divergent_records,
        "master_policy": result.extra.get("master_policy", "hash"),
        "migrations": result.extra.get("migrations", 0),
        "spec": spec.to_dict(),
    }


def _payload(result: RunResult, spec: ScenarioSpec, include_events: bool = False) -> dict:
    """The JSON envelope: the scenario verdict for a fault-schedule run,
    the experiment summary otherwise — always with the spec it ran."""
    if result.schedule is None:
        return _as_dict(result, spec)
    payload = result.as_dict()
    payload["spec"] = spec.to_dict()
    # Stable schema: the count is always present; the (possibly long)
    # event list only on request, and always as a list.
    payload["chaos_event_count"] = len(payload["chaos_events"])
    if not include_events:
        del payload["chaos_events"]
    return payload


def _traced(seed: int, runner):
    """``(runner(), tracer, registry)`` with the deterministic tracer
    installed for the duration of the call."""
    from repro.trace import MetricsRegistry, Tracer
    from repro.trace import runtime as trace_runtime

    tracer = Tracer(seed=seed)
    registry = MetricsRegistry()
    trace_runtime.install(tracer, registry)
    try:
        return runner(), tracer, registry
    finally:
        trace_runtime.uninstall()


def _write_artifact(path: str, artifact: dict) -> None:
    from repro.trace import render_artifact_json

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_artifact_json(artifact))
    print(
        f"wrote {path} ({artifact['summary']['spans']} spans, "
        f"{artifact['summary']['traces']} traces)",
        file=sys.stderr,
    )


def _run_traced(seed: int, trace_path: Optional[str], runner):
    """Run ``runner`` with tracing installed when ``trace_path`` is set.

    The trace artifact goes to ``trace_path``; the runner's own result
    (and therefore the command's stdout envelope) is unchanged — the
    simulated trajectory is byte-identical with tracing on or off.
    """
    if trace_path is None:
        return runner()
    from repro.trace import build_artifact

    result, tracer, registry = _traced(seed, runner)
    _write_artifact(trace_path, build_artifact(tracer, registry))
    return result


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: one traced scenario, artifact + timeline views."""
    from repro.trace import build_artifact, render_artifact_json, render_explain
    from repro.trace.explain import spans_for_txid

    if args.schedule is not None:
        _check_schedule_support(args.protocol, args.schedule)
    spec = _spec_from_args(args, args.protocol, schedule=args.schedule)
    result, tracer, registry = _traced(args.seed, lambda: run_scenario(spec))
    artifact = build_artifact(tracer, registry, result=_payload(result, spec))
    if args.out != "-":
        _write_artifact(args.out, artifact)
    elif args.explain is None:
        sys.stdout.write(render_artifact_json(artifact))
    if args.explain is not None:
        print(render_explain(tracer, args.explain).rstrip("\n"))
        if not spans_for_txid(tracer, args.explain):
            return 1
    return 0


def _check_schedule_support(protocol: str, schedule: str) -> None:
    """A schedule outside the protocol's gated set is a usage error, not
    a scenario: its guarantees are not defined under that fault."""
    supported = get_protocol(protocol).chaos_schedules
    if schedule not in supported:
        raise SystemExit(
            f"protocol {protocol!r} is not gated on schedule {schedule!r}; "
            f"supported schedules: {', '.join(supported)}"
        )


def _run_chaos(args: argparse.Namespace) -> int:
    _check_schedule_support(args.variant, args.schedule)
    spec = _spec_from_args(args, args.variant, schedule=args.schedule)
    result = _run_traced(args.seed, args.trace, lambda: run_scenario(spec))
    print(json.dumps(_payload(result, spec, args.events), indent=2))
    return 0 if result.clean else 1


def _run_reconfig(args: argparse.Namespace) -> int:
    spec = _spec_from_args(
        args, args.variant, schedule="dc-replace", elastic=True
    )
    result = _run_traced(args.seed, args.trace, lambda: run_scenario(spec))
    payload = _payload(result, spec, args.events)
    membership = payload["membership"] or {}
    # The replacement must be a member AND have been admitted inside the
    # scenario window — an admission that only lands after the
    # post-scenario heal means the join never actually ran under fault.
    window_ms = (spec.warmup_s + spec.measure_s) * 1_000.0
    replaced = spec.replacement in membership.get("datacenters", []) and any(
        entry["event"] == "admitted"
        and entry["dc"] == spec.replacement
        and entry["t_ms"] <= window_ms
        for entry in membership.get("history", [])
    )
    payload["replacement_admitted"] = replaced
    print(json.dumps(payload, indent=2))
    return 0 if result.clean and replaced else 1


def _run_spec_file(args: argparse.Namespace) -> int:
    """``repro run --spec scenario.json``: the spec file IS the experiment."""
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        spec = ScenarioSpec.from_json(text)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"bad scenario spec {args.spec!r}: {exc}")
    result = _run_traced(
        spec.cluster.seed, args.trace, lambda: run_scenario(spec)
    )
    if result.schedule is not None or args.json:
        print(json.dumps(_payload(result, spec), indent=2))
    else:
        _print_table([result])
    return 0 if result.schedule is None or result.clean else 1


def _run_list(as_json: bool) -> int:
    catalogue = {
        "protocols": _PROTOCOL_NOTES,
        "workloads": {name: get_workload(name).summary for name in WORKLOADS},
        "master_policies": _MASTER_POLICY_NOTES,
        "chaos_schedules": _CHAOS_NOTES,
    }
    if as_json:
        print(json.dumps(catalogue, indent=2))
        return 0
    for section, entries in catalogue.items():
        print(section)
        width = max(len(name) for name in entries)
        for name, note in entries.items():
            print(f"  {name:<{width}}  {note}")
        print()
    return 0


def _print_table(results: List[RunResult]) -> None:
    header = (
        f"{'protocol':>10} {'median':>8} {'p90':>8} {'p99':>8} "
        f"{'commits':>8} {'aborts':>8} {'tps':>7} {'audit':>6}"
    )
    print(header)
    print("-" * len(header))
    for r in results:
        audit = "clean" if not r.audit_problems and not r.constraint_violations else "DIRTY"
        median = f"{r.median_ms:.1f}" if r.median_ms is not None else "-"
        p90 = f"{r.p90_ms:.1f}" if r.p90_ms is not None else "-"
        p99 = f"{r.p99_ms:.1f}" if r.p99_ms is not None else "-"
        print(
            f"{r.protocol:>10} {median:>8} {p90:>8} {p99:>8} "
            f"{r.commits:>8} {r.aborts:>8} {r.throughput_tps:>7.1f} {audit:>6}"
        )


def _run_serve(args: argparse.Namespace) -> int:
    from repro.transport.runner import serve_node

    return serve_node(args.topology, args.node)


def _run_topology(args: argparse.Namespace) -> int:
    from repro.transport.topology import make_local_topology

    topology = make_local_topology(
        datacenters=args.datacenters,
        protocol=args.protocol,
        partitions_per_table=args.partitions,
        seed=args.seed,
        codec=args.codec,
        base_port=args.base_port,
        items=args.items,
    )
    topology.dump(args.out)
    print(f"wrote {args.out} ({len(topology.nodes)} nodes)")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench.perf import compare_to_baseline, render_bench_json, run_bench

    overrides = None
    if args.measure_s is not None:
        overrides = {"measure_ms": args.measure_s * 1_000.0}
    # The bench fixes its own workload/protocol grid; the shared helper
    # still supplies the deployment template (seed etc.) per variant.
    base_spec = _cluster_spec_from_args(args, "mdcc")
    payload = run_bench(seed=args.seed, overrides=overrides, base_spec=base_spec)
    rendered = render_bench_json(payload)
    if args.output == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.compare is not None:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare_to_baseline(payload, baseline)
        if failures:
            for failure in failures:
                print(f"[bench-gate] FAIL {failure}", file=sys.stderr)
            return 1
        print(f"[bench-gate] OK — matches {args.compare}", file=sys.stderr)
    return 0


#: `run` flags that configure the *simulated* deployment; a cluster of
#: real processes cannot honour them, so setting one is an error
#: (--fail-at-s is an error without --fail-dc already).
_SIM_ONLY_FLAGS = (
    "spec",
    "fail_dc",
    "master_policy",
    "gamma_policy",
    "batch_ms",
    "no_demarcation",
)


def _run_tcp(args: argparse.Namespace) -> int:
    from repro.transport.runner import run_topology
    from repro.transport.topology import Topology

    if args.topology is None:
        raise SystemExit("--transport tcp requires --topology (see `repro topology`)")
    if args.workload != "micro":
        raise SystemExit("the tcp transport currently drives the micro workload only")
    defaults = build_parser().parse_args(["run"])
    for name in _SIM_ONLY_FLAGS:
        if getattr(args, name) != getattr(defaults, name):
            raise SystemExit(
                f"--{name.replace('_', '-')} needs the simulated deployment, not --transport tcp"
            )
    topology = Topology.load(args.topology)
    # What the topology file fixes is echoed in the envelope's spec.
    args.seed, args.datacenters = topology.seed, topology.datacenters
    args.items = len(topology.item_keys())
    args.partitions_per_table = topology.partitions_per_table
    spec = _spec_from_args(args, topology.protocol)
    result = _run_traced(
        topology.seed,
        args.trace,
        lambda: run_topology(
            args.topology,
            topology.build_workload(hotspot_fraction=spec.hotspot, locality=spec.locality),
            spawn_servers=args.spawn_servers,
            num_clients=spec.clients,
            warmup_ms=spec.warmup_s * 1_000.0,
            measure_ms=spec.measure_s * 1_000.0,
            audit=spec.audit,
        ),
    )
    print(json.dumps({**_as_dict(result, spec), "tcp": result.extra["tcp"]}, indent=2))
    crashed = any(result.extra["tcp"]["servers"].values())
    return 0 if result.commits > 0 and result.clean and not crashed else 1


_SUBCOMMANDS = {
    "bench": _run_bench,
    "chaos": _run_chaos,
    "reconfig": _run_reconfig,
    "serve": _run_serve,
    "topology": _run_topology,
    "trace": _run_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _SUBCOMMANDS:
        return _SUBCOMMANDS[args.command](args)
    if args.command == "analyze":
        from repro.analysis.cli import run_analyze

        return run_analyze(args)
    if args.command == "list":
        return _run_list(args.json)
    if args.command == "run" and args.transport == "tcp":
        return _run_tcp(args)
    if args.command == "run" and args.spec is not None:
        return _run_spec_file(args)
    if args.command == "run":
        spec, result = _run_one(args.protocol, args)
        if args.json:
            print(json.dumps(_as_dict(result, spec), indent=2))
        else:
            _print_table([result])
        return 0
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if unknown:
        raise SystemExit(f"unknown protocol(s): {', '.join(unknown)}")
    runs = [_run_one(protocol, args) for protocol in protocols]
    if args.json:
        print(json.dumps([_as_dict(r, s) for s, r in runs], indent=2))
    else:
        _print_table([result for _spec, result in runs])
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
