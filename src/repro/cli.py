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

The rule of this module: **a flag is a spec field, and this module
validates nothing the spec does not.**  Each spec-backed flag is declared
once (:data:`_FLAGS`), takes the dataclass default unless the subcommand
states its own, and reaches the spec because the namespace carries its
field name (:func:`_spec_from_args`).  What may run is decided by
``ClusterSpec`` / ``ScenarioSpec.__post_init__`` — the same wall
``run --spec``, :func:`repro.api.run_scenario` and the figure suite hit —
and a ``ValueError`` from there is the usage message.  Every
experiment-running subcommand is then the same three steps: build the
spec, execute it (optionally traced), print the envelope.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Callable, List, Optional

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.driver import RunResult
from repro.db.cluster import PROTOCOLS
from repro.faults.schedule import NAMED_SCHEDULES, named_schedule
from repro.protocols.base import get_protocol, protocols_supporting
from repro.transport.topology import CODECS
from repro.workloads import WORKLOADS, get_workload

__all__ = ["build_parser", "main"]

_MASTER_POLICY_NOTES = {
    "hash": "static, uniform by key hash (the paper's Multi setup)",
    "fixed:<dc>": "static, all masters in one data center",
    "adaptive": "dynamic: mastership migrates to the dominant write origin",
}


def _csv(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


#: Every spec-backed flag, declared once: spec field -> argparse keywords.
#: The option is ``--<field>`` unless :data:`_OPTIONS` spells it otherwise;
#: the default is the dataclass's unless the subcommand states its own.
#: What a value may be is the spec's business (``__post_init__``), not
#: argparse's.
_FLAGS = {
    "datacenters": dict(
        type=_csv,
        help="comma-separated initial membership, e.g. us-west,us-east,eu-west",
    ),
    "partitions_per_table": dict(type=int),
    "master_policy": dict(
        help="master placement: hash, adaptive or fixed:<dc> (adaptive "
        "requires an MDCC variant; unset, a fault schedule's hint applies)"
    ),
    "seed": dict(type=int),
    "gamma_policy": dict(help="static or adaptive"),
    "batch_ms": dict(type=float, help="visibility batching window (MDCC variants)"),
    "demarcation": dict(
        action="store_false",
        help="disable the quorum demarcation limit (unsafe; for study)",
    ),
    "workload": dict(choices=WORKLOADS),
    "clients": dict(type=int),
    "items": dict(type=int),
    "warmup_s": dict(type=float),
    "measure_s": dict(type=float),
    "hotspot": dict(
        type=float, help="hot-spot fraction of the table, e.g. 0.02 (micro only)"
    ),
    "locality": dict(
        type=float,
        help="fraction of txs touching locally-mastered records (micro only)",
    ),
    "phase_s": dict(
        type=float, help="geoshift only: seconds the sun stays over one region"
    ),
    "audit": dict(action="store_false", help="skip post-run consistency audits"),
    "fail_dc": dict(help="data center to fail mid-run (e.g. us-east)"),
    "fail_at_s": dict(
        type=float,
        help="simulated seconds into the run at which --fail-dc goes dark",
    ),
    "schedule": dict(
        choices=NAMED_SCHEDULES,
        help="optionally replay a named fault schedule while tracing",
    ),
    "bucket_s": dict(
        type=float, help="availability-timeline bucket width in seconds"
    ),
    "victim": dict(help="data center that fails and leaves"),
    "replacement": dict(
        help="name of the joining replacement DC (clones the victim's links)"
    ),
    "donor": dict(help="DC that streams the bootstrap snapshot"),
}

_OPTIONS = {
    "partitions_per_table": "--partitions",
    "demarcation": "--no-demarcation",
    "audit": "--no-audit",
}

#: spec field -> dataclass default, for each half of a scenario spec.
_CLUSTER_FIELDS = {f.name: f.default for f in fields(ClusterSpec)}
_SCENARIO_FIELDS = {f.name: f.default for f in fields(ScenarioSpec) if f.name != "cluster"}

#: The flags `run`, `compare` and `trace` share, and the one default they
#: state: the envelope of a fault-free experiment prints the policy it ran.
_EXPERIMENT_FLAGS = (
    "workload clients items warmup_s measure_s seed hotspot locality "
    "gamma_policy master_policy phase_s batch_ms demarcation fail_dc fail_at_s audit"
)
_EXPERIMENT = dict(master_policy="hash")

#: A chaos cell (`chaos`, `reconfig`): the scale of
#: benchmarks/results/chaos_matrix.txt, the workload left to the
#: schedule's hint, and — neither has a --phase-s flag — a
#: follow-the-sun-outage sun that moves every 15 s.
_CHAOS_FLAGS = "workload clients items warmup_s measure_s seed bucket_s"
_CHAOS_CELL = dict(
    workload=None, clients=20, items=300, measure_s=60.0, seed=7, phase_s=15.0
)


def _option(name: str) -> str:
    """The option string of spec field (or plain flag) ``name``."""
    return _OPTIONS.get(name, "--" + name.replace("_", "-"))


def _spec_flags(parser: argparse.ArgumentParser, names: str, **stated: object) -> None:
    """Expose the spec fields ``names`` on ``parser``.  ``stated`` holds
    what this subcommand states instead of the dataclass default: a
    flag's default where it exposes the field, the field's fixed value
    where it does not."""
    parser.set_defaults(**stated)
    defaults = {**_CLUSTER_FIELDS, **_SCENARIO_FIELDS, **stated}
    for name in names.split():
        parser.add_argument(
            _option(name), dest=name, default=defaults[name], **_FLAGS[name]
        )


def _protocol_flag(
    parser: argparse.ArgumentParser, flag: str, choices: tuple, help: str
) -> None:
    """``--protocol`` / ``--variant``: which protocols a subcommand offers
    is the one thing about the field it decides (from capability flags)."""
    parser.add_argument(
        flag, dest="protocol", choices=choices, default=ClusterSpec.protocol, help=help
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MDCC (EuroSys'13) reproduction — run simulated "
        "geo-replicated transaction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one protocol on one workload")
    _spec_flags(run, _EXPERIMENT_FLAGS, **_EXPERIMENT)
    _protocol_flag(run, "--protocol", PROTOCOLS, "protocol to run")
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
    _spec_flags(trace, _EXPERIMENT_FLAGS + " schedule", **_EXPERIMENT)
    _protocol_flag(
        trace,
        "--protocol",
        protocols_supporting("supports_tracing"),
        "protocol to trace (must emit causal spans)",
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
    _spec_flags(
        topo,
        "datacenters partitions_per_table seed items",
        datacenters=("us-west", "us-east", "eu-west"),
        partitions_per_table=1,
        items=200,
    )
    _protocol_flag(
        topo, "--protocol", protocols_supporting("supports_tcp"), "protocol to deploy"
    )
    topo.add_argument("--codec", choices=CODECS, default="json")
    topo.add_argument("--base-port", type=int, default=7100)

    compare = sub.add_parser(
        "compare", help="run several protocols on the identical workload"
    )
    _spec_flags(compare, _EXPERIMENT_FLAGS, **_EXPERIMENT)
    compare.add_argument(
        "--protocols",
        type=_csv,
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
    _protocol_flag(
        chaos,
        "--variant",
        tuple(name for name in PROTOCOLS if get_protocol(name).chaos_schedules),
        "protocol under test (see `repro list` for per-protocol schedule support)",
    )
    _spec_flags(chaos, _CHAOS_FLAGS + " master_policy", **_CHAOS_CELL)

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
    _protocol_flag(
        reconfig,
        "--variant",
        protocols_supporting("supports_elastic"),
        "protocol under test (elastic membership required)",
    )
    _spec_flags(
        reconfig,
        "datacenters victim replacement donor " + _CHAOS_FLAGS,
        schedule="dc-replace",
        elastic=True,
        victim="us-east",
        replacement="us-east-2",
        donor="us-west",
        **_CHAOS_CELL,
    )

    for scenario in (chaos, reconfig):
        scenario.add_argument(
            "--events",
            action="store_true",
            help="include the full chaos event log in the output",
        )
        scenario.add_argument(
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


def _spec_from_args(args: argparse.Namespace, **fixed: object) -> ScenarioSpec:
    """The one place an argparse namespace becomes a scenario spec: every
    spec field the namespace has (``fixed`` wins), nothing per field.  The
    spec validates; its ``ValueError`` is the usage message."""
    given = {**vars(args), **fixed}
    try:
        cluster = ClusterSpec(
            **{name: given[name] for name in _CLUSTER_FIELDS if name in given}
        )
        return ScenarioSpec(
            cluster=cluster,
            **{name: given[name] for name in _SCENARIO_FIELDS if name in given},
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


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


#: ``repair`` block of a fault-schedule run's payload: name -> counter.
_REPAIR_COUNTERS = (
    ("catch_ups_sent", "antientropy.repairs"),
    ("visibilities_redriven", "antientropy.visibility_redriven"),
    ("recoveries_triggered", "antientropy.recoveries_triggered"),
    ("recoveries_started", "recovery.started"),
)


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
    # What the post-heal repair cost, from the run's counters.
    counters = result.counters
    payload["repair"] = {
        name: counters.get(counter, 0) for name, counter in _REPAIR_COUNTERS
    }
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


def _execute(
    spec: ScenarioSpec,
    trace_path: Optional[str],
    runner: Callable[[ScenarioSpec], RunResult],
) -> RunResult:
    """``runner(spec)``, with tracing installed when ``trace_path`` is set.

    The trace artifact goes to ``trace_path``; the result (and therefore
    the command's stdout envelope) is unchanged — the simulated
    trajectory is byte-identical with tracing on or off.
    """
    if trace_path is None:
        return runner(spec)
    from repro.trace import build_artifact

    result, tracer, registry = _traced(spec.cluster.seed, lambda: runner(spec))
    _write_artifact(trace_path, build_artifact(tracer, registry))
    return result


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


# ----------------------------------------------------------------------
# Subcommands: build the spec, execute it, print the envelope
# ----------------------------------------------------------------------
def _run_run(args: argparse.Namespace) -> int:
    if args.transport == "tcp":
        return _run_tcp(args)
    if args.spec is None:
        spec = _spec_from_args(args)
    else:
        # ``repro run --spec scenario.json``: the file IS the experiment.
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            spec = ScenarioSpec.from_json(text)
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"bad scenario spec {args.spec!r}: {exc}")
    result = _execute(spec, args.trace, run_scenario)
    if result.schedule is not None or args.json:
        print(json.dumps(_payload(result, spec), indent=2))
    else:
        _print_table([result])
    return 0 if result.schedule is None or result.clean else 1


def _run_compare(args: argparse.Namespace) -> int:
    specs = [_spec_from_args(args, protocol=protocol) for protocol in args.protocols]
    results = [_execute(spec, None, run_scenario) for spec in specs]
    if args.json:
        print(json.dumps([_as_dict(r, s) for r, s in zip(results, specs)], indent=2))
    else:
        _print_table(results)
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """``repro chaos`` and ``repro reconfig``: the scenario verdict."""
    spec = _spec_from_args(args)
    result = _execute(spec, args.trace, run_scenario)
    payload = _payload(result, spec, args.events)
    ok = result.clean
    if args.command == "reconfig":
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
        ok = ok and replaced
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: one traced scenario, artifact + timeline views."""
    from repro.trace import build_artifact, render_artifact_json, render_explain
    from repro.trace.explain import spans_for_txid

    spec = _spec_from_args(args)
    result, tracer, registry = _traced(spec.cluster.seed, lambda: run_scenario(spec))
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


def _load_topology(path: str):
    """A topology file the loader — or the cluster spec it fixes — refuses
    is a usage error, not a traceback."""
    from repro.transport.base import TransportError
    from repro.transport.topology import Topology

    try:
        topology = Topology.load(path)
        topology.spec()
    except TransportError as exc:
        raise SystemExit(f"bad topology {path!r}: {exc}")
    return topology


def _run_tcp(args: argparse.Namespace) -> int:
    """``repro run --transport tcp``: the same three steps against live
    processes.  The spec is the flags plus what the topology file fixes;
    a cluster of real processes runs exactly that file and `run`'s
    defaults, so a flag that asks for anything else is an error."""
    from repro.transport import runner

    if args.topology is None:
        raise SystemExit("--transport tcp requires --topology (see `repro topology`)")
    topology = _load_topology(args.topology)
    fixed = topology.cluster_fields()
    spec = _spec_from_args(args, items=len(topology.item_keys()), **fixed)
    # What the servers run: the topology's fields, `run`'s defaults for the
    # rest, the micro workload — no injected outage, no spec file.
    served = {**ClusterSpec(**{**_EXPERIMENT, **fixed}).to_dict(), "workload": "micro"}
    asked = {**spec.to_dict(), **spec.cluster.to_dict(), "spec": args.spec}
    refused = [
        name
        for name in (*_CLUSTER_FIELDS, "workload", "fail_dc", "spec")
        if asked[name] != served.get(name)
    ]
    if refused:
        raise SystemExit(
            f"{_option(refused[0])} needs the simulated deployment, not --transport tcp"
        )
    result = _execute(
        spec,
        args.trace,
        lambda spec: runner.run_topology(
            topology,
            topology.build_workload(hotspot_fraction=spec.hotspot, locality=spec.locality),
            spawn_from=args.topology if args.spawn_servers else None,
            num_clients=spec.clients,
            warmup_ms=spec.warmup_s * 1_000.0,
            measure_ms=spec.measure_s * 1_000.0,
            audit=spec.audit,
        ),
    )
    print(json.dumps({**_as_dict(result, spec), "tcp": result.extra["tcp"]}, indent=2))
    crashed = any(result.extra["tcp"]["servers"].values())
    return 0 if result.commits > 0 and result.clean and not crashed else 1


def _run_serve(args: argparse.Namespace) -> int:
    from repro.transport.runner import serve_node

    return serve_node(_load_topology(args.topology), args.node)


def _run_topology(args: argparse.Namespace) -> int:
    from repro.transport.topology import make_local_topology

    spec = _spec_from_args(args)  # the spec's rules are the file's rules
    topology = make_local_topology(
        spec.cluster,
        codec=args.codec,
        base_port=args.base_port,
        items=spec.items,
    )
    topology.dump(args.out)
    print(f"wrote {args.out} ({len(topology.nodes)} nodes)")
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_analyze

    return run_analyze(args)


def _run_list(args: argparse.Namespace) -> int:
    catalogue = {
        "protocols": {name: get_protocol(name).summary for name in PROTOCOLS},
        "workloads": {name: get_workload(name).summary for name in WORKLOADS},
        "master_policies": _MASTER_POLICY_NOTES,
        "chaos_schedules": {
            name: named_schedule(name).description for name in NAMED_SCHEDULES
        },
    }
    if args.json:
        print(json.dumps(catalogue, indent=2))
        return 0
    for section, entries in catalogue.items():
        print(section)
        width = max(len(name) for name in entries)
        for name, note in entries.items():
            print(f"  {name:<{width}}  {note}")
        print()
    return 0


_SUBCOMMANDS = {
    "analyze": _run_analyze,
    "chaos": _run_chaos,
    "compare": _run_compare,
    "list": _run_list,
    "reconfig": _run_chaos,
    "run": _run_run,
    "serve": _run_serve,
    "topology": _run_topology,
    "trace": _run_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _SUBCOMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
