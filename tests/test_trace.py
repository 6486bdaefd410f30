"""Causal tracing (ISSUE 8): determinism, stitching, attribution.

The contract under test:

* the simulated trajectory is byte-identical with tracing on or off —
  per MDCC variant, the run's result envelope must not change;
* the trace artifact itself is byte-reproducible at a fixed seed;
* spans stitch coordinator -> master -> storage across both transports
  with no orphan spans (every ``parent_id`` resolves);
* abort and slow-path causes are attributed at the decision site:
  collision escalations, recovery completions, demarcation rejections;
* a role has one body per handler: ``tracer.enabled`` guards the creation
  of a span, never a second copy of protocol statements.
"""

import ast
import asyncio
import json
import pathlib
import socket

import pytest

import repro
from repro.api import ClusterSpec, ScenarioSpec, build_cluster, run_scenario
from repro.cli import _as_dict
from repro.storage.schema import Constraint, TableSchema
from repro.trace import (
    MetricsRegistry,
    NOOP,
    Tracer,
    build_artifact,
    derive_trace_id,
    render_artifact_json,
    render_explain,
)
from repro.trace import runtime as trace_runtime


@pytest.fixture(autouse=True)
def _clean_runtime():
    """A leaked ambient tracer would poison every later test."""
    trace_runtime.uninstall()
    yield
    trace_runtime.uninstall()


def _micro_spec(protocol, seed=3, schedule=None, **overrides):
    kwargs = dict(clients=3, items=12, warmup_s=0.25, measure_s=1.5)
    kwargs.update(overrides)
    return ScenarioSpec(
        cluster=ClusterSpec(protocol=protocol, seed=seed),
        schedule=schedule,
        **kwargs,
    )


def _traced_run(spec, seed):
    tracer = Tracer(seed=seed)
    registry = MetricsRegistry()
    trace_runtime.install(tracer, registry)
    try:
        result = run_scenario(spec)
    finally:
        trace_runtime.uninstall()
    return result, tracer, registry


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
class TestTracerModel:
    def test_trace_ids_are_seeded_and_stable(self):
        assert derive_trace_id(7, "tx-1") == derive_trace_id(7, "tx-1")
        assert derive_trace_id(7, "tx-1") != derive_trace_id(8, "tx-1")
        assert len(derive_trace_id(7, "tx-1")) == 16

    def test_span_ids_do_not_depend_on_hashing(self):
        tracer = Tracer(seed=1)
        root = tracer.start_trace("t1", "node-a", 0.0)
        child = tracer.start_span("fast-accept", "node-b", 1.0, parent=root.ctx)
        assert root.span_id == "node-a:1"
        assert child.span_id == "node-b:1"
        assert child.parent_id == root.span_id

    def test_txid_fallback_parents_to_root(self):
        tracer = Tracer(seed=1)
        root = tracer.start_trace("t1", "node-a", 0.0)
        timer_span = tracer.start_span("phase1-takeover", "node-b", 5.0, txid="t1")
        assert timer_span.parent_id == root.span_id
        assert timer_span.trace_id == root.trace_id
        assert tracer.orphan_spans() == []

    def test_unknown_parent_is_an_orphan(self):
        tracer = Tracer(seed=1)
        root = tracer.start_trace("t1", "node-a", 0.0)
        tracer.start_span("fast-accept", "node-b", 1.0, parent=(root.trace_id, "ghost:9"))
        assert len(tracer.orphan_spans()) == 1

    def test_finish_is_idempotent_first_outcome_wins(self):
        tracer = Tracer(seed=1)
        span = tracer.start_trace("t1", "n", 0.0)
        span.finish(2.0, "committed")
        span.finish(9.0, "aborted")
        assert span.end == 2.0 and span.outcome == "committed"

    def test_noop_is_ambient_default(self):
        assert trace_runtime.current_tracer() is NOOP
        assert not NOOP.enabled
        assert NOOP.start_span("k", "n", 0.0, txid="t") is None

    def test_scoped_counters_passthrough_without_registry(self):
        from repro.metrics import CounterSet

        counters = CounterSet()
        assert trace_runtime.scoped_counters("n1", counters) is counters

    def test_registry_slices_per_node(self):
        from repro.metrics import CounterSet

        registry = MetricsRegistry()
        trace_runtime.install(Tracer(seed=1), registry)
        shared = CounterSet()
        a = trace_runtime.scoped_counters("node-a", shared)
        b = trace_runtime.scoped_counters("node-b", shared)
        a.increment("x")
        a.increment("x", 2)
        b.increment("x")
        # Shared totals unchanged in meaning; per-node attribution split.
        assert a.get("x") == 4 and shared.get("x") == 4
        merged = registry.as_dict()["counters"]
        assert merged["node-a"]["x"] == 3
        assert merged["node-b"]["x"] == 1


# ----------------------------------------------------------------------
# One body per handler
# ----------------------------------------------------------------------
SRC = pathlib.Path(repro.__file__).parent


def _trees(*packages):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _names(tree):
    """Every identifier a module mentions: names, attributes, definitions,
    parameters, keywords and imports."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "name", "arg"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield value


class TestOneHandlerBody:
    """The rule ``trace/runtime.py`` states, kept by a machine: "results
    byte-identical with instrumentation on or off" must not rest on two
    copies of a handler being edited in lock-step."""

    def test_tracer_enabled_guards_span_creation_only(self):
        """An ``else`` arm, or an early ``return`` out of the traced arm,
        makes what follows a second copy of the protocol step.  (A helper
        that hands back ``None`` when tracing is off tests ``not
        tracer.enabled`` and is fine.)"""
        forks = []
        for name, tree in _trees("core", "protocols"):
            for node in ast.walk(tree):
                if not isinstance(node, ast.If) or not any(
                    isinstance(n, ast.Attribute)
                    and n.attr == "enabled"
                    and "tracer" in ast.unparse(n.value)
                    for n in ast.walk(node.test)
                ):
                    continue
                negated = isinstance(node.test, ast.UnaryOp)
                returns = any(isinstance(n, ast.Return) for n in node.body)
                if node.orelse or (returns and not negated):
                    forks.append(f"{name}:{node.lineno}")
        assert not forks, f"protocol logic forked on tracer.enabled: {forks}"

    def test_roles_make_a_span_ambient_only_through_under(self):
        swappers = sorted(
            name
            for name, tree in _trees("")
            if {"set_context", "reset_context"} & set(_names(tree))
        )
        assert swappers == ["trace/runtime.py", "transport/tcp.py"]

    def test_no_role_keeps_its_own_static_or_elastic_rule(self):
        """Quorum sizes and the epoch come from ``ReplicaMap`` alone."""
        gone = {"_static_spec", "_elastic", "_traced_fast_accept", "quorum_spec"}
        offending = sorted(
            f"{name}: {identifier}"
            for name, tree in _trees("")
            for identifier in gone & set(_names(tree))
        )
        assert not offending, offending


# ----------------------------------------------------------------------
# Observer effect: the trajectory must not notice the tracer
# ----------------------------------------------------------------------
class TestTraceObserverEffect:
    @pytest.mark.parametrize("protocol", ["mdcc", "fast", "multi"])
    def test_result_envelope_identical_with_and_without_trace(self, protocol):
        spec = _micro_spec(protocol)
        plain = json.dumps(_as_dict(run_scenario(spec), spec), sort_keys=True)
        result, tracer, _registry = _traced_run(spec, seed=3)
        traced = json.dumps(_as_dict(result, spec), sort_keys=True)
        assert traced == plain
        assert tracer.spans, f"{protocol}: traced run recorded no spans"

    def test_artifact_bytes_reproducible(self):
        spec = _micro_spec("mdcc")
        _, tracer1, reg1 = _traced_run(spec, seed=3)
        _, tracer2, reg2 = _traced_run(spec, seed=3)
        first = render_artifact_json(build_artifact(tracer1, reg1))
        second = render_artifact_json(build_artifact(tracer2, reg2))
        assert first == second


# ----------------------------------------------------------------------
# Causal timelines on the simulator
# ----------------------------------------------------------------------
class TestSimTimelines:
    def test_fast_path_commit_timeline(self):
        spec = _micro_spec("mdcc")
        _, tracer, _ = _traced_run(spec, seed=3)
        assert tracer.orphan_spans() == []
        roots = [s for s in tracer.spans if s.kind == "transaction"]
        fast = [
            s for s in roots if s.outcome == "committed" and s.attrs.get("fast_path")
        ]
        assert fast, "no committed fast-path transaction traced"
        root = fast[0]
        children = [s for s in tracer.spans if s.parent_id == root.span_id]
        kinds = {s.kind for s in children}
        assert "fast-accept" in kinds
        assert "visibility-fanout" in kinds
        accepts = [s for s in children if s.kind == "fast-accept"]
        # The fan-out reached storage nodes on other DCs, stitched to the root.
        assert len({s.node for s in accepts}) >= 3
        text = render_explain(tracer, root.txid)
        assert "transaction @" in text and "fast-accept @" in text

    def test_multi_variant_records_phase2_tally(self):
        spec = _micro_spec("multi")
        _, tracer, _ = _traced_run(spec, seed=3)
        assert tracer.orphan_spans() == []
        tallies = [s for s in tracer.spans if s.kind == "phase2-tally"]
        assert tallies, "classic-path run produced no phase2-tally spans"
        assert all(s.outcome in ("decided", "superseded", "abdicated") or s.end is None
                   for s in tallies)

    def test_coordinator_crash_recovery_timeline(self):
        spec = _micro_spec(
            "mdcc", seed=11, schedule="coordinator-crash",
            clients=4, warmup_s=0.5, measure_s=3.0,
        )
        result, tracer, _ = _traced_run(spec, seed=11)
        assert result.clean
        assert tracer.orphan_spans() == []
        # The dangling probe transaction: proposed, never finished by its
        # (crashed) coordinator, completed by chaos recovery agents.
        dangling = [
            s
            for s in tracer.spans
            if s.kind == "transaction" and s.txid.startswith("chaos-dangling")
        ]
        assert dangling
        root = dangling[0]
        assert root.end is None  # the dead coordinator never finished it
        trace_spans = [s for s in tracer.spans if s.trace_id == root.trace_id]
        by_kind = {}
        for span in trace_spans:
            by_kind.setdefault(span.kind, []).append(span)
        assert "fast-accept" in by_kind
        recoveries = by_kind.get("recovery-escalation", [])
        done = [s for s in recoveries if s.outcome in ("committed", "aborted")]
        assert done, "no recovery agent completed the dangling transaction"
        # The agents' spans parent back to the dangling root: stitched.
        assert all(s.parent_id == root.span_id for s in recoveries)
        # Master arbitration ran under the same trace.
        assert "phase1-takeover" in by_kind or "phase2-tally" in by_kind
        text = render_explain(tracer, root.txid)
        assert "recovery-escalation" in text

    def test_collision_abort_is_attributed(self):
        tracer = Tracer(seed=7)
        trace_runtime.install(tracer)
        try:
            cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=7))
            cluster.register_table(
                TableSchema("items", constraints={"stock": Constraint(minimum=0)})
            )
            cluster.load_record("items", "hot", {"stock": 100})
            c1 = cluster.add_client("us-west")
            c2 = cluster.add_client("ap-southeast")
            t1, t2 = cluster.begin(c1), cluster.begin(c2)
            limit = lambda: cluster.sim.now + 120_000  # noqa: E731
            cluster.sim.run_until(t1.read("items", "hot"), limit=limit())
            cluster.sim.run_until(t2.read("items", "hot"), limit=limit())
            t1.write("items", "hot", {"stock": 99})
            t2.write("items", "hot", {"stock": 98})
            f1, f2 = t1.commit(), t2.commit()
            o1 = cluster.sim.run_until(f1, limit=limit())
            o2 = cluster.sim.run_until(f2, limit=limit())
            cluster.sim.run(until=cluster.sim.now + 5_000)
        finally:
            trace_runtime.uninstall()
        assert o1.committed != o2.committed  # exactly one wins
        assert tracer.orphan_spans() == []
        roots = [s for s in tracer.spans if s.kind == "transaction"]
        loser = next(s for s in roots if s.outcome == "aborted")
        assert any(e["name"] == "collision" for e in loser.events)
        mixed = [
            s
            for s in tracer.spans
            if s.trace_id == loser.trace_id and s.kind == "fast-accept"
        ]
        # The collision is visible in the timeline: acceptors split.
        outcomes = {s.outcome for s in mixed}
        assert outcomes == {"accepted", "rejected"}
        escalations = [
            s
            for s in tracer.spans
            if s.trace_id == loser.trace_id and s.kind == "recovery-escalation"
        ]
        assert escalations and escalations[0].attrs.get("reason") == "collision"

    def test_demarcation_rejection_is_attributed(self):
        tracer = Tracer(seed=5)
        trace_runtime.install(tracer)
        try:
            cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=5))
            cluster.register_table(
                TableSchema("items", constraints={"stock": Constraint(minimum=0)})
            )
            cluster.load_record("items", "scarce", {"stock": 4})
            clients = [cluster.add_client(dc) for dc in
                       ("us-west", "us-east", "eu-west", "ap-northeast", "ap-southeast")]
            futures = []
            for client in clients:
                tx = cluster.begin(client)
                tx.decrement("items", "scarce", "stock", 2)
                futures.append(tx.commit())
            for future in futures:
                cluster.sim.run_until(future, limit=cluster.sim.now + 240_000)
            cluster.sim.run(until=cluster.sim.now + 5_000)
        finally:
            trace_runtime.uninstall()
        checks = [s for s in tracer.spans if s.kind == "demarcation-check"]
        # 5 writers x 2 units against stock 4 under a per-DC escrow share:
        # some acceptor must have hit its demarcation limit.
        assert checks, "no demarcation-limit rejection was traced"
        assert all(s.outcome == "demarcation-limit" for s in checks)
        assert tracer.orphan_spans() == []


# ----------------------------------------------------------------------
# TCP transport: context over real sockets
# ----------------------------------------------------------------------
def _free_ports(count):
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


class TestTcpStitching:
    def test_spans_stitch_across_sockets(self):
        """One transport per storage node + a driver transport, all in one
        process under one ambient tracer: the envelope's trace context must
        stitch coordinator spans to storage-node spans across real TCP."""
        from repro.transport.runner import RemoteCluster, driver_transport, host_node
        from repro.transport.topology import make_local_topology

        topology = make_local_topology(
            ClusterSpec(
                datacenters=("us-west", "us-east", "eu-west"),
                partitions_per_table=1,
                seed=5,
            ),
            items=10,
            ports=_free_ports(3),
        )
        tracer = Tracer(seed=5)
        trace_runtime.install(tracer, MetricsRegistry())
        try:
            with driver_transport(topology) as driver:
                loop = asyncio.get_event_loop()
                servers = [
                    loop.run_until_complete(host_node(topology, node_id))
                    for node_id in sorted(topology.nodes)
                ]
                try:
                    cluster = RemoteCluster(topology, driver)
                    coordinator = cluster.add_client("us-west")
                    outcomes = []
                    for key in topology.item_keys()[:2]:
                        tx = cluster.begin(coordinator)
                        driver.run_until(
                            tx.read("items", key), limit=driver.now + 30_000.0
                        )
                        tx.decrement("items", key, "stock", 1)
                        outcomes.append(
                            driver.run_until(tx.commit(), limit=driver.now + 30_000.0)
                        )
                finally:
                    for server in servers:
                        loop.run_until_complete(server.close())
        finally:
            trace_runtime.uninstall()

        assert all(outcome.committed for outcome in outcomes)
        assert tracer.orphan_spans() == []
        roots = [s for s in tracer.spans if s.kind == "transaction"]
        assert len(roots) == 2
        for root in roots:
            accepts = [
                s
                for s in tracer.spans
                if s.trace_id == root.trace_id and s.kind == "fast-accept"
            ]
            # Acceptors live on OTHER transports: their spans only parent to
            # the coordinator's root if the context crossed the sockets.
            assert len({s.node for s in accepts}) == 3
            assert all(s.parent_id == root.span_id for s in accepts)
            timeline = render_explain(tracer, root.txid)
            for dc in ("us-west", "us-east", "eu-west"):
                assert f"fast-accept @ store-{dc}-p0" in timeline
