"""Golden trajectories: tiny specs whose full result is pinned by digest.

Every way of starting a run funnels through ``run_scenario(spec)`` and
:func:`repro.bench.driver.run`; these sixteen specs cover each
combination whose defaults differ (workload × fault-free / single outage
/ named schedule, protocol-specific client placement and partition
collapse, audit off, custom data-center sets).  Every committed write's
latency and timestamp, every counter, the availability timeline, the
chaos event log and the invariant verdicts are inside the hash, so a
match is a seconds-long stand-in for regenerating every figure table:
the digests were taken from the tree that generated
``benchmarks/results/``.

A mismatch means the simulated trajectory changed.  If that was the
point of your change, regenerate with::

    PYTHONPATH=src python tests/test_run_golden.py

Nine of the runs are pinned a second time with the tracer installed, by
the digest of the whole trace artifact (every span's id, parent, node,
times, outcome, attributes and events, plus the per-node counters), so
instrumented code can be restructured against a fixed answer across
commits — ``tests/test_trace.py`` and CI ``trace-smoke`` only compare
two runs of the same tree.  The artifact must not depend on
``PYTHONHASHSEED``; regenerate under two values and compare.  The same
nine runs check the descriptors' span vocabularies against what the
roles actually emit.

One fixed 25-simulated-second micro run per first-class variant is
pinned a third way, by its exact counts (:data:`SIM_CORE_COUNTS`):
commits, events, and messages sent per type.  Those are the paper's cost
model — one wide-area round per commit (§3) — in hardware-independent
form, so a change to the messages a commit costs reads here as a diff
of counts.  Speed is not measured here; ``perf/run.py`` measures it.
"""

import functools
import hashlib
import json

import pytest

from repro.api import ClusterSpec, ScenarioSpec, build_cluster, run_scenario
from repro.bench.driver import run
from repro.cli import _traced
from repro.protocols.base import get_protocol
from repro.trace import build_artifact, render_artifact_json
from repro.workloads.micro import MicroBenchmark

THREE_DCS = ("us-west", "us-east", "eu-west")


def _spec(protocol, seed, cluster=None, **scenario):
    scenario.setdefault("clients", 6)
    scenario.setdefault("items", 80)
    scenario.setdefault("warmup_s", 1.0)
    scenario.setdefault("measure_s", 6.0)
    return ScenarioSpec(
        cluster=ClusterSpec(protocol=protocol, seed=seed, **(cluster or {})),
        **scenario,
    )


SPECS = {
    "micro-mdcc": _spec("mdcc", 1),
    "micro-fast-hotspot": _spec("fast", 2, hotspot=0.1),
    "micro-multi-locality-fixed-master": _spec(
        "multi", 3, cluster={"master_policy": "fixed:us-east"}, locality=0.8
    ),
    # single entity group (partitions collapse to 1) + clients pinned to
    # the descriptor's preferred DC — the TPC-W-only placement rule.
    "tpcw-megastore": _spec("megastore", 4, workload="tpcw", clients=4),
    "tpcw-2pc": _spec("2pc", 5, workload="tpcw"),
    "micro-qw3-no-audit": _spec("qw3", 6, audit=False),
    # fault-free geoshift runs the placement tracker at a 4 s half-life.
    "geoshift-multi-adaptive": _spec(
        "multi",
        7,
        cluster={"master_policy": "adaptive"},
        workload="geoshift",
        clients=8,
        phase_s=2.0,
        measure_s=8.0,
    ),
    "micro-mdcc-fail-dc": _spec("mdcc", 8, fail_dc="us-east", fail_at_s=2.0),
    "dc-outage-mdcc": _spec("mdcc", 9, schedule="dc-outage", bucket_s=2.0),
    # schedule hints pick geoshift + adaptive; scheduled runs keep the
    # cluster builder's 10 s tracker half-life.
    "follow-the-sun-outage-multi": _spec(
        "multi",
        10,
        workload=None,
        schedule="follow-the-sun-outage",
        clients=8,
        phase_s=15.0,
        measure_s=8.0,
        bucket_s=2.0,
    ),
    "flaky-wan-repcommit": _spec(
        "repcommit", 11, schedule="flaky-wan", measure_s=8.0, bucket_s=2.0
    ),
    "dc-replace-3dc": _spec(
        "mdcc",
        12,
        cluster={"datacenters": THREE_DCS},
        schedule="dc-replace",
        clients=8,
        measure_s=8.0,
        bucket_s=2.0,
    ),
    # the four baselines' participants fault-free: the hot spot drives
    # 2PC lock conflicts, megastore validation aborts and qw4 lost updates.
    "micro-2pc-hotspot": _spec("2pc", 13, hotspot=0.5),
    "micro-repcommit": _spec("repcommit", 14),
    "micro-megastore": _spec("megastore", 15, hotspot=0.1),
    "micro-qw4": _spec("qw4", 16, hotspot=0.1),
}

DIGESTS = {
    "micro-mdcc": "06182e407a5a935be4e61640388893581d285855241818d8fa7922a8605ad8a3",
    "micro-fast-hotspot": "024668b8667cb83d295e0fb6381e2905b1daa78037f9f94b9ceeea71ab5348e9",
    "micro-multi-locality-fixed-master": "3e0e0015bd9ea5c2600c3de116442cc220c51ae2b763610b2e83b0e78bf22f62",
    "tpcw-megastore": "9f4da5b9161113bb9a39fb42dc307ce322357fa4f50d916c2ba38713d97d246d",
    "tpcw-2pc": "a16df27babaad0ce29a7153e52b14ab7759feeff386966980207d684c6de30b1",
    "micro-qw3-no-audit": "82c1ffca5cf0405ff2ad18d186c7f8dae5fb1a2324f50bceb4af1388189a559e",
    "geoshift-multi-adaptive": "f4386ceba3c1c04f259148e672bccb0e8ee55422d2396c029baac36269555943",
    "micro-mdcc-fail-dc": "dbc2155b1afe13d631edb1a0f53dd1de82bc58120c849807c734b8423020395f",
    "dc-outage-mdcc": "60a6e1075373a1842ffafdf53dbd8f6b5c639c70140f3f7b8ba22107df7ee8f6",
    "follow-the-sun-outage-multi": "dbfb9fa380f7ddae82dad63c319dea94ae752e291221c3a6d492b939aa8ac262",
    "flaky-wan-repcommit": "272a5641267b8a2c61613a8d14635559cbc8b1017bdf7575bdf8727a65f83232",
    "dc-replace-3dc": "2bf2d8f7dd13d5c507996b61c4e848fc04039d890e48ca4320f8be9ec8cb0316",
    "micro-2pc-hotspot": "9024b8a9a9c33e054bda2499a0b566edf243c4096deb1311df8e23c294585fb7",
    "micro-repcommit": "0a23983f9eaf30858925f435b47cc90ece4efe736306d108398c05ad7b9a07af",
    "micro-megastore": "585c9b9c8218624c901762bf9dc1f2b16dee7098f37ec1049e55379546856d30",
    "micro-qw4": "0277e671022e0d0ac7ff30196c6306dcfdd8f374bfd985a15918528642928ebf",
}


def _scarce_stock():
    """Micro buys against 5-12 units of stock (a spec always stocks
    500-1000): escrow windows reject deltas on both the fast and the
    classic path, so ``demarcation-check`` spans and commutative-limit
    recoveries are inside a hash."""
    return run(
        build_cluster(ClusterSpec(protocol="mdcc", seed=18)),
        MicroBenchmark(num_items=10, min_stock=5, max_stock=12),
        num_clients=6,
        warmup_ms=1_000.0,
        measure_ms=6_000.0,
    )


#: a spec, or a callable for what a spec cannot say.  Together: the span
#: kinds of every MDCC role and of Replicated Commit, on static, adaptive
#: and elastic clusters, fault-free and under chaos.
TRACED = {
    **{
        name: SPECS[name]
        for name in (
            "micro-mdcc",
            "micro-fast-hotspot",
            "micro-multi-locality-fixed-master",
            "dc-outage-mdcc",
            "dc-replace-3dc",
            "geoshift-multi-adaptive",
            "micro-repcommit",
        )
    },
    "coordinator-crash-mdcc": _spec(
        "mdcc", 17, schedule="coordinator-crash", bucket_s=2.0
    ),
    "micro-mdcc-scarce-stock": _scarce_stock,
}

TRACE_DIGESTS = {
    "micro-mdcc": "86b191ecc4608d207b05bf9cc7522cc7486a93d1f439d19d5e3bf3f01cdbbda3",
    "micro-fast-hotspot": "d334547f10a936097d126ec801c300b70400f5d8b938d006c9723fc41d7bc375",
    "micro-multi-locality-fixed-master": "8221332f06dfe1e6eb64da73704c937cfc8e499c1da38cc79ab6aa563f60cc05",
    "dc-outage-mdcc": "8668bc481449b9e142d2d48d42e0fb94975a68d4619a4a70943a140d7a938bef",
    "dc-replace-3dc": "d2debfbfc98a72cbd8fe1d500f122f78e82b074aea9f1dd7b840285b09a30541",
    "geoshift-multi-adaptive": "661f0ce9c67934f1050afd347000ee1276cd28eeb224569c30b590ee3b2851eb",
    "micro-repcommit": "d7d51fbf194677bcc77f590c234ffe5878710dd82ea65cf9617877243454874c",
    "coordinator-crash-mdcc": "0fd231fdc718bb78e2358f09b61bd2eed8c6faec51766c59af7c1ded092f2f4e",
    "micro-mdcc-scarce-stock": "9cf8fbed919fbadcb5d5c89782e42054a86abcf3f7102351da9b42c770db2a9c",
}


def _rounded(value):
    return None if value is None else round(value, 6)


def canonical(spec, result):
    """Everything observable about one run, JSON-ready and order-stable."""
    stats = result.stats
    data = {
        "commits": result.commits,
        "aborts": result.aborts,
        "median_ms": _rounded(result.median_ms),
        "p90_ms": _rounded(result.p90_ms),
        "p99_ms": _rounded(result.p99_ms),
        "throughput_tps": _rounded(result.throughput_tps),
        "audit_problems": sorted(result.audit_problems),
        "divergent_records": result.divergent_records,
        "constraint_violations": result.constraint_violations,
        "master_policy": result.extra.get("master_policy"),
        "migrations": result.extra.get("migrations"),
        "measure_window": [stats.measure_start, stats.measure_end],
        "workload_counters": stats.counters.as_dict(),
        "write_latencies": [
            [_rounded(stamp), _rounded(latency)]
            for stamp, latency in stats.latency_series.points
        ],
        "read_latencies": [_rounded(v) for v in stats.read_latencies.values],
        "abort_latencies": [_rounded(v) for v in stats.abort_latencies.values],
    }
    if spec.schedule is not None:
        data["scenario"] = result.as_dict()
        data["probe_problems"] = sorted(result.probe_problems)
    return data


def digest(spec):
    payload = json.dumps(canonical(spec, run_scenario(spec)), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def traced(name):
    """(protocol, artifact digest, span kinds emitted) of one traced run;
    cached so the digest and the vocabulary tests share the run."""
    scenario = TRACED[name]
    traced_run = scenario if callable(scenario) else lambda: run_scenario(scenario)
    result, tracer, registry = _traced(0, traced_run)  # as `repro trace` runs one
    artifact = render_artifact_json(build_artifact(tracer, registry))
    kinds = frozenset(span.kind for span in tracer.spans)
    return result.protocol, hashlib.sha256(artifact.encode("utf-8")).hexdigest(), kinds


#: micro buys as ``perf/run.py``'s ``sim_micro_fast`` shapes them (20
#: clients, 500 items, stock 500-1000), 5 s warm-up + 20 s measured at
#: seed 7, on each first-class variant.
SIM_CORE_COUNTS = {
    "mdcc": {
        "commits": 1895,
        "aborts": 0,
        "events": 141856,
        "sim_ms": 35000.0,
        "sent": 122604,
        "delivered": 122604,
        "dropped": 0,
        "per_type": {
            "FastReply": 36060,
            "ProposeFast": 36060,
            "ReadReply": 7212,
            "ReadRequest": 7212,
            "Visibility": 36060,
        },
    },
    "fast": {
        "commits": 920,
        "aborts": 408,
        "events": 113549,
        "sim_ms": 35000.0,
        "sent": 98886,
        "delivered": 98886,
        "dropped": 0,
        "per_type": {
            "FastReply": 22061,
            "MPhase1a": 650,
            "MPhase1b": 650,
            "MPhase2a": 4405,
            "MPhase2b": 4405,
            "OptionOutcome": 1657,
            "ProposeClassic": 3499,
            "ProposeFast": 25560,
            "ReadReply": 5112,
            "ReadRequest": 5112,
            "StartRecovery": 215,
            "Visibility": 25560,
        },
    },
    "multi": {
        "commits": 746,
        "aborts": 279,
        "events": 91463,
        "sim_ms": 35000.0,
        "sent": 76781,
        "delivered": 76781,
        "dropped": 0,
        "per_type": {
            "CatchUp": 15,
            "MPhase2a": 20590,
            "MPhase2b": 20590,
            "OptionOutcome": 3954,
            "ProposeClassic": 3954,
            "ReadReply": 3954,
            "ReadRequest": 3954,
            "Visibility": 19770,
        },
    },
    "repcommit": {
        "commits": 587,
        "aborts": 142,
        "events": 92728,
        "sim_ms": 35000.0,
        "sent": 85140,
        "delivered": 85140,
        "dropped": 0,
        "per_type": {
            "RcApply": 14190,
            "RcCommitRequest": 4730,
            "RcDecision": 4730,
            "RcPrepare": 14190,
            "RcPrepareReply": 14190,
            "RcVote": 4730,
            "ReadReply": 14190,
            "ReadRequest": 14190,
        },
    },
}


def sim_core_counts(protocol):
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, seed=7, partitions_per_table=2)
    )
    stats, _pool = MicroBenchmark(num_items=500, min_stock=500, max_stock=1000).run(
        cluster, num_clients=20, warmup_ms=5_000.0, measure_ms=20_000.0
    )
    net = cluster.network.stats
    return {
        "commits": stats.commits,
        "aborts": stats.aborts,
        "events": cluster.sim.events_processed,
        "sim_ms": cluster.sim.now,
        "sent": net.messages_sent,
        "delivered": net.messages_delivered,
        "dropped": net.messages_dropped,
        "per_type": dict(sorted(net.per_type.items())),
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_trajectory(name):
    assert digest(SPECS[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TRACED))
def test_golden_trace_artifact(name):
    assert traced(name)[1] == TRACE_DIGESTS[name]


def test_traced_runs_emit_only_their_declared_span_kinds():
    """Each run's span kinds (bar the ``transaction`` root) are in its
    protocol's ``trace_span_kinds``; the eight MDCC-variant runs between
    them emit the whole MDCC vocabulary, so no declared kind is dead."""
    mdcc_emitted = set()
    for name in sorted(TRACED):
        protocol, _digest, kinds = traced(name)
        descriptor = get_protocol(protocol)
        kinds = kinds - {"transaction"}
        undeclared = kinds - set(descriptor.trace_span_kinds)
        assert not undeclared, (name, sorted(undeclared))
        if descriptor.variant is not None:
            mdcc_emitted |= kinds
    assert mdcc_emitted == set(get_protocol("mdcc").trace_span_kinds)


@pytest.mark.parametrize("protocol", list(SIM_CORE_COUNTS))
def test_sim_core_counts(protocol):
    assert sim_core_counts(protocol) == SIM_CORE_COUNTS[protocol]


if __name__ == "__main__":  # regenerate the pinned digests and counts
    print("DIGESTS")
    for spec_name in SPECS:
        print(f'    "{spec_name}": "{digest(SPECS[spec_name])}",')
    print("TRACE_DIGESTS")
    for run_name in TRACED:
        print(f'    "{run_name}": "{traced(run_name)[1]}",')
    print("SIM_CORE_COUNTS")
    for protocol in SIM_CORE_COUNTS:
        print(f'    "{protocol}": {sim_core_counts(protocol)!r},')
