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

One fixed 25-simulated-second micro run per protocol whose message
count is a claim — the three MDCC variants, 2PC, QW-3 and Replicated
Commit — is pinned a third way, by its exact counts
(:data:`SIM_CORE_COUNTS`): commits, events, and messages sent per type.
Those are the paper's cost model — one wide-area round per commit (§3),
against baselines that message "all involved storage nodes" (§5.2) — in
hardware-independent form, so a change to the messages a commit costs
reads here as a diff of counts.  Speed is not measured here;
``perf/run.py`` measures it.
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
    "micro-mdcc": "80e207bdf7b032f650eb9b588484e51be2c2d1c0303312622f73bfdf4b2c6cc0",
    "micro-fast-hotspot": "f4d805b73afe9b526e175a3dffdd207d80460a200b0e87bbacd50f48a695bab8",
    "micro-multi-locality-fixed-master": "cf6dceeec69014184194e3eba3efb23e6f34675193bf5e4500e8a53894676780",
    "tpcw-megastore": "9f4da5b9161113bb9a39fb42dc307ce322357fa4f50d916c2ba38713d97d246d",
    "tpcw-2pc": "adfb2faf1cbb7c496c9f2221dfef354fc8c04c7e7a02d34836a182ff982c745a",
    "micro-qw3-no-audit": "8b786b831d207bfab1120012ae975a88239d7bd76ae0ebf336e3b7168a8ef096",
    "geoshift-multi-adaptive": "b7bce96a77b23c91801baea36d1ba6f60ad87c7ae54a92ca1afe0ea2d6f640b7",
    "micro-mdcc-fail-dc": "5d3c7e2b21f04b518743b1cfc6d1fabdeb441054d477792a7f9b26905cd4340a",
    "dc-outage-mdcc": "cc4d757c7543dcfcb2a40668b5644ac00299fbd7f7e6cdb3afc1f6d7ad78c8c6",
    "follow-the-sun-outage-multi": "272eb06ad3680f0a6e8c1fbe96cce6e0654b9c31db835d360b79486448ac18bb",
    "flaky-wan-repcommit": "39a6af8ecb3d2bc68d2fc52e9cc277071acd62e0bd99a8584d0f304a9e0d1477",
    "dc-replace-3dc": "7b176c0cfbcfae9c260b09220d15e12292940b3062867b6066f9ff9c339cdd8b",
    "micro-2pc-hotspot": "14c19a761d247c862ee275a8607ba90351390dbdf9d96187278fc7b69a55351e",
    "micro-repcommit": "c947855b2d8281edaccc43ab37c9d43e9d851c9208799c3a7acc2198a03133e6",
    "micro-megastore": "585c9b9c8218624c901762bf9dc1f2b16dee7098f37ec1049e55379546856d30",
    "micro-qw4": "6df7ebc87cd187a7bddcbb8b60572f262fb28bdec53e9238304bbbeefc3fa70c",
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
    "micro-mdcc": "2fc1c8d55f5f4e741ca36e079eedcf0dffacb6692be54b8bab4c377ab5b12a52",
    "micro-fast-hotspot": "526e76c2d4c18443e1e6bf7138cb014826bc15dcb119ab193c47f5d94f8e0aa1",
    "micro-multi-locality-fixed-master": "96a5387e0e827f38081de4e0406cd201b7c4175fd0edd9a1ed42670da8fe30a5",
    "dc-outage-mdcc": "10d3acb3cc9d3cbc27bf606c7ee42cb9a46d3b4f6a9be3a9f7673235690123b8",
    "dc-replace-3dc": "88d0e596650b2754c76d06b0178c07f7cf7a69d78a62b5e784b7ac8865505027",
    "geoshift-multi-adaptive": "a2ac5b4423706960d9ba7fae70bb1a07518b805d733a19de77a835d12ccac4d3",
    "micro-repcommit": "b0269ca24d9fdccefd7314c5534e8cd3bae41dc21bdf5c98663ce63d5f7003f0",
    "coordinator-crash-mdcc": "134c6de7c651e8b84e38e160e321c291a60bae5368da93472b81ef58f71df62b",
    "micro-mdcc-scarce-stock": "aa57813a0576b412d8fb28ea49f9e77a3408dd62a0d1e58ba33997bf48765a29",
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
#: clients, 500 items, stock 500-1000, 2 partitions per table), 5 s
#: warm-up + 20 s measured at seed 7, in six cells: ``mdcc``, ``fast``,
#: ``multi``, ``2pc``, ``qw3`` and ``repcommit``.  MDCC's fast path and
#: the baselines both send one message per (transaction, replica set or
#: storage node) and type.
SIM_CORE_COUNTS = {
    "mdcc": {
        "commits": 1922,
        "aborts": 0,
        "events": 98155,
        "sim_ms": 35000.0,
        "sent": 78615,
        "delivered": 78615,
        "dropped": 0,
        "per_type": {
            "FastReply": 9125,
            "FastReplyBatch": 12200,
            "ProposeFast": 9125,
            "ProposeFastBatch": 12200,
            "ReadReply": 7320,
            "ReadRequest": 7320,
            "Visibility": 9125,
            "VisibilityBatch": 12200,
        },
    },
    "fast": {
        "commits": 968,
        "aborts": 418,
        "events": 85733,
        "sim_ms": 35000.0,
        "sent": 70598,
        "delivered": 70598,
        "dropped": 0,
        "per_type": {
            "CatchUp": 5,
            "FastReply": 7336,
            "FastReplyBatch": 7214,
            "MPhase1a": 535,
            "MPhase1b": 535,
            "MPhase2a": 4080,
            "MPhase2b": 4080,
            "OptionOutcome": 1535,
            "ProposeClassic": 3354,
            "ProposeFast": 6675,
            "ProposeFastBatch": 8870,
            "ReadReply": 5322,
            "ReadRequest": 5322,
            "StartRecovery": 190,
            "Visibility": 6675,
            "VisibilityBatch": 8870,
        },
    },
    "multi": {
        "commits": 764,
        "aborts": 267,
        "events": 83429,
        "sim_ms": 35000.0,
        "sent": 68710,
        "delivered": 68710,
        "dropped": 0,
        "per_type": {
            "CatchUp": 3,
            "MPhase2a": 20655,
            "MPhase2b": 20655,
            "OptionOutcome": 3963,
            "ProposeClassic": 3963,
            "ReadReply": 3963,
            "ReadRequest": 3963,
            "Visibility": 4940,
            "VisibilityBatch": 6605,
        },
    },
    "2pc": {
        "commits": 727,
        "aborts": 233,
        "events": 57082,
        "sim_ms": 35000.0,
        "sent": 50852,
        "delivered": 50852,
        "dropped": 0,
        "per_type": {
            "DecisionAck": 10850,
            "DecisionMessage": 10850,
            "PrepareReply": 10850,
            "PrepareRequest": 10850,
            "ReadReply": 3726,
            "ReadRequest": 3726,
        },
    },
    "qw3": {
        "commits": 2827,
        "aborts": 0,
        "events": 98160,
        "sim_ms": 35000.0,
        "sent": 83856,
        "delivered": 83856,
        "dropped": 0,
        "per_type": {
            "QWAck": 31215,
            "QWWrite": 31215,
            "ReadReply": 10713,
            "ReadRequest": 10713,
        },
    },
    "repcommit": {
        "commits": 582,
        "aborts": 145,
        "events": 74757,
        "sim_ms": 35000.0,
        "sent": 67185,
        "delivered": 67185,
        "dropped": 0,
        "per_type": {
            "RcApply": 8235,
            "RcCommitRequest": 4720,
            "RcDecision": 4720,
            "RcPrepare": 8235,
            "RcPrepareReply": 8235,
            "RcVote": 4720,
            "ReadReply": 14160,
            "ReadRequest": 14160,
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
