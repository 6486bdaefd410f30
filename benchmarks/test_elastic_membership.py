"""Elastic membership under fire: the dc-replace lifecycle as a CI gate.

The acceptance scenario for :mod:`repro.reconfig`: a **3-data-center**
cluster (the tightest deployment where losing one DC still leaves a
classic quorum) runs the micro workload while

1. one data center suffers a full outage (§5.3.4's fault),
2. is **decommissioned** — the membership epoch bumps, quorums shrink
   from n=3 to n=2, and its record masterships are evacuated through
   Phase-1 takeovers among the survivors,
3. and a **replacement** data center joins — links cloned from the
   victim, replicas snapshot-bootstrapped from a donor, caught up by
   anti-entropy, then admitted (epoch bumps again, quorums grow back to
   n=3 including the new DC).

Asserted per MDCC variant:

* **zero consistency violations** — the update ledger balances, replicas
  (including the replacement's) converge, constraints hold;
* **bounded unavailability** — commits flow in at least the schedule's
  ``min_availability`` fraction of buckets and in the final bucket;
* **post-join quorums include the new DC** — final membership is the two
  survivors plus the replacement at full 3-DC quorum sizes, reached in
  exactly two epochs (retire, admit).
"""

import pytest

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.reporting import format_table, save_results
from repro.faults import named_schedule

VARIANTS = ("mdcc", "fast", "multi")
SEED = 11
DATACENTERS = ("us-west", "us-east", "eu-west")
VICTIM = "us-east"
REPLACEMENT = "us-east-2"
DONOR = "us-west"

_CACHE = {}
_ROWS = []


def replace_cell(variant: str):
    if variant not in _CACHE:
        spec = ScenarioSpec(
            cluster=ClusterSpec(protocol=variant, datacenters=DATACENTERS, seed=SEED),
            clients=12,
            items=150,
            warmup_s=5.0,
            measure_s=60.0,
            schedule="dc-replace",
            victim=VICTIM,
            replacement=REPLACEMENT,
            donor=DONOR,
        )
        _CACHE[variant] = (named_schedule("dc-replace"), run_scenario(spec))
    return _CACHE[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_dc_replace(variant):
    schedule, result = replace_cell(variant)
    membership = result.extra["membership"]

    _ROWS.append(
        {
            "variant": variant,
            "commits": result.commits,
            "aborts": result.aborts,
            "availability": round(result.availability, 2),
            "median_ms": None
            if result.median_ms is None
            else round(result.median_ms, 1),
            "epoch": membership["epoch"],
            "quorum": "{n}/{classic}c/{fast}f".format(**membership["quorums"]),
            "verdict": "clean" if result.clean else "DIRTY",
        }
    )

    # Safety: zero consistency violations, replacement replicas included
    # (the convergence checker reads every current replica, and the
    # current replica set contains the admitted newcomer).
    assert result.audit_problems == []
    assert result.divergent_records == 0
    assert result.constraint_violations == 0
    assert result.probe_problems == []

    # Bounded unavailability through outage, shrink and re-grow.
    assert result.commits > 0
    assert result.availability >= schedule.min_availability
    assert result.timeline[-1]["commits"] > 0

    # Post-join membership: the survivors plus the replacement, at full
    # 3-DC quorum sizes, reached in exactly two epochs (retire + admit).
    assert membership["epoch"] == 2
    assert membership["datacenters"] == ["us-west", "eu-west", REPLACEMENT]
    assert membership["joining"] == []
    assert membership["quorums"] == {"n": 3, "classic": 2, "fast": 3}
    events = [(entry["event"], entry["dc"]) for entry in membership["history"]]
    assert events == [
        ("retired", VICTIM),
        ("join-started", REPLACEMENT),
        ("admitted", REPLACEMENT),
    ]


@pytest.mark.parametrize("variant", VARIANTS)
def test_dc_replace_bootstrap_streamed_state(variant):
    """The replacement was filled by the snapshot stream, not by luck:
    every partition acked a stream covering the whole table."""
    _schedule, result = replace_cell(variant)
    membership = result.extra["membership"]
    admitted = [
        event
        for event in membership["reconfig_events"]
        if event["event"] == "admitted"
    ]
    assert len(admitted) == 1
    report = admitted[0]
    assert report["ok"] is True
    assert report["dc"] == REPLACEMENT
    # 150 items across 2 partitions, plus whatever committed since load.
    assert report["records_streamed"] >= 150
    assert set(report["wal_cuts"]) == {
        f"store-{REPLACEMENT}-p0",
        f"store-{REPLACEMENT}-p1",
    }
    assert all(cut > 0 for cut in report["wal_cuts"].values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_dc_replace_epoch_fencing_engaged(variant):
    """Quorum resizing actually fenced in-flight votes: at least one
    stale-epoch message was dropped across the two bumps (a 12-client
    closed loop always has messages in flight at the bump instants)."""
    _schedule, result = replace_cell(variant)
    assert result.extra["membership"]["stale_epoch_dropped"] > 0


def test_zz_elastic_matrix_report():
    """Persist the verdict table (named to sort after the matrix cells).

    The table is only written when every variant ran in this process —
    a single-variant leg (CI's ``-k "<variant> or zz_elastic_matrix"``,
    or a developer's filtered run) prints its partial table but must not
    clobber the committed full-grid artifact."""
    assert _ROWS, "matrix cells did not run"
    rows = sorted(_ROWS, key=lambda r: r["variant"])
    table = format_table(
        rows,
        title=f"Elastic membership — dc-replace on 3 DCs, "
        f"{len(rows)} variants (seed {SEED})",
    )
    print()
    print(table)
    if {row["variant"] for row in rows} == set(VARIANTS):
        save_results("elastic_matrix", table)
