"""The chaos scenario matrix: every gated protocol × its schedules.

§5.3.4's claim — "data center failures have almost no impact on
availability or response times" — is evaluated in the paper with exactly
one fault.  This suite generalizes the claim into a CI gate: each cell
replays one declarative :class:`~repro.faults.schedule.FaultSchedule`
(outages, N-way partitions, flaky links, coordinator and master crashes)
against one protocol variant and asserts

* **safety** — zero invariant-checker violations after heal + repair:
  the update ledger balances, replicas converge, schema constraints hold,
  and racing recovery agents agree on every dangling transaction;
* **bounded unavailability** — at least the schedule's
  ``min_availability`` fraction of measurement buckets sees a commit, and
  commits flow again in the final bucket (post-heal).

Every cell is deterministic for its seed — across interpreters too (no
hash-order-dependent iteration feeds the shared jitter streams).  A
verdict table is persisted to ``benchmarks/results/`` whenever the full
grid runs in one process; partial runs print theirs without clobbering
the committed artifact.
"""

import pytest

from repro.api import ClusterSpec, ScenarioSpec, run_scenario
from repro.bench.reporting import format_table, save_results
from repro.faults import named_schedule
from repro.protocols.base import get_protocol

VARIANTS = ("mdcc", "fast", "multi")
#: the full grid: each protocol gated on exactly the schedules its
#: descriptor declares (MDCC variants on all six; Replicated Commit on
#: the network-level three — it has no recovery or membership agents).
CELLS = [
    (variant, schedule)
    for variant in (*VARIANTS, "repcommit")
    for schedule in get_protocol(variant).chaos_schedules
]
SEED = 7

_CACHE = {}
_ROWS = []


def chaos_cell(variant: str, schedule_name: str):
    key = (variant, schedule_name)
    if key not in _CACHE:
        spec = ScenarioSpec(
            cluster=ClusterSpec(protocol=variant, seed=SEED),
            workload=None,  # the schedule's hint (as is the master policy)
            clients=20,
            items=300,
            warmup_s=5.0,
            measure_s=60.0,
            phase_s=15.0,
            schedule=schedule_name,
        )
        _CACHE[key] = (named_schedule(schedule_name), run_scenario(spec))
    return _CACHE[key]


@pytest.mark.parametrize("variant,schedule_name", CELLS)
def test_chaos(variant, schedule_name):
    schedule, result = chaos_cell(variant, schedule_name)

    _ROWS.append(
        {
            "variant": variant,
            "schedule": schedule_name,
            "commits": result.commits,
            "aborts": result.aborts,
            "availability": round(result.availability, 2),
            "median_ms": None
            if result.median_ms is None
            else round(result.median_ms, 1),
            "migrations": result.extra.get("migrations", 0),
            "verdict": "clean" if result.clean else "DIRTY",
        }
    )

    # Safety: no consistency violation survives heal + repair.
    assert result.audit_problems == []
    assert result.divergent_records == 0
    assert result.constraint_violations == 0
    assert result.probe_problems == []

    # Liveness: commits flowed, unavailability stayed bounded, and the
    # cluster was committing again once the faults lifted.
    assert result.commits > 0
    assert result.availability >= schedule.min_availability
    assert result.timeline[-1]["commits"] > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_chaos_recovery_agents_agree(variant):
    """coordinator-crash cells: both racing recovery agents decided every
    dangling transaction, and decided it identically."""
    _schedule, result = chaos_cell(variant, "coordinator-crash")
    by_txid = {}
    for outcome in result.recovery_outcomes:
        by_txid.setdefault(outcome["txid"], []).append(outcome["committed"])
    assert len(by_txid) == 2  # two coordinator crashes in the schedule
    for txid, verdicts in by_txid.items():
        assert len(verdicts) == 2, f"{txid}: a recovery agent never decided"
        assert len(set(verdicts)) == 1, f"{txid}: recovery agents disagreed"


@pytest.mark.parametrize("variant", VARIANTS)
def test_chaos_placement_migrates_through_outage(variant):
    """follow-the-sun-outage cells run adaptive placement: mastership must
    keep migrating despite the daylight DC going dark mid-migration."""
    _schedule, result = chaos_cell(variant, "follow-the-sun-outage")
    assert result.extra["master_policy"] == "adaptive"
    assert result.extra["migrations"] > 0


def test_zz_chaos_matrix_report():
    """Persist the verdict table (named to sort after the matrix cells).

    The title reflects the cells that actually ran in this process, and
    the table is only *persisted* when the full grid did — a partial run
    (CI's per-variant ``-k "<variant> or zz_chaos_matrix"`` leg, or a
    developer's filtered run) prints its table but must not clobber the
    committed full-grid artifact with a truncated one."""
    assert _ROWS, "matrix cells did not run"
    rows = sorted(_ROWS, key=lambda r: (r["variant"], r["schedule"]))
    variants = sorted({row["variant"] for row in rows})
    schedules = sorted({row["schedule"] for row in rows})
    table = format_table(
        rows,
        title=f"Chaos matrix — variants: {', '.join(variants)} x "
        f"{len(schedules)} schedules (seed {SEED})",
    )
    print()
    print(table)
    ran = {(row["variant"], row["schedule"]) for row in rows}
    if ran == set(CELLS):
        save_results("chaos_matrix", table)
