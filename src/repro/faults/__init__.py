"""Chaos engineering for the reproduction: declarative fault schedules.

The paper's §5.3.4 evaluates exactly one fault (a full data-center
outage); this package generalizes it into a scenario engine.  A
:class:`~repro.faults.schedule.FaultSchedule` declares a replayable
timeline of faults; a :class:`~repro.faults.controller.ChaosController`
interprets it against a running cluster;
:func:`repro.bench.driver.run` takes a schedule as the optional third
piece of any run and returns availability-over-time plus invariant
verdicts; ``run_scenario(ScenarioSpec(schedule=...))`` names one.  ``python -m repro chaos <schedule>`` is the CLI entry point.
"""

from repro.faults.controller import CHAOS_TABLE, ChaosController
from repro.faults.schedule import (
    NAMED_SCHEDULES,
    FaultEvent,
    FaultSchedule,
    named_schedule,
)

__all__ = [
    "CHAOS_TABLE",
    "ChaosController",
    "FaultEvent",
    "FaultSchedule",
    "NAMED_SCHEDULES",
    "named_schedule",
]
