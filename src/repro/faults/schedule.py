"""Declarative, replayable fault schedules.

A :class:`FaultSchedule` is a seed-independent *timeline of fault events*
— "at t=20s, kill us-east; at t=40s, bring it back" — that the
:class:`~repro.faults.controller.ChaosController` interprets against a
running cluster.  Schedules are plain data: they can be built fluently,
serialized to JSON, compared, and replayed bit-identically, which is what
lets CI gate on "variant X survives schedule Y" (§5.3.4 generalized from
one figure to a scenario matrix).

The five named schedules cover the failure modes a multi-data-center
protocol differentiates under:

* ``dc-outage`` — the paper's Figure 8: one full data-center outage and
  recovery.
* ``rolling-partitions`` — successive N-way splits of the fabric: a 2/3
  split, then an isolated data center, then pairwise link cuts.
* ``flaky-wan`` — no clean failure at all: added latency, jitter, random
  loss and a flapping link on the busiest routes.
* ``coordinator-crash`` — app servers die mid-commit, leaving dangling
  transactions for the recovery agents (§3.2.3) to finish.
* ``follow-the-sun-outage`` — the data center currently "in daylight"
  (and being migrated *toward* by adaptive placement) goes dark:
  placement migration racing a partition.
* ``dc-replace`` — the disaster-replacement lifecycle over an *elastic*
  cluster (:mod:`repro.reconfig`): a data center goes dark, is
  decommissioned (epoch-fenced quorum shrink + mastership evacuation),
  and a replacement joins via snapshot bootstrap and is admitted.

Event times are absolute simulated milliseconds.  :func:`named_schedule`
builds the named ones proportionally to a (start, duration) window so the
same scenario shape scales from a 10-second smoke test to a full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "NAMED_SCHEDULES",
    "named_schedule",
]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    ``params`` is stored as a sorted key/value tuple so events are
    hashable and serialize deterministically.
    """

    at_ms: float
    action: str
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_ms": self.at_ms,
            "action": self.action,
            "params": self.params_dict,
        }


@dataclass
class FaultSchedule:
    """A named timeline of fault events plus scenario hints.

    ``workload`` and ``master_policy`` are *hints*
    :func:`repro.api.run_scenario` uses when the spec leaves them open —
    e.g. ``follow-the-sun-outage`` only makes sense over the geoshift
    workload with adaptive placement.  ``settle_ms`` is how long the run
    driver lets the cluster drain after the measurement window (and after
    :meth:`ChaosController.heal_all`) before running the invariant
    checkers.
    """

    name: str
    description: str = ""
    events: List[FaultEvent] = field(default_factory=list)
    workload: str = "micro"
    master_policy: Optional[str] = None
    settle_ms: float = 30_000.0
    #: fraction of measurement-window buckets that must see >= 1 commit for
    #: the scenario to count as "bounded unavailability".
    min_availability: float = 0.8

    # ------------------------------------------------------------------
    # Fluent builders (each returns self)
    # ------------------------------------------------------------------
    def _add(self, at_ms: float, action: str, **params: object) -> "FaultSchedule":
        if at_ms < 0:
            raise ValueError(f"negative event time: {at_ms}")
        self.events.append(
            FaultEvent(
                at_ms=float(at_ms),
                action=action,
                params=tuple(sorted(params.items())),
            )
        )
        return self

    def fail_dc(self, at_ms: float, dc: str) -> "FaultSchedule":
        return self._add(at_ms, "fail-dc", dc=dc)

    def recover_dc(self, at_ms: float, dc: str) -> "FaultSchedule":
        return self._add(at_ms, "recover-dc", dc=dc)

    def partition_pair(self, at_ms: float, dc_a: str, dc_b: str) -> "FaultSchedule":
        return self._add(at_ms, "partition-pair", pair=tuple(sorted((dc_a, dc_b))))

    def heal_pair(self, at_ms: float, dc_a: str, dc_b: str) -> "FaultSchedule":
        return self._add(at_ms, "heal-pair", pair=tuple(sorted((dc_a, dc_b))))

    def partition_groups(
        self, at_ms: float, groups: Sequence[Sequence[str]]
    ) -> "FaultSchedule":
        """An N-way split; DCs absent from every group form the remainder."""
        return self._add(
            at_ms,
            "partition-groups",
            groups=tuple(tuple(sorted(group)) for group in groups),
        )

    def clear_partition_groups(self, at_ms: float) -> "FaultSchedule":
        return self._add(at_ms, "clear-groups")

    def degrade_link(
        self,
        at_ms: float,
        dc_a: str,
        dc_b: str,
        extra_latency_ms: float = 0.0,
        jitter_sigma: float = 0.0,
        drop_rate: float = 0.0,
    ) -> "FaultSchedule":
        return self._add(
            at_ms,
            "degrade-link",
            pair=tuple(sorted((dc_a, dc_b))),
            extra_latency_ms=extra_latency_ms,
            jitter_sigma=jitter_sigma,
            drop_rate=drop_rate,
        )

    def restore_link(self, at_ms: float, dc_a: str, dc_b: str) -> "FaultSchedule":
        return self._add(at_ms, "restore-link", pair=tuple(sorted((dc_a, dc_b))))

    def flap_link(
        self,
        start_ms: float,
        dc_a: str,
        dc_b: str,
        period_ms: float,
        cycles: int,
    ) -> "FaultSchedule":
        """A link that goes fully dark and comes back, ``cycles`` times.

        Expands to alternating degrade(drop=1.0)/restore events — the
        schedule stays plain data, no special runtime support needed.
        """
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if cycles < 1:
            raise ValueError("need at least one flap cycle")
        for cycle in range(cycles):
            down = start_ms + cycle * period_ms
            self.degrade_link(down, dc_a, dc_b, drop_rate=1.0)
            self.restore_link(down + period_ms / 2.0, dc_a, dc_b)
        return self

    def set_drop_rate(self, at_ms: float, rate: float) -> "FaultSchedule":
        return self._add(at_ms, "drop-rate", rate=rate)

    def decommission_dc(self, at_ms: float, dc: str) -> "FaultSchedule":
        """Gracefully remove ``dc`` from a running *elastic* cluster:
        retire it from the membership (epoch bump, quorum shrink),
        evacuate its record masterships via Phase-1 takeovers, then drop
        its replicas.  Requires the cluster to be built elastic."""
        return self._add(at_ms, "decommission-dc", dc=dc)

    def join_dc(
        self,
        at_ms: float,
        dc: str,
        like: Optional[str] = None,
        donor: Optional[str] = None,
    ) -> "FaultSchedule":
        """Join ``dc`` to a running *elastic* cluster: wire its links
        (cloning ``like``'s RTT profile when it is a brand-new DC),
        snapshot-bootstrap its replicas from ``donor``, catch up through
        anti-entropy, then admit it to quorums (epoch bump)."""
        return self._add(at_ms, "join-dc", dc=dc, like=like, donor=donor)

    def crash_master(self, at_ms: float, dc: Optional[str] = None) -> "FaultSchedule":
        """Crash the master storage node of a workload record.

        The controller resolves the target at event time: the first
        workload key (in key order) whose master lives in ``dc`` (or the
        first key outright when ``dc`` is None).  Re-election happens
        through the normal failover path — coordinators escalate to the
        next master candidate, which wins a Phase-1 takeover."""
        return self._add(at_ms, "crash-master", dc=dc)

    def restore_masters(self, at_ms: float) -> "FaultSchedule":
        return self._add(at_ms, "restore-masters")

    def crash_coordinator(
        self, at_ms: float, recover_after_ms: float = 6_000.0
    ) -> "FaultSchedule":
        """An app server dies mid-commit, leaving a dangling transaction.

        The controller runs a probe transaction whose coordinator never
        sends visibilities, then — ``recover_after_ms`` later — dispatches
        two racing recovery agents (§3.2.3) from different data centers
        and records their verdicts."""
        return self._add(
            at_ms, "crash-coordinator", recover_after_ms=float(recover_after_ms)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def horizon_ms(self) -> float:
        """Time of the last scheduled event (0 for an empty schedule)."""
        return max((event.at_ms for event in self.events), default=0.0)

    @property
    def needs_reconfig(self) -> bool:
        """True when the timeline contains membership events —
        :func:`repro.api.run_scenario` then builds the cluster elastic."""
        return any(
            event.action in ("join-dc", "decommission-dc")
            for event in self.events
        )

    def count(self, action: str) -> int:
        return sum(1 for event in self.events if event.action == action)

    def sorted_events(self) -> List[FaultEvent]:
        return sorted(self.events, key=lambda e: (e.at_ms, e.action, e.params))

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "workload": self.workload,
            "master_policy": self.master_policy,
            "settle_ms": self.settle_ms,
            "min_availability": self.min_availability,
            "events": [event.as_dict() for event in self.sorted_events()],
        }


# ----------------------------------------------------------------------
# Named schedules
# ----------------------------------------------------------------------
def _dc_outage(t0: float, d: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "dc-outage",
        description="Figure 8's scenario: one full data-center outage and "
        "recovery (us-east, the DC closest to us-west clients).",
        min_availability=0.8,
    )
    schedule.fail_dc(t0 + 0.30 * d, "us-east")
    schedule.recover_dc(t0 + 0.65 * d, "us-east")
    return schedule


def _rolling_partitions(t0: float, d: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "rolling-partitions",
        description="Successive N-way splits: a 2/3 continental split, an "
        "isolated EU, then pairwise trans-ocean link cuts.",
        min_availability=0.6,
    )
    schedule.partition_groups(
        t0 + 0.15 * d,
        [["us-west", "us-east"], ["eu-west", "ap-southeast", "ap-northeast"]],
    )
    schedule.clear_partition_groups(t0 + 0.35 * d)
    schedule.partition_groups(
        t0 + 0.40 * d,
        [["eu-west"], ["us-west", "us-east", "ap-southeast", "ap-northeast"]],
    )
    schedule.clear_partition_groups(t0 + 0.55 * d)
    schedule.partition_pair(t0 + 0.60 * d, "us-west", "eu-west")
    schedule.partition_pair(t0 + 0.60 * d, "us-east", "ap-northeast")
    schedule.heal_pair(t0 + 0.75 * d, "us-west", "eu-west")
    schedule.heal_pair(t0 + 0.75 * d, "us-east", "ap-northeast")
    return schedule


def _flaky_wan(t0: float, d: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "flaky-wan",
        description="No clean failure: degraded trans-US link (latency, "
        "jitter, loss), a flapping EU link, background loss everywhere.",
        min_availability=0.8,
    )
    schedule.degrade_link(
        t0 + 0.20 * d,
        "us-west",
        "us-east",
        extra_latency_ms=40.0,
        jitter_sigma=0.3,
        drop_rate=0.10,
    )
    schedule.set_drop_rate(t0 + 0.25 * d, 0.02)
    schedule.flap_link(
        t0 + 0.30 * d, "eu-west", "us-east", period_ms=0.075 * d, cycles=4
    )
    schedule.set_drop_rate(t0 + 0.65 * d, 0.0)
    schedule.restore_link(t0 + 0.70 * d, "us-west", "us-east")
    return schedule


def _coordinator_crash(t0: float, d: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "coordinator-crash",
        description="App servers die mid-commit; racing recovery agents "
        "(§3.2.3) must converge every dangling transaction to one outcome. "
        "A master crash rides along to exercise re-election.",
        min_availability=0.9,
    )
    schedule.crash_coordinator(t0 + 0.25 * d, recover_after_ms=0.10 * d)
    schedule.crash_master(t0 + 0.40 * d, dc="us-east")
    schedule.crash_coordinator(t0 + 0.50 * d, recover_after_ms=0.10 * d)
    schedule.restore_masters(t0 + 0.65 * d)
    return schedule


def _follow_the_sun_outage(t0: float, d: float) -> FaultSchedule:
    schedule = FaultSchedule(
        "follow-the-sun-outage",
        description="Geoshift workload under adaptive placement: the DC "
        "currently in daylight — the one mastership is migrating toward — "
        "goes dark mid-migration, then recovers.",
        workload="geoshift",
        master_policy="adaptive",
        min_availability=0.6,
    )
    # With the default rotation the sun sits over us-east during the second
    # phase; fail it while adaptive placement is pulling masters there.
    schedule.fail_dc(t0 + 0.35 * d, "us-east")
    schedule.recover_dc(t0 + 0.60 * d, "us-east")
    return schedule


def _dc_replace(
    t0: float,
    d: float,
    victim: str = "us-east",
    replacement: str = "us-east-2",
    donor: str = "us-west",
) -> FaultSchedule:
    if victim == donor:
        raise ValueError("dc-replace victim cannot be the snapshot donor")
    if replacement in (victim, donor):
        raise ValueError(
            "dc-replace replacement must be a brand-new data center, not "
            "the victim or the donor"
        )
    schedule = FaultSchedule(
        "dc-replace",
        description="Disaster replacement over an elastic cluster: "
        f"{victim} goes dark, is decommissioned (quorums shrink, "
        "masterships evacuate), and a replacement joins via snapshot "
        "bootstrap and is admitted (quorums grow).",
        min_availability=0.5,
    )
    schedule.fail_dc(t0 + 0.15 * d, victim)
    schedule.decommission_dc(t0 + 0.35 * d, victim)
    schedule.join_dc(t0 + 0.50 * d, replacement, like=victim, donor=donor)
    return schedule


_FACTORIES = {
    "dc-outage": _dc_outage,
    "rolling-partitions": _rolling_partitions,
    "flaky-wan": _flaky_wan,
    "coordinator-crash": _coordinator_crash,
    "follow-the-sun-outage": _follow_the_sun_outage,
    "dc-replace": _dc_replace,
}

#: The named schedules, in presentation order.
NAMED_SCHEDULES: Tuple[str, ...] = tuple(_FACTORIES)


def named_schedule(
    name: str,
    start_ms: float = 5_000.0,
    duration_ms: float = 60_000.0,
    **params: object,
) -> FaultSchedule:
    """Build a named schedule scaled to a (start, duration) window.

    ``start_ms`` is typically the warmup length; fault times land at fixed
    fractions of ``duration_ms`` so the scenario shape survives scaling.
    Extra keyword ``params`` parameterize schedules that accept them
    (``dc-replace`` takes ``victim``, ``replacement``, ``donor``).
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown schedule {name!r}; choose from {', '.join(NAMED_SCHEDULES)}"
        )
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if params:
        import inspect

        accepted = set(inspect.signature(factory).parameters) - {"t0", "d"}
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise ValueError(
                f"schedule {name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}"
                + (f"; it accepts {', '.join(sorted(accepted))}" if accepted else "")
            )
    return factory(float(start_ms), float(duration_ms), **params)
