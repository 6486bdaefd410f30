"""The follow-the-sun workload: a write hotspot that orbits the planet.

The paper's evaluation fixes each client in one data center for the whole
run, which is why master locality (Figure 7) could be studied only as a
static knob.  Real multi-DC services see something the static knob cannot
express: *diurnal* load.  Users wake up region by region, so the dominant
write-origin data center rotates — Tokyo's evening peak hands off to
Europe's morning, which hands off to the US.

:class:`GeoShiftBenchmark` models that: clients live in all five EC2
regions, but only the region currently "in daylight" runs at full
intensity; the others issue a trickle of off-peak traffic.  Every
``phase_ms`` of simulated time the sun advances to the next region in
``rotation``.  All transactions draw keys from the same shared item table
(a global catalogue), so a record's *dominant write origin* rotates while
its contents stay put — exactly the scenario where static hash placement
pays a wide-area master detour forever and adaptive placement
(:mod:`repro.placement`) re-homes mastership behind the sun.

The schema, population and buy transaction are inherited unchanged from
the §5.3 micro-benchmark (:class:`~repro.workloads.micro.MicroBenchmark`
with uniform key selection), so results compare directly with Figures
5-7; only the *client activity gate* is new.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.workloads.base import register_workload
from repro.workloads.micro import MicroBenchmark

__all__ = ["GeoShiftBenchmark"]


@register_workload
class GeoShiftBenchmark(MicroBenchmark):
    """The micro-benchmark driven by a rotating client population.

    Args:
        num_items: size of the shared item table (every item is "hot" for
            the region in daylight — the hotspot is *where writes come
            from*, not which keys they touch).
        phase_ms: how long the sun stays over one region.
        rotation: the region order the sun follows (default: the
            cluster's data centers in west-to-east paper order).
        offpeak_activity: probability that an off-peak client wakes and
            issues a transaction when it checks in (night-time traffic).
        offpeak_pause_ms: how long an idle off-peak client sleeps between
            checks.  Pauses happen outside latency measurement.
    """

    name = "geoshift"
    summary = "follow-the-sun: the dominant write-origin DC rotates"
    spec_knobs = ("phase_ms",)
    #: shorter than a typical phase, so the write-origin signal turns
    #: over well before the sun does.
    tracker_halflife_ms = 4_000.0

    def __init__(
        self,
        num_items: int = 200,
        items_per_tx: int = 3,
        min_delta: int = 1,
        max_delta: int = 3,
        min_stock: int = 500,
        max_stock: int = 1_000,
        phase_ms: float = 20_000.0,
        rotation: Optional[Sequence[str]] = None,
        offpeak_activity: float = 0.05,
        offpeak_pause_ms: float = 400.0,
        read_before_buy: bool = True,
    ) -> None:
        if phase_ms <= 0:
            raise ValueError("phase_ms must be positive")
        if not 0 <= offpeak_activity <= 1:
            raise ValueError("offpeak_activity must be in [0, 1]")
        if offpeak_pause_ms <= 0:
            raise ValueError("offpeak_pause_ms must be positive")
        super().__init__(
            num_items=num_items,
            items_per_tx=items_per_tx,
            min_delta=min_delta,
            max_delta=max_delta,
            min_stock=min_stock,
            max_stock=max_stock,
            read_before_buy=read_before_buy,
        )
        self.phase_ms = phase_ms
        self.rotation: Optional[Tuple[str, ...]] = (
            tuple(rotation) if rotation is not None else None
        )
        self.offpeak_activity = offpeak_activity
        self.offpeak_pause_ms = offpeak_pause_ms

    # ------------------------------------------------------------------
    # The sun
    # ------------------------------------------------------------------
    def active_dc(self, now: float) -> str:
        """The region in daylight at simulated time ``now``."""
        if self.rotation is None:
            raise ValueError("rotation unset; call populate() or pass one")
        return self.rotation[int(now // self.phase_ms) % len(self.rotation)]

    def admission(self, client, rng, now: float):
        """ClientPool gate: full speed in daylight, a trickle at night."""
        if client.dc == self.active_dc(now):
            return 0
        if rng.random() < self.offpeak_activity:
            return 0
        return self.offpeak_pause_ms

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def populate(self, cluster) -> None:
        super().populate(cluster)
        if self.rotation is None:
            self.rotation = tuple(cluster.placement.datacenters)
