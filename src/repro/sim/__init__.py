"""Discrete-event simulation substrate for the MDCC reproduction.

The paper deployed its prototype across five Amazon EC2 data centers.  We do
not have five data centers, so this package provides a deterministic
discrete-event simulator of that environment: a virtual clock, message
delivery over a wide-area latency model, actor-style nodes, and metric
monitors.  All protocol state machines in :mod:`repro.core` and
:mod:`repro.protocols` run *unmodified* above this substrate; only message
transport and time are simulated.

Public surface:

* :class:`repro.sim.core.Simulator` — the event loop and virtual clock.
* :class:`repro.sim.core.Future` — completion tokens used by protocols.
* :class:`repro.sim.network.Network` — WAN message fabric with failure
  injection.
* :class:`repro.sim.network.LatencyModel` — the five-DC RTT matrix.
* :class:`repro.metrics.LatencyRecorder` — percentile/CDF collection
  (re-exported here from :mod:`repro.metrics`).
"""

from repro.metrics import Counter, CounterSet, LatencyRecorder, TimeSeries
from repro.sim.core import Event, Future, SimulationError, Simulator, all_of, any_of
from repro.sim.network import (
    DEFAULT_RTT_MATRIX,
    EC2_REGIONS,
    LatencyModel,
    Network,
    NetworkStats,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "DEFAULT_RTT_MATRIX",
    "EC2_REGIONS",
    "Counter",
    "CounterSet",
    "Event",
    "Future",
    "LatencyModel",
    "LatencyRecorder",
    "Network",
    "NetworkStats",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TimeSeries",
    "all_of",
    "any_of",
]
