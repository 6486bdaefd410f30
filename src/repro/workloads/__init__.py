"""Workloads of the paper's evaluation (§5).

* :mod:`repro.workloads.micro` — the §5.3 micro-benchmark: a buy
  transaction over 3 uniformly random items, each decremented by 1-3
  under a stock ≥ 0 constraint, with hot-spot and master-locality knobs.
* :mod:`repro.workloads.tpcw` — the TPC-W transactional web benchmark
  (database part of the 14 web interactions, write-heavy ordering mix).
* :mod:`repro.workloads.geoshift` — the follow-the-sun workload: the
  dominant write-origin data center rotates over simulated time
  (exercises :mod:`repro.placement`'s adaptive mastership).
* :mod:`repro.workloads.generator` — closed-loop client processes and the
  statistics they produce (latency CDFs, commit/abort counts, time series).
* :mod:`repro.workloads.base` — the :class:`Workload` base class that owns
  the single ``run()`` and the by-name registry (:func:`get_workload`,
  :data:`WORKLOADS`).
"""

from typing import Tuple

from repro.workloads.base import _REGISTRY, Workload, get_workload, register_workload
from repro.workloads.generator import ClientPool, WorkloadStats
from repro.workloads.micro import MicroBenchmark
from repro.workloads.tpcw import TPCWBenchmark, TPCW_MIX
from repro.workloads.geoshift import GeoShiftBenchmark

#: Registered workload names, in presentation order.
WORKLOADS: Tuple[str, ...] = tuple(_REGISTRY)

__all__ = [
    "ClientPool",
    "GeoShiftBenchmark",
    "MicroBenchmark",
    "TPCWBenchmark",
    "TPCW_MIX",
    "WORKLOADS",
    "Workload",
    "WorkloadStats",
    "get_workload",
    "register_workload",
]
