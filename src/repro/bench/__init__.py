"""Running experiments and reporting them (the paper's §5).

* :mod:`repro.bench.driver` — the one run driver: a cluster, a workload
  and an optional fault schedule in, one :class:`RunResult` out.
* :mod:`repro.bench.reporting` — text tables and CDF summaries comparable
  with the paper's plots, persisted under ``benchmarks/results/``.

Speed is measured outside the package, by ``perf/run.py``; the exact
simulated counts of a fixed micro run are pinned by
``tests/test_run_golden.py::test_sim_core_counts``.
"""

from repro.bench.driver import RunResult, run
from repro.bench.reporting import (
    cdf_table,
    format_table,
    save_results,
    shape_check,
)

__all__ = [
    "RunResult",
    "cdf_table",
    "format_table",
    "run",
    "save_results",
    "shape_check",
]
