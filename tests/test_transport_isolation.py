"""Core protocol code must be transport-neutral.

The AST walk that used to live here is now the ISO-sim-free rule of
:mod:`repro.analysis` (with per-package allowlists covering protocols/,
placement/, reconfig/ and the restricted transport modules, not just
core/).  These tests assert through the analyzer so there is one source
of truth — plus a fixture check that the rule still fires.
"""

import pathlib
import textwrap

import pytest

from repro.analysis.engine import Project, SourceFile
from repro.analysis.rules_isolation import ISO_SIM_FREE

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _findings(project):
    return list(ISO_SIM_FREE.check(project))


def test_rule_covers_the_original_scope():
    """The per-package allowlist map must still restrict everything the
    original test restricted (core/ + transport/base.py)."""
    from repro.analysis.rules_isolation import FORBIDDEN_IMPORTS

    assert "repro.sim" in FORBIDDEN_IMPORTS["src/repro/core/"]
    assert "repro.sim" in FORBIDDEN_IMPORTS["src/repro/transport/base.py"]
    assert "repro.sim" in FORBIDDEN_IMPORTS["src/repro/protocols/"]


def test_rule_covers_the_run_loop():
    """Workloads, the run driver and the checkers run on both transports:
    no ``repro.sim`` import and no ``.sim`` reach in any of them."""
    from repro.analysis.rules_isolation import FORBIDDEN_IMPORTS

    for path in (
        "src/repro/workloads/",
        "src/repro/bench/driver.py",
        "src/repro/db/checkers.py",
    ):
        assert "repro.sim" in FORBIDDEN_IMPORTS[path]


def test_tree_is_isolation_clean():
    """No transport-neutral module imports repro.sim (or reaches a
    simulator through ``.sim``) anywhere in the committed tree."""
    project = Project(REPO_ROOT)
    assert len(project.in_scope(include=("src/repro/core/",))) >= 5
    hits = _findings(project)
    assert not hits, (
        "protocol code must route everything through repro.transport:\n"
        + "\n".join(f"{f.location()}: {f.message}" for f in hits)
    )


def test_rule_fires_on_sim_import_in_core():
    offender = SourceFile(
        "src/repro/core/rogue.py",
        textwrap.dedent(
            """\
            from repro.sim.events import Simulation

            def f(sim):
                return sim.now
            """
        ),
    )
    hits = _findings(Project(REPO_ROOT, files=[offender]))
    assert [(f.line, "from repro.sim" in f.message or "sim" in f.message) for f in hits]
    assert hits[0].line == 1
    assert "transport-neutral" in hits[0].message


def test_rule_fires_on_sim_attribute_access_in_core():
    offender = SourceFile(
        "src/repro/core/rogue.py",
        "class R:\n    def now(self):\n        return self.sim.now\n",
    )
    hits = _findings(Project(REPO_ROOT, files=[offender]))
    assert len(hits) == 1
    assert hits[0].line == 3
    assert ".sim attribute access" in hits[0].message


@pytest.mark.parametrize(
    "path",
    [
        "src/repro/workloads/generator.py",
        "src/repro/bench/driver.py",
        "src/repro/db/checkers.py",
    ],
)
def test_rule_fires_on_a_simulator_handle_in_the_run_loop(path):
    """What workloads/generator.py did until the run loop moved onto the
    Transport verbs: ``sim = self.cluster.sim``."""
    offender = SourceFile(
        path,
        "from repro.sim.core import Simulator\n\n"
        "def drain(cluster, ms):\n"
        "    cluster.sim.run(until=cluster.sim.now + ms)\n",
    )
    hits = _findings(Project(REPO_ROOT, files=[offender]))
    assert [hit.line for hit in hits] == [1, 4, 4]
    assert "transport-neutral" in hits[0].message
    assert ".sim attribute access" in hits[1].message


def test_bench_perf_may_still_read_the_simulator():
    """Only driver.py is restricted under bench/: the rest of the
    package (reporting.py here) may read the simulator."""
    reporting = SourceFile(
        "src/repro/bench/reporting.py", "def f(cluster):\n    return cluster.sim.now\n"
    )
    assert not _findings(Project(REPO_ROOT, files=[reporting]))


def test_sim_backend_itself_is_exempt():
    backend = SourceFile(
        "src/repro/transport/simnet.py",
        "from repro.sim.events import Simulation\n",
    )
    assert not _findings(Project(REPO_ROOT, files=[backend]))
