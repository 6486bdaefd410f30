"""ISO-sim-free: transport-neutral code must not touch the simulator.

Role classes speak only to :class:`repro.transport.base.Transport`, so
the same protocol code runs under the deterministic simulator and over
asyncio TCP.  This generalizes the original
``tests/test_transport_isolation.py`` AST walk into per-package
allowlists: everything transport-neutral forbids ``repro.sim``; the sim
backend, the fault controller (which drives the simulated network), the
cluster builders and the CLI are exempt by construction.  The run loop —
the workloads, the run driver and the checkers — is transport-neutral
too: it advances a run through the ``Transport`` verbs, so the same loop
drives the simulator and a cluster of processes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Tuple

from repro.analysis.engine import Finding, Project, Rule

__all__ = ["ISO_SIM_FREE"]

#: the run loop — it advances a run through the Transport verbs only.
RUN_LOOP = (
    "src/repro/workloads/",
    "src/repro/bench/driver.py",
    "src/repro/db/checkers.py",
)

#: path prefix -> module prefixes its files must not import.  A file is
#: governed by the longest matching prefix, so transport/base.py and
#: transport/codec.py are restricted while the rest of transport/ (the
#: sim backend lives there) is not.
FORBIDDEN_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "src/repro/core/": ("repro.sim",),
    "src/repro/protocols/": ("repro.sim",),
    "src/repro/placement/": ("repro.sim",),
    "src/repro/reconfig/": ("repro.sim",),
    "src/repro/analysis/": ("repro.sim",),
    **dict.fromkeys(RUN_LOOP, ("repro.sim",)),
    "src/repro/transport/base.py": ("repro.sim",),
    "src/repro/transport/codec.py": ("repro.sim",),
    "src/repro/transport/": (),
    "src/repro/faults/": (),  # drives SimulationError/LinkPolicy by design
}

#: paths where even a ``.sim`` attribute access is forbidden: role classes
#: use Node.now/set_timer/future(), the run loop uses the transport's
#: now/schedule/spawn/run/run_until — never a simulator handle.
_NO_SIM_ATTRIBUTE = ("src/repro/core/", *RUN_LOOP)


def _forbidden_for(path: str) -> Tuple[str, ...]:
    best: Tuple[int, Tuple[str, ...]] = (-1, ())
    for prefix, banned in FORBIDDEN_IMPORTS.items():
        if path.startswith(prefix) and len(prefix) > best[0]:
            best = (len(prefix), banned)
    return best[1]


def _module_matches(module: str, banned: Tuple[str, ...]) -> bool:
    return any(module == b or module.startswith(b + ".") for b in banned)


def _check_isolation(project: Project) -> Iterable[Finding]:
    findings: List[Finding] = []
    for file in project.files:
        banned = _forbidden_for(file.path)
        if banned:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if _module_matches(alias.name, banned):
                            findings.append(
                                Finding(
                                    path=file.path,
                                    line=node.lineno,
                                    col=node.col_offset + 1,
                                    rule="ISO-sim-free",
                                    message=(
                                        f"import {alias.name} — this package is "
                                        "transport-neutral; route everything "
                                        "through repro.transport"
                                    ),
                                )
                            )
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if node.level:
                        # relative imports cannot reach repro.sim from a
                        # sibling package without an absolute name; the
                        # banned prefixes are absolute.
                        continue
                    if _module_matches(module, banned):
                        findings.append(
                            Finding(
                                path=file.path,
                                line=node.lineno,
                                col=node.col_offset + 1,
                                rule="ISO-sim-free",
                                message=(
                                    f"from {module} import ... — this package "
                                    "is transport-neutral; route everything "
                                    "through repro.transport"
                                ),
                            )
                        )
        if any(file.path.startswith(p) for p in _NO_SIM_ATTRIBUTE):
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Attribute) and node.attr == "sim":
                    findings.append(
                        Finding(
                            path=file.path,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            rule="ISO-sim-free",
                            message=(
                                ".sim attribute access — role classes use "
                                "Node.now/set_timer/future(), the run loop "
                                "the Transport verbs, never a simulator "
                                "handle"
                            ),
                        )
                    )
    return findings


ISO_SIM_FREE = Rule(
    id="ISO-sim-free",
    severity="error",
    summary="simulator import/handle in transport-neutral code",
    autofix_hint=(
        "move the dependency behind the repro.transport.base.Transport "
        "interface (Node.now, set_timer, future, send)"
    ),
    check=_check_isolation,
)
