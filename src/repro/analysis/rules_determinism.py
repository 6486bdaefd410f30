"""DET-set-iter and DET-wallclock: the nondeterminism defect classes.

Both PR 3 post-merge bugs were hash-salted set iteration reordering
draws from the shared RNG — a class that is statically detectable.
These rules run over everything that feeds the deterministic simulated
trajectory; only the wall-clock TCP runtime (``transport/tcp.py``,
``transport/runner.py``) is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis import astutil
from repro.analysis.engine import Finding, Project, Rule

__all__ = ["DET_SET_ITER", "DET_WALLCLOCK"]

#: the wall-clock runtime: real sockets, real time, real process reaping.
_WALLCLOCK_RUNTIME = (
    "src/repro/transport/tcp.py",
    "src/repro/transport/runner.py",
)

#: callables whose result does not depend on iteration order — a
#: comprehension that is the sole argument of one of these may walk a set.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)

#: consumers that materialize (or expose) iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


def _check_set_iter(project: Project) -> Iterable[Finding]:
    files = project.in_scope(exclude=_WALLCLOCK_RUNTIME)
    attrs = astutil.set_typed_attrs(project, project.files)
    findings: List[Finding] = []
    for file in files:
        names = astutil.set_typed_names(file, attrs)
        exempt_comprehensions: Set[int] = set()
        for node in ast.walk(file.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE
            ):
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        exempt_comprehensions.add(id(arg))
        for node in ast.walk(file.tree):
            sites: List[Tuple[ast.AST, ast.expr]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append((node, node.iter))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # SetComp output is itself unordered — building a set from
                # a set is order-insensitive.
                if id(node) not in exempt_comprehensions:
                    sites.extend((node, gen.iter) for gen in node.generators)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_CALLS
                    and node.args
                ):
                    sites.append((node, node.args[0]))
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                ):
                    sites.append((node, node.args[0]))
            for site, iter_expr in sites:
                if astutil.is_set_expr(iter_expr, names, attrs):
                    findings.append(
                        Finding(
                            path=file.path,
                            line=iter_expr.lineno,
                            col=iter_expr.col_offset + 1,
                            rule="DET-set-iter",
                            message=(
                                f"iteration over set-typed "
                                f"{ast.unparse(iter_expr)!r} follows salted "
                                "hash order — on a path that feeds the shared "
                                "RNG or a wire payload this differs per "
                                "interpreter (PYTHONHASHSEED)"
                            ),
                        )
                    )
    return findings


DET_SET_ITER = Rule(
    id="DET-set-iter",
    severity="error",
    summary="order-sensitive iteration over a set/frozenset",
    autofix_hint="wrap the iterable in sorted(...) (key= for unorderable elements)",
    check=_check_set_iter,
)


# ----------------------------------------------------------------------
# DET-wallclock
# ----------------------------------------------------------------------
#: exact qualified names that read the wall clock or OS entropy.
_BANNED_EXACT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getrandom",
    }
)

#: module prefixes banned wholesale (allowlist per prefix): the global
#: ``random`` module draws from interpreter-global state — protocol code
#: must draw from the cluster's seeded ``random.Random`` streams.
_BANNED_PREFIXES = {
    "random.": frozenset({"Random"}),
    "secrets.": frozenset(),
}


def _banned(qualified: str) -> bool:
    if qualified in _BANNED_EXACT:
        return True
    for prefix, allowed in _BANNED_PREFIXES.items():
        if qualified.startswith(prefix):
            member = qualified[len(prefix):].split(".", 1)[0]
            return member not in allowed
    return False


def _check_wallclock(project: Project) -> Iterable[Finding]:
    findings: List[Finding] = []
    for file in project.in_scope(exclude=_WALLCLOCK_RUNTIME):
        aliases = astutil.import_aliases(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            dotted = astutil.dotted_name(node)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            resolved = aliases.get(head)
            if resolved is None:
                continue
            qualified = resolved + ("." + rest if rest else "")
            if not _banned(qualified):
                continue
            # flag the outermost chain once, not every sub-attribute
            if isinstance(node, ast.Name) and "." in qualified and not rest:
                # a bare module alias reference (e.g. ``import time; time``)
                # only matters once dereferenced — skip.
                if qualified not in _BANNED_EXACT and not any(
                    qualified.startswith(p) for p in _BANNED_PREFIXES
                ):
                    continue
            findings.append(
                Finding(
                    path=file.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule="DET-wallclock",
                    message=(
                        f"{qualified} reads the wall clock / OS entropy — "
                        "the simulated clock and the cluster's seeded RNG "
                        "streams rule here (transport.now, Node.now, "
                        "RngRegistry)"
                    ),
                )
            )
    # the outermost-chain dedup: an Attribute chain like
    # ``datetime.datetime.now`` visits nested Attribute/Name nodes too;
    # keep only the longest match per (line, col) prefix family.
    deduped = {}
    for finding in findings:
        key = (finding.path, finding.line, finding.col)
        current = deduped.get(key)
        if current is None or len(finding.message) > len(current.message):
            deduped[key] = finding
    return list(deduped.values())


DET_WALLCLOCK = Rule(
    id="DET-wallclock",
    severity="error",
    summary="wall-clock/entropy primitive where the simulated clock rules",
    autofix_hint=(
        "use transport.now / Node.now for time and the cluster's seeded "
        "RngRegistry streams for randomness"
    ),
    check=_check_wallclock,
)
