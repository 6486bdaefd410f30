"""The static analyzer analyzing itself: rules, suppressions, ratchet.

Three layers:

* per-rule fixture files (in-memory :class:`SourceFile` trees laid out
  like ``src/repro``) with known violations and known-clean twins;
* the suppression syntax and the baseline ratchet semantics (new finding
  fails, grandfathered passes, fixed finding must leave the baseline);
* end-to-end: ``repro analyze`` on a copy of the real tree exits 0, and
  re-introducing the PR 3 waiter-set iteration defect makes it exit 1
  with DET-set-iter pointing at the exact line.
"""

import json
import pathlib
import shutil
import textwrap

from repro.analysis.engine import (
    Baseline,
    Finding,
    Project,
    SourceFile,
    all_rules,
    analyze_project,
    render_json,
)
from repro.analysis.rules_determinism import DET_SET_ITER, DET_WALLCLOCK
from repro.analysis.rules_handlers import HANDLER_EXHAUSTIVE
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _src(text):
    return textwrap.dedent(text)


def _project(*files):
    return Project(REPO_ROOT, files=list(files))


def _run(rule, *files):
    return sorted(rule.check(_project(*files)))


# ----------------------------------------------------------------------
# DET-set-iter
# ----------------------------------------------------------------------
def test_set_iter_flags_for_loop_over_set():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            def f():
                waiters = {"a", "b"}
                for waiter in waiters:
                    print(waiter)
            """
        ),
    )
    findings = _run(DET_SET_ITER, file)
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "waiters" in findings[0].message


def test_set_iter_accepts_sorted_wrap_and_flags_tuple_materialization():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            def f(pending: set) -> tuple:
                for item in sorted(pending):
                    print(item)
                return tuple(pending)
            """
        ),
    )
    findings = _run(DET_SET_ITER, file)
    assert [f.line for f in findings] == [4]


def test_set_iter_sees_cross_module_attribute_types():
    state = SourceFile(
        "src/repro/storage/rogue_state.py",
        "class S:\n    def __init__(self):\n        self.applied_ids = set()\n",
    )
    user = SourceFile(
        "src/repro/core/rogue_user.py",
        _src(
            """\
            def f(state):
                return tuple(state.applied_ids)
            """
        ),
    )
    findings = _run(DET_SET_ITER, state, user)
    assert [(f.path, f.line) for f in findings] == [("src/repro/core/rogue_user.py", 2)]


_SEND_PER_APPLIED_ID = _src(
    """\
    def push(node, state):
        for option_id in state.record.applied_ids:
            node.send("peer", option_id)
    """
)


def test_set_iter_sees_attributes_that_start_as_a_shared_frozenset():
    """An attribute that starts as a module-level empty frozenset is a set
    even where no ``set()`` is ever assigned to it."""
    state = SourceFile(
        "src/repro/storage/rogue_state.py",
        _src(
            """\
            _NO_IDS = frozenset()

            class S:
                def __init__(self):
                    self.applied_ids = _NO_IDS
            """
        ),
    )
    user = SourceFile("src/repro/core/rogue_user.py", _SEND_PER_APPLIED_ID)
    findings = _run(DET_SET_ITER, state, user)
    assert [(f.path, f.line) for f in findings] == [("src/repro/core/rogue_user.py", 2)]


def test_set_iter_flags_a_send_loop_over_the_real_applied_ids():
    """``Record.applied_ids`` as storage/record.py defines it today: an
    unsorted loop over it in core/ that sends per id is flagged."""
    record = SourceFile(
        "src/repro/storage/record.py",
        (REPO_ROOT / "src/repro/storage/record.py").read_text(),
    )
    user = SourceFile("src/repro/core/rogue_user.py", _SEND_PER_APPLIED_ID)
    findings = _run(DET_SET_ITER, record, user)
    assert [(f.path, f.line) for f in findings] == [("src/repro/core/rogue_user.py", 2)]


def test_set_iter_exempts_order_insensitive_consumers():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            def f(pending: set):
                total = sum(x.cost for x in pending)
                biggest = max(pending)
                count = len(pending)
                twin = set(pending)
                return total, biggest, count, twin
            """
        ),
    )
    assert _run(DET_SET_ITER, file) == []


def test_set_iter_flags_dict_comprehension_over_set():
    file = SourceFile(
        "src/repro/protocols/rogue.py",
        "def f(records: set):\n    return {str(r): 1 for r in records}\n",
    )
    findings = _run(DET_SET_ITER, file)
    assert [f.line for f in findings] == [2]


def test_set_iter_ignores_wallclock_runtime_files():
    file = SourceFile(
        "src/repro/transport/tcp.py",
        "def f(conns: set):\n    for c in conns:\n        c.close()\n",
    )
    assert _run(DET_SET_ITER, file) == []


# ----------------------------------------------------------------------
# DET-wallclock
# ----------------------------------------------------------------------
def test_wallclock_flags_time_and_uuid_and_module_random():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            import random
            import time
            import uuid

            def f():
                return time.time(), uuid.uuid4(), random.random()
            """
        ),
    )
    findings = _run(DET_WALLCLOCK, file)
    assert {f.message.split()[0] for f in findings} == {
        "time.time",
        "uuid.uuid4",
        "random.random",
    }
    assert all(f.line == 6 for f in findings)


def test_wallclock_allows_seeded_random_instances():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            import random

            def f(seed: int):
                rng = random.Random(seed)
                return rng.random()
            """
        ),
    )
    assert _run(DET_WALLCLOCK, file) == []


def test_wallclock_resolves_from_imports_and_aliases():
    file = SourceFile(
        "src/repro/reconfig/rogue.py",
        _src(
            """\
            import time as t
            from datetime import datetime

            def f():
                return t.monotonic(), datetime.now()
            """
        ),
    )
    findings = _run(DET_WALLCLOCK, file)
    assert {f.message.split()[0] for f in findings} == {
        "time.monotonic",
        "datetime.datetime.now",
    }


# ----------------------------------------------------------------------
# HANDLER-exhaustive
# ----------------------------------------------------------------------
def test_handler_rule_flags_sent_message_without_handler():
    file = SourceFile(
        "src/repro/protocols/rogue.py",
        _src(
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class RogueProbe:
                txid: str

            class RogueNode:
                def poke(self):
                    self.send("peer", RogueProbe(txid="t"))
            """
        ),
    )
    findings = _run(HANDLER_EXHAUSTIVE, file)
    assert len(findings) == 1
    assert findings[0].line == 4
    assert "handle_rogue_probe" in findings[0].message


def test_handler_rule_flags_dead_handler():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            class RogueNode:
                def handle_never_sent_thing(self, message, src_id):
                    pass
            """
        ),
    )
    findings = _run(HANDLER_EXHAUSTIVE, file)
    assert len(findings) == 1
    assert findings[0].line == 2
    assert "dead handler" in findings[0].message


def test_handler_rule_clean_when_paired():
    file = SourceFile(
        "src/repro/protocols/rogue.py",
        _src(
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class RogueProbe:
                txid: str

            class RogueNode:
                def poke(self):
                    self.send("peer", RogueProbe(txid="t"))

                def handle_rogue_probe(self, message, src_id):
                    pass
            """
        ),
    )
    assert _run(HANDLER_EXHAUSTIVE, file) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_noqa_suppresses_named_rule_on_that_line():
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            def f(pending: set):
                for item in pending:  # repro: noqa DET-set-iter(order provably irrelevant here)
                    item.clear()
            """
        ),
    )
    assert analyze_project(_project(file), rules=[DET_SET_ITER]) == []


def test_noqa_does_not_suppress_other_rules():
    """A suppression names one rule; a different rule firing on the same
    line is unaffected."""
    file = SourceFile(
        "src/repro/core/rogue.py",
        _src(
            """\
            def f(pending: set):
                for item in pending:  # repro: noqa DET-wallclock(wrong rule id)
                    item.clear()
            """
        ),
    )
    findings = analyze_project(_project(file), rules=[DET_SET_ITER, DET_WALLCLOCK])
    assert [f.rule for f in findings] == ["DET-set-iter"]
    assert findings[0].line == 2


def test_malformed_noqa_is_flagged_and_unsuppressible():
    file = SourceFile(
        "src/repro/core/rogue.py",
        "x = 1  # repro: noqa\n",
    )
    findings = analyze_project(_project(file))
    assert [f.rule for f in findings] == ["NOQA-malformed"]


def test_docstring_mention_of_noqa_is_not_a_suppression():
    file = SourceFile(
        "src/repro/core/rogue.py",
        '"""Docs: write `# repro: noqa` to suppress."""\nx = 1\n',
    )
    assert analyze_project(_project(file)) == []


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
_DEFECT = _src(
    """\
    def f(pending: set):
        for item in pending:
            item.clear()
    """
)


def test_baseline_grandfathers_known_finding():
    file = SourceFile("src/repro/core/rogue.py", _DEFECT)
    project = _project(file)
    findings = analyze_project(project, rules=[DET_SET_ITER])
    assert len(findings) == 1
    baseline = Baseline.from_findings(project, findings)
    new, grandfathered, stale = baseline.apply(project, findings)
    assert (len(new), len(grandfathered), len(stale)) == (0, 1, 0)


def test_baseline_survives_line_drift():
    file = SourceFile("src/repro/core/rogue.py", _DEFECT)
    project = _project(file)
    baseline = Baseline.from_findings(
        project, analyze_project(project, rules=[DET_SET_ITER])
    )
    drifted = SourceFile("src/repro/core/rogue.py", "import os\n\n\n" + _DEFECT)
    drifted_project = _project(drifted)
    findings = analyze_project(drifted_project, rules=[DET_SET_ITER])
    new, grandfathered, stale = baseline.apply(drifted_project, findings)
    assert (len(new), len(grandfathered), len(stale)) == (0, 1, 0)


def test_new_finding_is_not_grandfathered():
    file = SourceFile("src/repro/core/rogue.py", _DEFECT)
    project = _project(file)
    baseline = Baseline.from_findings(
        project, analyze_project(project, rules=[DET_SET_ITER])
    )
    grown = SourceFile(
        "src/repro/core/rogue.py",
        _DEFECT + "\ndef g(other: set):\n    for x in other:\n        x.poke()\n",
    )
    grown_project = _project(grown)
    findings = analyze_project(grown_project, rules=[DET_SET_ITER])
    new, grandfathered, stale = baseline.apply(grown_project, findings)
    assert (len(new), len(grandfathered), len(stale)) == (1, 1, 0)
    assert "other" in new[0].message


def test_fixed_finding_makes_baseline_entry_stale():
    file = SourceFile("src/repro/core/rogue.py", _DEFECT)
    project = _project(file)
    baseline = Baseline.from_findings(
        project, analyze_project(project, rules=[DET_SET_ITER])
    )
    fixed = SourceFile(
        "src/repro/core/rogue.py",
        _DEFECT.replace("in pending:", "in sorted(pending):"),
    )
    fixed_project = _project(fixed)
    findings = analyze_project(fixed_project, rules=[DET_SET_ITER])
    new, grandfathered, stale = baseline.apply(fixed_project, findings)
    assert (len(new), len(grandfathered), len(stale)) == (0, 0, 1)
    assert stale[0]["rule"] == "DET-set-iter"


def test_baseline_round_trips_through_file(tmp_path):
    file = SourceFile("src/repro/core/rogue.py", _DEFECT)
    project = _project(file)
    baseline = Baseline.from_findings(
        project, analyze_project(project, rules=[DET_SET_ITER])
    )
    path = tmp_path / "baseline.json"
    path.write_text(baseline.render(), encoding="utf-8")
    loaded = Baseline.load(path)
    assert loaded.entries == baseline.entries


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_rule_registry_is_id_sorted_and_complete():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert ids == sorted(ids)
    assert set(ids) == {
        "DET-set-iter",
        "DET-wallclock",
        "HANDLER-exhaustive",
        "ISO-sim-free",
        "NOQA-malformed",
        "WIRE-codec",
    }
    for rule in rules:
        assert rule.severity == "error"
        assert rule.autofix_hint


def test_json_output_is_deterministic():
    file = SourceFile("src/repro/core/rogue.py", _DEFECT)
    project = _project(file)
    findings = analyze_project(project, rules=[DET_SET_ITER])
    first = render_json(project, findings)
    second = render_json(project, findings)
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["new"] == 1
    assert payload["findings"][0]["rule"] == "DET-set-iter"
    assert payload["findings"][0]["fingerprint"]


def test_findings_sort_stably():
    a = Finding(path="a.py", line=2, col=1, rule="R-x", message="m")
    b = Finding(path="a.py", line=1, col=1, rule="R-x", message="m")
    assert sorted([a, b]) == [b, a]


# ----------------------------------------------------------------------
# End to end: the real tree, and the PR 3 defect re-introduced
# ----------------------------------------------------------------------
def _copy_tree(tmp_path):
    root = tmp_path / "repo"
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
    return root


def test_analyze_cli_clean_on_real_tree(tmp_path, capsys):
    root = _copy_tree(tmp_path)
    exit_code = main(["analyze", "--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["summary"]["new"] == 0
    assert payload["summary"]["stale_baseline"] == 0


def test_reintroducing_pr3_waiter_defect_fails_at_exact_line(tmp_path, capsys):
    """The acceptance criterion: unsorting the waiter-set walk in
    master.py (the PR 3 defect) must exit 1 with DET-set-iter at the
    exact line of the unsorted iteration."""
    root = _copy_tree(tmp_path)
    master = root / "src" / "repro" / "core" / "master.py"
    source = master.read_text(encoding="utf-8")
    defective = source.replace("for waiter in sorted(waiters):", "for waiter in waiters:")
    assert defective != source, "master.py no longer matches the expected walk"
    master.write_text(defective, encoding="utf-8")
    defect_line = next(
        lineno
        for lineno, text in enumerate(defective.splitlines(), start=1)
        if text.strip() == "for waiter in waiters:"
    )

    exit_code = main(["analyze", "--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    hits = [f for f in payload["findings"] if f["rule"] == "DET-set-iter"]
    assert [(f["path"], f["line"]) for f in hits] == [
        ("src/repro/core/master.py", defect_line)
    ]


def test_write_baseline_then_clean_exit(tmp_path, capsys):
    root = _copy_tree(tmp_path)
    master = root / "src" / "repro" / "core" / "master.py"
    source = master.read_text(encoding="utf-8")
    master.write_text(
        source.replace("for waiter in sorted(waiters):", "for waiter in waiters:"),
        encoding="utf-8",
    )
    assert main(["analyze", "--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    # grandfathered now: reported, but exit 0
    assert main(["analyze", "--root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "[baseline]" in out
    # fixing the defect strands the baseline entry -> exit 1 until removed
    master.write_text(source, encoding="utf-8")
    assert main(["analyze", "--root", str(root)]) == 1
    assert "stale" in capsys.readouterr().out
