"""Tests of the outside-in tracer (``python3 -m pytest perf -q``).

Kept under ``perf/`` — outside tier-1's ``testpaths`` — because they test
the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Target, Tracer  # noqa: E402

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
HERE = __name__


# --- a synthetic program ------------------------------------------------
def _spin(ms: float) -> None:
    deadline = time.perf_counter() + ms / 1e3
    while time.perf_counter() < deadline:
        pass


class Loop:
    def run(self, inner: "Inner") -> int:
        _spin(2)
        total = inner.work(3) + inner.work(2)
        _spin(1)
        return total


class Inner:
    def work(self, depth: int) -> int:
        _spin(1)
        return Leaf.encode([depth] * depth) + self.helper()

    def helper(self) -> int:
        _spin(1)
        return 1


class Leaf:
    @staticmethod
    def encode(tree) -> int:
        """Recursive, like a tree encoder."""
        if isinstance(tree, list):
            return sum(Leaf.encode(item) for item in tree)
        return 1


class Timers:
    def schedule(self, delay, callback, *args):
        return (delay, callback, args)


TARGETS = [
    Target(f"{HERE}:Loop.run", "loop/run"),
    Target(f"{HERE}:Inner.work", "inner/work"),
    Target(f"{HERE}:Inner.helper", "inner/helper", kind="mark"),
    Target(f"{HERE}:Leaf.encode", "leaf/encode"),
]


def test_nested_self_times_sum_to_the_root():
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert Loop().run(Inner()) == 3 + 2 + 2
    finally:
        tracer.uninstall()
    table = tracer.table()
    root = table["loop/run"]
    assert root["calls"] == 1 and table["inner/work"]["calls"] == 2
    # The recursive encoder costs one span per outermost call.
    assert table["leaf/encode"]["calls"] == 2
    assert sum(row["self_ns"] for row in table.values()) == root["total_ns"]
    # Self time excludes children: run spins 3 ms itself, work 1 ms each.
    assert 2.5e6 < root["self_ns"] < root["total_ns"]
    assert root["total_ns"] >= 7e6


def test_spans_record_parents_until_the_transaction_quota():
    tracer = Tracer(keep_transactions=1)
    tracer.install(TARGETS)
    try:
        Loop().run(Inner())
    finally:
        tracer.uninstall()
    # helper is the "mark": after its first call full spans stop, so the
    # second work() is in the ledger but not in the span list.
    names = [span["name"] for span in tracer.span_rows()]
    assert names.count("inner/helper") == 1 and tracer.transactions == 2
    by_id = {span["id"]: span for span in tracer.span_rows()}
    helper = next(s for s in by_id.values() if s["name"] == "inner/helper")
    work = by_id[helper["parent"]]
    assert work["name"] == "inner/work"
    assert work["start_ns"] <= helper["start_ns"] <= helper["end_ns"] <= work["end_ns"]
    assert tracer.table()["inner/work"]["calls"] == 2


def test_uninstall_restores_the_original_attributes():
    before = {
        "run": Loop.__dict__["run"],
        "work": Inner.__dict__["work"],
        "encode": Leaf.__dict__["encode"],
    }
    tracer = Tracer()
    tracer.install(TARGETS)
    assert Loop.__dict__["run"] is not before["run"]
    assert isinstance(Leaf.__dict__["encode"], staticmethod)
    tracer.uninstall()
    assert Loop.__dict__["run"] is before["run"]
    assert Inner.__dict__["work"] is before["work"]
    assert Leaf.__dict__["encode"] is before["encode"]


def test_timer_targets_wrap_the_callback_and_inactive_passes_through():
    tracer = Tracer()
    tracer.install(
        [Target(f"{HERE}:Timers.schedule", lambda args: "cb/timer", kind="timer")]
    )
    try:
        fired = []
        _delay, callback, args = Timers().schedule(5.0, fired.append, "x")
        callback(*args)
        tracer.active = False
        _delay, raw, args = Timers().schedule(5.0, fired.append, "y")
        raw(*args)
    finally:
        tracer.uninstall()
    assert fired == ["x", "y"]
    assert tracer.table()["cb/timer"]["calls"] == 1


def test_a_stale_target_is_refused():
    tracer = Tracer()
    try:
        tracer.install([Target(f"{HERE}:Loop.no_such_method", "x")])
    except AttributeError:
        pass
    else:
        raise AssertionError("a stale trace target must not install silently")
    finally:
        tracer.uninstall()


# --- against the program --------------------------------------------------
def _rep(traced: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(PERF_DIR, "rep.py"),
            "--workload", "sim_micro_fast",
            "--seed", "11",
            "--traced", str(traced),
        ],  # fmt: skip
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracing_the_simulator_is_observer_effect_free():
    plain, traced = _rep(0), _rep(1)
    (plain_region,), (traced_region,) = plain["regions"], traced["regions"]
    for field in ("commits", "aborts", "latency_ms"):
        assert plain_region[field] == traced_region[field], field
    assert plain["counts"] == traced["counts"]
    assert plain["counts"]["events"] > 0 and plain["counts"]["messages"] > 0
    table = traced["trace"]["table"]
    # One root span covers the timed region, so the ledger sums to it
    # (the host-speed samples taken inside are not the region's time).
    attributed = sum(
        row["self_ns"] for name, row in table.items() if not name.startswith("hostspeed/")
    )
    region_ns = traced_region["raw_wall_s"] * 1e9
    assert abs(attributed - region_ns) < 0.05 * region_ns
    assert table["sim.network/send"]["calls"] == plain["counts"]["messages"]
