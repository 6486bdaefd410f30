"""`repro bench` determinism, the --compare gate and CLI subcommands.

The bench artifact is the committed perf baseline CI gates against:
every simulated-time number must be byte-identical across runs at the
same seed once the machine-dependent ``wallclock`` block is stripped
(CI asserts exactly that).  Tests use a shrunken measurement window —
same code path, a fraction of the wall time.
"""

import copy
import json

import pytest

from repro.bench.perf import (
    BENCH_SCHEMA,
    compare_to_baseline,
    render_bench_json,
    run_bench,
    strip_wallclock,
)
from repro.cli import main

#: full-size params take ~30s/run; this is the same path in ~2s.
SMALL = {
    "clients": 5,
    "items": 60,
    "warmup_ms": 500.0,
    "measure_ms": 1_500.0,
    "partitions_per_table": 1,
}


@pytest.fixture(scope="module")
def payloads():
    return (
        run_bench(seed=3, overrides=SMALL),
        run_bench(seed=3, overrides=SMALL),
    )


def test_bench_is_byte_identical_across_runs_sans_wallclock(payloads):
    first, second = payloads
    assert render_bench_json(strip_wallclock(first)) == render_bench_json(
        strip_wallclock(second)
    )


def test_bench_payload_shape(payloads):
    payload = payloads[0]
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["seed"] == 3
    assert set(payload["results"]) == {"mdcc", "fast", "multi", "repcommit"}
    assert set(payload["wallclock"]) == {"mdcc", "fast", "multi", "repcommit"}
    for result in payload["results"].values():
        assert result["commits"] > 0
        assert result["events"] > 0
        assert result["commits_per_sim_s"] > 0
        assert result["events_per_sim_s"] > 0
        assert result["messages_per_sim_s"] > 0
        messages = result["messages"]
        assert messages["sent"] >= messages["delivered"] > 0
        assert messages["per_type"]
        assert sum(messages["per_type"].values()) == messages["sent"]
        # the per-type breakdown is part of the deterministic view, so
        # its key order must be canonical.
        assert list(messages["per_type"]) == sorted(messages["per_type"])
    for wall in payload["wallclock"].values():
        assert wall["wall_s"] > 0
        assert wall["events_per_wall_s"] > 0


def test_wallclock_is_excluded_from_identity_view(payloads):
    payload = payloads[0]
    assert "wallclock" in payload
    assert "wallclock" not in strip_wallclock(payload)


def test_bench_differs_across_seeds():
    first = run_bench(seed=3, overrides=SMALL)
    second = run_bench(seed=4, overrides=SMALL)
    assert strip_wallclock(first) != strip_wallclock(second)


def test_bench_renders_sorted_and_newline_terminated(payloads):
    rendered = render_bench_json(payloads[0])
    assert rendered.endswith("\n")
    assert rendered == json.dumps(json.loads(rendered), indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# --compare gate
# ----------------------------------------------------------------------
def test_compare_passes_against_itself(payloads):
    # The wallclock block is advisory: a host half as fast still passes.
    current = copy.deepcopy(payloads[1])
    for wall in current["wallclock"].values():
        wall["events_per_wall_s"] *= 0.5
    assert compare_to_baseline(current, payloads[0]) == []


def test_compare_fails_on_deterministic_drift(payloads):
    baseline = copy.deepcopy(payloads[0])
    baseline["results"]["mdcc"]["commits"] += 1
    failures = compare_to_baseline(payloads[1], baseline)
    assert failures
    assert any("deterministic drift" in f for f in failures)


def test_compare_fails_on_schema_mismatch(payloads):
    baseline = copy.deepcopy(payloads[0])
    baseline["schema"] = "bench_sim_core/v1"
    failures = compare_to_baseline(payloads[1], baseline)
    assert failures
    assert any("schema mismatch" in f for f in failures)


def test_bench_cli_writes_artifact_and_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_sim_core.json"
    code = main(
        ["bench", "--seed", "3", "--output", str(out), "--measure-s", "1.0"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["params"]["measure_ms"] == 1_000.0
    # gate a rerun against the artifact we just wrote: must pass
    rerun = tmp_path / "rerun.json"
    code = main(
        [
            "bench",
            "--seed",
            "3",
            "--output",
            str(rerun),
            "--measure-s",
            "1.0",
            "--compare",
            str(out),
        ]
    )
    assert code == 0


def test_bench_cli_compare_exits_nonzero_on_drift(tmp_path, capsys):
    out = tmp_path / "baseline.json"
    assert (
        main(["bench", "--seed", "3", "--output", str(out), "--measure-s", "1.0"])
        == 0
    )
    baseline = json.loads(out.read_text())
    baseline["results"]["mdcc"]["commits"] += 1
    out.write_text(json.dumps(baseline))
    code = main(
        [
            "bench",
            "--seed",
            "3",
            "--output",
            "-",
            "--measure-s",
            "1.0",
            "--compare",
            str(out),
        ]
    )
    assert code == 1


def test_topology_cli_writes_file(tmp_path, capsys):
    out = tmp_path / "topo.json"
    code = main(
        [
            "topology",
            "--out",
            str(out),
            "--datacenters",
            "us-west,us-east,eu-west",
            "--base-port",
            "7900",
            "--items",
            "25",
        ]
    )
    assert code == 0
    spec = json.loads(out.read_text())
    assert spec["datacenters"] == ["us-west", "us-east", "eu-west"]
    assert len(spec["nodes"]) == 3
    assert spec["workload"]["items"] == 25
