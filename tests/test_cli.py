"""Tests for the command-line interface."""

import argparse
import ast
import dataclasses
import json
import pathlib
import re

import pytest

import repro
from repro import cli
from repro.api import ClusterSpec, ScenarioSpec
from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ("--clients", "5", "--items", "100", "--warmup-s", "1", "--measure-s", "4")


class TestRun:
    def test_run_mdcc_micro(self, capsys):
        code, out = run_cli(capsys, "run", "--protocol", "mdcc", *SMALL)
        assert code == 0
        assert "mdcc" in out
        assert "clean" in out

    def test_run_json_output(self, capsys):
        code, out = run_cli(capsys, "run", "--protocol", "qw3", "--json", *SMALL)
        assert code == 0
        payload = json.loads(out)
        assert payload["protocol"] == "qw3"
        assert payload["commits"] > 0
        assert payload["median_ms"] > 0

    def test_tpcw_run(self, capsys):
        code, out = run_cli(
            capsys, "run", "--protocol", "2pc", "--workload", "tpcw", "--json", *SMALL
        )
        assert code == 0
        assert json.loads(out)["commits"] > 0

    def test_run_with_hotspot(self, capsys):
        code, out = run_cli(
            capsys, "run", "--protocol", "mdcc", "--hotspot", "0.1", "--json", *SMALL
        )
        assert code == 0
        assert json.loads(out)["commits"] > 0

    def test_run_with_dc_failure(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--protocol",
            "mdcc",
            "--fail-dc",
            "us-east",
            "--fail-at-s",
            "2",
            "--json",
            *SMALL,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["commits"] > 0  # commits continue across the outage

    def test_hotspot_rejected_for_tpcw(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "tpcw", "--hotspot", "0.1", *SMALL])

    def test_adaptive_policy_flag(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--protocol",
            "mdcc",
            "--gamma-policy",
            "adaptive",
            "--json",
            *SMALL,
        )
        assert code == 0
        assert json.loads(out)["constraint_violations"] == 0


class TestCompare:
    def test_compare_two_protocols(self, capsys):
        code, out = run_cli(
            capsys, "compare", "--protocols", "mdcc,2pc", "--json", *SMALL
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["protocol"] for r in rows] == ["mdcc", "2pc"]
        # The headline result holds even at toy scale.
        assert rows[0]["median_ms"] < rows[1]["median_ms"]

    def test_compare_table_output(self, capsys):
        code, out = run_cli(capsys, "compare", "--protocols", "qw3,qw4", *SMALL)
        assert code == 0
        assert "qw3" in out and "qw4" in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--protocols", "mdcc,spanner", *SMALL])


class TestList:
    def test_list_table(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in (
            "mdcc",
            "megastore",
            "geoshift",
            "adaptive",
            "fixed:<dc>",
            "dc-outage",
        ):
            assert name in out

    def test_list_json(self, capsys):
        code, out = run_cli(capsys, "list", "--json")
        assert code == 0
        catalogue = json.loads(out)
        assert set(catalogue) == {
            "protocols",
            "workloads",
            "master_policies",
            "chaos_schedules",
        }
        assert "multi" in catalogue["protocols"]
        assert "geoshift" in catalogue["workloads"]
        assert "adaptive" in catalogue["master_policies"]
        assert "flaky-wan" in catalogue["chaos_schedules"]


CHAOS_SMALL = (
    "--clients", "5",
    "--items", "100",
    "--warmup-s", "2",
    "--measure-s", "12",
    "--bucket-s", "3",
)


class TestChaos:
    def test_chaos_dc_outage_json_verdict(self, capsys):
        code, out = run_cli(capsys, "chaos", "dc-outage", *CHAOS_SMALL)
        assert code == 0  # exit 0 == invariants clean
        payload = json.loads(out)
        assert payload["schedule"] == "dc-outage"
        assert payload["variant"] == "mdcc"
        assert payload["commits"] > 0
        assert payload["invariants"]["clean"] is True
        # The timeline covers the whole measurement window, empty buckets
        # included (12s / 3s buckets).
        assert len(payload["timeline"]) == 4
        # The outage only left replicas behind: the anti-entropy CatchUps
        # repair them, and no transaction needs Paxos recovery.
        repair = payload["repair"]
        assert set(repair) == {
            "catch_ups_sent", "visibilities_redriven",
            "recoveries_triggered", "recoveries_started",
        }
        assert repair["catch_ups_sent"] > 0
        assert repair["recoveries_started"] == 0

    def test_chaos_deterministic_across_runs(self, capsys):
        code_a, out_a = run_cli(
            capsys, "chaos", "dc-outage", "--variant", "multi", "--seed", "7",
            *CHAOS_SMALL,
        )
        code_b, out_b = run_cli(
            capsys, "chaos", "dc-outage", "--variant", "multi", "--seed", "7",
            *CHAOS_SMALL,
        )
        assert code_a == code_b == 0
        assert out_a == out_b  # identical JSON, byte for byte

    def test_chaos_deterministic_across_processes(self):
        """Same seed, different interpreters => byte-identical JSON.

        In-process double runs share one PYTHONHASHSEED, so they cannot
        catch hash-order nondeterminism (e.g. iterating a set of waiter
        ids while broadcasting — send order decides which latency-jitter
        draw each message gets).  Running the CLI under two *different*
        hash seeds does.  coordinator-crash is the schedule that fans an
        OptionOutcome out to two racing recovery agents at one instant."""
        import os
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for hashseed in ("1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "chaos",
                 "coordinator-crash", "--seed", "7", *CHAOS_SMALL],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        # The racy path actually ran: recovery agents decided outcomes.
        assert payload["recovery_outcomes"]

    def test_chaos_seed_changes_output(self, capsys):
        _, out_a = run_cli(capsys, "chaos", "flaky-wan", "--seed", "1", *CHAOS_SMALL)
        _, out_b = run_cli(capsys, "chaos", "flaky-wan", "--seed", "2", *CHAOS_SMALL)
        assert json.loads(out_a)["commits"] != json.loads(out_b)["commits"]

    def test_chaos_events_flag_includes_log(self, capsys):
        code, out = run_cli(
            capsys, "chaos", "dc-outage", "--events", *CHAOS_SMALL
        )
        assert code == 0
        events = json.loads(out)["chaos_events"]
        assert isinstance(events, list)
        assert any(e["event"] == "dc-failed" for e in events)
        assert any(e["event"] == "dc-recovered" for e in events)

    def test_chaos_unknown_schedule_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "meteor-strike", *CHAOS_SMALL])


class TestMasterPolicy:
    def test_geoshift_adaptive_run(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--protocol",
            "multi",
            "--workload",
            "geoshift",
            "--master-policy",
            "adaptive",
            "--phase-s",
            "2",
            "--json",
            *SMALL,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["master_policy"] == "adaptive"
        assert payload["commits"] > 0

    def test_fixed_policy_passthrough(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--protocol",
            "multi",
            "--master-policy",
            "fixed:us-east",
            "--json",
            *SMALL,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["master_policy"] == "fixed:us-east"
        assert payload["commits"] > 0

    def test_adaptive_rejected_for_non_mdcc_protocol(self):
        with pytest.raises(SystemExit):
            main(
                ["run", "--protocol", "2pc", "--master-policy", "adaptive", *SMALL]
            )

    def test_unknown_master_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--master-policy", "round-robin", *SMALL])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "mdcc"
        assert args.workload == "micro"
        assert args.gamma_policy == "static"
        assert args.master_policy == "hash"


RECONFIG_SMALL = (
    "--clients", "6",
    "--items", "80",
    "--warmup-s", "2",
    "--measure-s", "16",
    "--bucket-s", "4",
    "--datacenters", "us-west,us-east,eu-west",
)


class TestReconfig:
    def test_reconfig_dc_replace_verdict(self, capsys):
        code, out = run_cli(capsys, "reconfig", *RECONFIG_SMALL)
        assert code == 0  # clean invariants AND replacement admitted
        payload = json.loads(out)
        assert payload["schedule"] == "dc-replace"
        assert payload["replacement_admitted"] is True
        membership = payload["membership"]
        assert membership["epoch"] == 2
        assert membership["datacenters"] == ["us-west", "eu-west", "us-east-2"]
        assert membership["quorums"] == {"n": 3, "classic": 2, "fast": 3}
        assert payload["invariants"]["clean"] is True
        assert payload["commits"] > 0

    def test_reconfig_membership_history_ordered(self, capsys):
        code, out = run_cli(capsys, "reconfig", *RECONFIG_SMALL)
        assert code == 0
        history = json.loads(out)["membership"]["history"]
        assert [(h["event"], h["dc"]) for h in history] == [
            ("retired", "us-east"),
            ("join-started", "us-east-2"),
            ("admitted", "us-east-2"),
        ]

    def test_reconfig_deterministic_across_runs(self, capsys):
        code_a, out_a = run_cli(capsys, "reconfig", "--seed", "9", *RECONFIG_SMALL)
        code_b, out_b = run_cli(capsys, "reconfig", "--seed", "9", *RECONFIG_SMALL)
        assert code_a == code_b == 0
        assert out_a == out_b  # identical JSON, byte for byte

    def test_reconfig_seed_changes_output(self, capsys):
        """The seed reaches the run: the verdicts differ beyond the fields
        that echo the seed back.  (Closed-loop clients on this small
        cluster commit ~210 transactions either way, so two seeds may
        land on the same commit count; the latencies still differ.)"""
        _, out_a = run_cli(capsys, "reconfig", "--seed", "1", *RECONFIG_SMALL)
        _, out_b = run_cli(capsys, "reconfig", "--seed", "2", *RECONFIG_SMALL)

        def trajectory(out):
            payload = json.loads(out)
            del payload["seed"], payload["spec"]
            return payload

        assert trajectory(out_a) != trajectory(out_b)

    def test_reconfig_rejects_bad_membership_args(self):
        with pytest.raises(SystemExit):
            main(["reconfig", "--victim", "mars", *RECONFIG_SMALL])
        with pytest.raises(SystemExit):
            # the replacement is already a member
            main(["reconfig", "--replacement", "eu-west", *RECONFIG_SMALL])
        with pytest.raises(SystemExit):
            # the donor is the victim
            main(["reconfig", "--donor", "us-east", *RECONFIG_SMALL])
        with pytest.raises(SystemExit):
            # unknown DC in the membership list
            main(["reconfig", "--datacenters", "us-west,atlantis"])
        with pytest.raises(SystemExit):
            # the victim hosts the reconfig control plane (first DC):
            # failing it would stall the membership operations themselves
            # and quietly invalidate the scenario.
            main(["reconfig", "--victim", "us-west", *RECONFIG_SMALL])

    def test_chaos_accepts_dc_replace_schedule(self, capsys):
        # The named schedule is also replayable through the generic chaos
        # subcommand (the harness auto-builds the cluster elastic).
        code, out = run_cli(
            capsys, "chaos", "dc-replace", "--clients", "5", "--items", "80",
            "--warmup-s", "2", "--measure-s", "16", "--bucket-s", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["membership"]["epoch"] == 2


class TestSeedPlumbing:
    """--seed reaches every experiment-running subcommand and is honored."""

    def test_every_experiment_subcommand_accepts_seed(self):
        parser = build_parser()
        assert parser.parse_args(["run", "--seed", "9"]).seed == 9
        assert parser.parse_args(["compare", "--seed", "9"]).seed == 9
        assert parser.parse_args(["chaos", "dc-outage", "--seed", "9"]).seed == 9
        assert parser.parse_args(["reconfig", "--seed", "9"]).seed == 9

    def test_run_deterministic_across_runs(self, capsys):
        code_a, out_a = run_cli(
            capsys, "run", "--protocol", "mdcc", "--json", "--seed", "5", *SMALL
        )
        code_b, out_b = run_cli(
            capsys, "run", "--protocol", "mdcc", "--json", "--seed", "5", *SMALL
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_run_seed_changes_output(self, capsys):
        _, out_a = run_cli(
            capsys, "run", "--protocol", "mdcc", "--json", "--seed", "1", *SMALL
        )
        _, out_b = run_cli(
            capsys, "run", "--protocol", "mdcc", "--json", "--seed", "2", *SMALL
        )
        assert out_a != out_b

    def test_compare_deterministic_across_runs(self, capsys):
        code_a, out_a = run_cli(
            capsys, "compare", "--protocols", "mdcc,qw3", "--json", "--seed", "3",
            *SMALL,
        )
        code_b, out_b = run_cli(
            capsys, "compare", "--protocols", "mdcc,qw3", "--json", "--seed", "3",
            *SMALL,
        )
        assert code_a == code_b == 0
        assert out_a == out_b


class _Captured(Exception):
    """Raised in place of running the spec the CLI built."""


class TestOneFrontDoor:
    """The rule ``cli.py`` states, kept by a machine: a flag is a spec
    field, and what may run is decided once, by the spec — the CLI keeps
    no default and no validator of its own beside the dataclasses'."""

    #: every (subcommand, option) pair the CLI offers.
    OPTIONS = {
        "analyze": "--baseline --format --root --write-baseline",
        "chaos": "--bucket-s --clients --events --items --master-policy --measure-s "
        "--seed --trace --variant --warmup-s --workload schedule",
        "compare": "--batch-ms --clients --fail-at-s --fail-dc --gamma-policy --hotspot "
        "--items --json --locality --master-policy --measure-s --no-audit "
        "--no-demarcation --phase-s --protocols --seed --warmup-s --workload",
        "list": "--json",
        "reconfig": "--bucket-s --clients --datacenters --donor --events --items "
        "--measure-s --replacement --seed --trace --variant --victim --warmup-s "
        "--workload",
        "run": "--batch-ms --clients --fail-at-s --fail-dc --gamma-policy --hotspot "
        "--items --json --locality --master-policy --measure-s --no-audit "
        "--no-demarcation --phase-s --protocol --seed --spawn-servers --spec "
        "--topology --trace --transport --warmup-s --workload",
        "serve": "--node --topology",
        "topology": "--base-port --codec --datacenters --items --out --partitions "
        "--protocol --seed",
        "trace": "--batch-ms --clients --explain --fail-at-s --fail-dc --gamma-policy "
        "--hotspot --items --locality --master-policy --measure-s --no-audit "
        "--no-demarcation --out --phase-s --protocol --schedule --seed --warmup-s "
        "--workload",
    }

    #: the only defaults a subcommand states instead of the dataclass's.
    CHAOS_CELL = {"workload": None, "clients": 20, "items": 300, "measure_s": 60.0, "seed": 7}
    STATED = {
        **{(sub, "master_policy"): "hash" for sub in ("run", "compare", "trace")},
        **{("chaos", dest): value for dest, value in CHAOS_CELL.items()},
        **{("reconfig", dest): value for dest, value in CHAOS_CELL.items()},
        ("reconfig", "victim"): "us-east",
        ("reconfig", "replacement"): "us-east-2",
        ("reconfig", "donor"): "us-west",
        # not an experiment, but its flags carry spec-field names:
        ("topology", "datacenters"): ("us-west", "us-east", "eu-west"),
        ("topology", "partitions_per_table"): 1,
        ("topology", "items"): 200,
    }

    @staticmethod
    def _options():
        """(subcommand, action) for every option of every subcommand."""
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name, parser in subparsers.choices.items():
            for action in parser._actions:
                if not isinstance(action, argparse._HelpAction):
                    yield name, action

    def test_no_option_added_renamed_or_removed(self):
        found = {}
        for sub, action in self._options():
            found.setdefault(sub, []).append((action.option_strings or [action.dest])[0])
        assert {sub: " ".join(sorted(opts)) for sub, opts in found.items()} == {
            sub: " ".join(opts.split()) for sub, opts in self.OPTIONS.items()
        }
        assert sum(len(opts) for opts in found.values()) == 102

    def test_a_spec_backed_flag_takes_the_dataclass_default(self):
        defaults = {
            field.name: field.default
            for spec in (ClusterSpec, ScenarioSpec)
            for field in dataclasses.fields(spec)
        }
        stated = dict(self.STATED)
        for sub, action in self._options():
            if action.dest in defaults:
                expected = stated.pop((sub, action.dest), defaults[action.dest])
                assert action.default == expected, (sub, action.option_strings)
        assert not stated, f"overrides no parser states any more: {stated}"

    def test_cli_keeps_no_validator_and_no_fallback_default(self):
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        names = {
            getattr(node, field, None)
            for node in ast.walk(tree)
            for field in ("id", "attr")
        }
        assert "ArgumentTypeError" not in names
        fallbacks = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) == 3
        ]
        assert not fallbacks, f"getattr(args, name, default) at cli.py:{fallbacks}"

    def test_the_second_copies_are_gone(self):
        gone = re.compile(
            r"\b(_check_schedule_support|_SIM_ONLY_FLAGS|_master_policy|_datacenter_list"
            r"|_PROTOCOL_NOTES|_CHAOS_NOTES|_cluster_spec_from_args)\b"
        )
        package = pathlib.Path(repro.__file__).parent
        offending = [
            f"{path.relative_to(package)}:{number}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
        ]
        assert not offending, offending

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["run"],
                ScenarioSpec(
                    cluster=ClusterSpec(
                        protocol="mdcc", datacenters=None, partitions_per_table=2,
                        master_policy="hash", seed=1, gamma_policy="static",
                        batch_ms=0.0, demarcation=True, elastic=False,
                    ),
                    workload="micro", clients=25, items=1_000, warmup_s=5.0,
                    measure_s=30.0, hotspot=None, locality=None, phase_s=20.0,
                    audit=True, fail_dc=None, fail_at_s=None, schedule=None,
                    bucket_s=5.0, victim=None, replacement=None, donor=None,
                ),
            ),
            # compare's first protocol; trace: same experiment flags as run
            (["compare"], ScenarioSpec(cluster=ClusterSpec(master_policy="hash"))),
            (["trace"], ScenarioSpec(cluster=ClusterSpec(master_policy="hash"))),
            (
                ["chaos", "dc-outage"],
                ScenarioSpec(
                    cluster=ClusterSpec(
                        protocol="mdcc", datacenters=None, partitions_per_table=2,
                        master_policy=None, seed=7, gamma_policy="static",
                        batch_ms=0.0, demarcation=True, elastic=False,
                    ),
                    workload=None, clients=20, items=300, warmup_s=5.0,
                    measure_s=60.0, hotspot=None, locality=None, phase_s=15.0,
                    audit=True, fail_dc=None, fail_at_s=None, schedule="dc-outage",
                    bucket_s=5.0, victim=None, replacement=None, donor=None,
                ),
            ),
            (
                ["reconfig"],
                ScenarioSpec(
                    cluster=ClusterSpec(
                        protocol="mdcc", datacenters=None, partitions_per_table=2,
                        master_policy=None, seed=7, gamma_policy="static",
                        batch_ms=0.0, demarcation=True, elastic=True,
                    ),
                    workload=None, clients=20, items=300, warmup_s=5.0,
                    measure_s=60.0, hotspot=None, locality=None, phase_s=15.0,
                    audit=True, fail_dc=None, fail_at_s=None, schedule="dc-replace",
                    bucket_s=5.0, victim="us-east", replacement="us-east-2",
                    donor="us-west",
                ),
            ),
        ],
    )
    def test_a_bare_subcommand_builds_exactly_this_spec(self, monkeypatch, argv, expected):
        built = []

        def capture(spec):
            built.append(spec)
            raise _Captured

        monkeypatch.setattr(cli, "run_scenario", capture)
        with pytest.raises(_Captured):
            main(argv)
        assert built == [expected]


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
