"""The typed scenario-spec API: signatures, JSON round-trip, rejection.

The spec dataclasses are a public contract: the golden-signature tests
pin their exact field names and defaults so any change is a deliberate,
reviewed act (specs are committed as JSON artifacts and must keep
loading).  A spec is resolved into (cluster, workload, schedule) and
handed to the one run driver — the tests pin that a spec call and a
hand-composed driver call agree byte for byte, and that every workload
knob a spec carries is honoured with or without a fault schedule.
"""

import dataclasses
import inspect
import json
import pathlib

import pytest

import repro.api
from repro.api import ClusterSpec, ScenarioSpec, build_cluster, run_scenario
from repro.core.config import MDCCConfig, ProtocolVariant
from repro.bench import run
from repro.cli import main
from repro.faults.schedule import named_schedule
from repro.workloads import MicroBenchmark

#: toy scale — same code paths as the paper-scale runs, seconds of CPU.
SMALL = dict(clients=5, items=80, warmup_s=1.0, measure_s=6.0)


def _signature(cls):
    return [(f.name, f.default) for f in dataclasses.fields(cls)]


def test_cluster_spec_golden_signature():
    assert _signature(ClusterSpec) == [
        ("protocol", "mdcc"),
        ("datacenters", None),
        ("partitions_per_table", 2),
        ("master_policy", None),
        ("seed", 1),
        ("gamma", 100),
        ("gamma_policy", "static"),
        ("batch_ms", 0.0),
        ("demarcation", True),
        ("elastic", False),
    ]


def test_mdcc_config_golden_signature():
    """The config holds only what a spec field or a protocol varies;
    quorum sizes belong to the replica map, timeouts are constants."""
    assert _signature(MDCCConfig) == [
        ("variant", ProtocolVariant.MDCC),
        ("gamma", 100),
        ("gamma_policy", "static"),
        ("demarcation_enabled", True),
        ("visibility_batch_ms", 0.0),
    ]


def test_scenario_spec_golden_signature():
    fields = _signature(ScenarioSpec)
    assert fields[0][0] == "cluster"  # default_factory, no plain default
    assert fields[1:] == [
        ("workload", "micro"),
        ("clients", 25),
        ("items", 1_000),
        ("warmup_s", 5.0),
        ("measure_s", 30.0),
        ("hotspot", None),
        ("locality", None),
        ("phase_s", 20.0),
        ("audit", True),
        ("fail_dc", None),
        ("fail_at_s", None),
        ("schedule", None),
        ("bucket_s", 5.0),
        ("victim", None),
        ("replacement", None),
        ("donor", None),
    ]


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def test_spec_round_trips_through_json():
    spec = ScenarioSpec(
        cluster=ClusterSpec(
            protocol="multi",
            datacenters=("us-west", "us-east", "eu-west"),
            master_policy="fixed:us-east",
            seed=9,
            batch_ms=5.0,
        ),
        workload="geoshift",
        clients=7,
        phase_s=4.0,
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_spec_json_is_canonical():
    rendered = ScenarioSpec().to_json()
    assert rendered.endswith("\n")
    assert rendered == json.dumps(json.loads(rendered), indent=2, sort_keys=True) + "\n"


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="clientz"):
        ScenarioSpec.from_dict({"clientz": 5})
    with pytest.raises(ValueError, match="protocl"):
        ClusterSpec.from_dict({"protocl": "mdcc"})


@pytest.mark.parametrize(
    "data, field",
    [
        # each used to run, or die with a traceback naming something else
        ({"cluster": {"demarcation": "false"}}, "ClusterSpec.demarcation"),
        ({"cluster": {"elastic": 1}}, "ClusterSpec.elastic"),
        ({"cluster": {"seed": "x"}}, "ClusterSpec.seed"),
        ({"cluster": {"seed": True}}, "ClusterSpec.seed"),
        ({"cluster": {"partitions_per_table": 1.5}}, "ClusterSpec.partitions_per_table"),
        ({"cluster": {"gamma": 2.5}}, "ClusterSpec.gamma"),
        ({"cluster": {"batch_ms": "5"}}, "ClusterSpec.batch_ms"),
        ({"cluster": {"protocol": None}}, "ClusterSpec.protocol"),
        ({"cluster": {"datacenters": "us-west"}}, "ClusterSpec.datacenters"),
        ({"cluster": {"datacenters": ["us-west", 2]}}, "ClusterSpec.datacenters"),
        ({"cluster": "mdcc"}, "ScenarioSpec.cluster"),
        ({"items": 2.5}, "ScenarioSpec.items"),
        ({"clients": "5"}, "ScenarioSpec.clients"),
        ({"measure_s": None}, "ScenarioSpec.measure_s"),
        ({"audit": "yes"}, "ScenarioSpec.audit"),
        ({"hotspot": False}, "ScenarioSpec.hotspot"),
    ],
)
def test_from_dict_refuses_wrong_json_types(data, field, tmp_path):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ScenarioSpec.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=f"bad scenario spec.*{field} must be "):
        main(["run", "--spec", str(path)])


def test_from_dict_takes_every_json_type_its_fields_allow():
    spec = ScenarioSpec.from_dict(
        {
            "cluster": {"datacenters": ["us-west", "eu-west"], "batch_ms": 5, "gamma": 7},
            "hotspot": None,
            "measure_s": 3,
            "audit": False,
        }
    )
    assert spec.cluster.datacenters == ("us-west", "eu-west")
    assert (spec.cluster.batch_ms, spec.cluster.gamma, spec.measure_s) == (5, 7, 3)
    assert spec.hotspot is None and spec.audit is False


def test_spec_validation():
    with pytest.raises(ValueError, match="micro workload"):
        ScenarioSpec(workload="tpcw", hotspot=0.1)
    with pytest.raises(ValueError, match="unknown schedule"):
        ScenarioSpec(schedule="meteor-strike")
    with pytest.raises(ValueError, match="MDCC variant"):
        ClusterSpec(protocol="2pc", master_policy="adaptive")
    with pytest.raises(ValueError, match="dc-replace"):
        ScenarioSpec(schedule="dc-outage", victim="us-east")
    with pytest.raises(ValueError, match="control plane"):
        ScenarioSpec(schedule="dc-replace", victim="us-west")
    # Rules only the CLI used to know: every door hits the same wall.
    with pytest.raises(ValueError, match="not gated"):
        ScenarioSpec(cluster=ClusterSpec(protocol="2pc"), schedule="coordinator-crash")
    with pytest.raises(ValueError, match="not gated"):
        ScenarioSpec(cluster=ClusterSpec(protocol="qw3"), schedule="dc-outage")
    with pytest.raises(ValueError, match="unknown master policy"):
        ClusterSpec(master_policy="round-robin")
    with pytest.raises(ValueError, match="fixed:mars"):
        ClusterSpec(master_policy="fixed:mars")
    with pytest.raises(ValueError, match="fixed:eu-west"):  # a region, not a member
        ClusterSpec(master_policy="fixed:eu-west", datacenters=("us-west", "us-east"))
    with pytest.raises(ValueError, match="unknown master policy 'table'"):
        ClusterSpec(master_policy="table")
    with pytest.raises(ValueError, match="atlantis"):
        ClusterSpec(datacenters=("us-west", "atlantis"))
    with pytest.raises(ValueError, match="gamma must be at least 1"):
        ClusterSpec(gamma=0)


@pytest.mark.parametrize(
    "outage, message",
    [
        # ran clean and outage-free, exit 0
        (dict(fail_dc="mars"), "fail_dc 'mars' is not a data center"),
        # a region, but not a member of this cluster
        (dict(fail_dc="eu-west", cluster=ClusterSpec(datacenters=("us-west", "us-east"))),
         "fail_dc 'eu-west' is not a data center"),
        # scheduled after the run had ended
        (dict(fail_dc="us-east", fail_at_s=6.0), r"outside the measurement window \[0, 6.0\)"),
        # died mid-run with "TransportError: negative delay"
        (dict(fail_dc="us-east", fail_at_s=-3.0), "outside the measurement window"),
    ],
)
def test_the_single_outage_must_happen(outage, message):
    with pytest.raises(ValueError, match=message):
        ScenarioSpec(**{**SMALL, **outage})


def test_the_single_outage_window_edges():
    ScenarioSpec(**SMALL, fail_dc="us-east", fail_at_s=0.0)
    ScenarioSpec(**SMALL, fail_dc="us-east", fail_at_s=5.9)
    with pytest.raises(SystemExit, match="fail_dc 'mars'"):
        main(["run", "--fail-dc", "mars", "--clients", "2", "--measure-s", "2"])


# ----------------------------------------------------------------------
# One driver: a spec is sugar for (cluster, workload, schedule) -> run
# ----------------------------------------------------------------------
# "fast" has no commutativity, so which keys a transaction picks matters.
CHAOS = dict(SMALL, cluster=ClusterSpec(protocol="fast", seed=3), schedule="dc-outage")


def test_spec_and_composed_driver_calls_agree():
    """run_scenario(spec) is exactly: build the three pieces, call run."""
    via_spec = run_scenario(ScenarioSpec(**CHAOS))
    direct = run(
        build_cluster(ClusterSpec(protocol="fast", seed=3)),
        MicroBenchmark(num_items=80, min_stock=500, max_stock=1_000),
        named_schedule("dc-outage", start_ms=1_000.0, duration_ms=6_000.0),
        num_clients=5,
        warmup_ms=1_000.0,
        measure_ms=6_000.0,
    )
    assert via_spec.as_dict() == direct.as_dict()


def test_workload_knobs_honoured_under_a_schedule():
    """hotspot / locality / phase_s reach the workload whether or not a
    fault schedule is set."""
    uniform = run_scenario(ScenarioSpec(**CHAOS))
    hot = run_scenario(ScenarioSpec(**CHAOS, hotspot=0.05))
    assert hot.aborts > uniform.aborts
    local = run_scenario(ScenarioSpec(**CHAOS, locality=1.0))
    assert local.as_dict() != uniform.as_dict()
    sun = dict(CHAOS, schedule="follow-the-sun-outage", workload=None)
    slow, fast = (
        run_scenario(ScenarioSpec(**sun, phase_s=phase_s)) for phase_s in (20.0, 1.5)
    )
    assert slow.workload == fast.workload == "geoshift"
    assert slow.as_dict() != fast.as_dict()


def test_fault_free_runs_take_any_cluster_spec():
    """Custom data-center sets and elastic clusters need no schedule."""
    result = run_scenario(
        ScenarioSpec(
            cluster=ClusterSpec(
                datacenters=("us-west", "us-east", "eu-west"), elastic=True, seed=3
            ),
            **SMALL,
        )
    )
    assert result.commits > 0 and result.clean
    assert result.extra["membership"]["datacenters"] == ["us-west", "us-east", "eu-west"]


def test_entry_points_take_only_a_spec():
    with pytest.raises(TypeError):
        build_cluster(ClusterSpec(), seed=3)
    with pytest.raises(TypeError):
        run_scenario(ScenarioSpec(), num_clients=3)


# ----------------------------------------------------------------------
# CLI integration: --spec files and the envelope's spec block
# ----------------------------------------------------------------------
def test_run_spec_file_and_envelope(tmp_path, capsys):
    spec = ScenarioSpec(cluster=ClusterSpec(seed=5), **SMALL)
    path = tmp_path / "scenario.json"
    path.write_text(spec.to_json())
    code = main(["run", "--spec", str(path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["commits"] > 0
    assert payload["spec"] == spec.to_dict()
    # ...and the spec round-trips out of the envelope back into a run.
    assert ScenarioSpec.from_dict(payload["spec"]) == spec


def test_run_spec_file_matches_flag_invocation(capsys, tmp_path):
    flags = ["--clients", "5", "--items", "80", "--warmup-s", "1",
             "--measure-s", "6", "--seed", "5", "--json"]
    assert main(["run", "--protocol", "mdcc", *flags]) == 0
    via_flags = capsys.readouterr().out
    # master_policy="hash" pins the argparse default; a spec leaving it
    # None runs identically but renders a different envelope block.
    spec = ScenarioSpec(cluster=ClusterSpec(seed=5, master_policy="hash"), **SMALL)
    path = tmp_path / "scenario.json"
    path.write_text(spec.to_json())
    assert main(["run", "--spec", str(path), "--json"]) == 0
    via_spec = capsys.readouterr().out
    assert via_flags == via_spec  # identical JSON, byte for byte


def test_run_spec_file_scheduled_scenario(tmp_path, capsys):
    spec = ScenarioSpec(
        cluster=ClusterSpec(protocol="mdcc", seed=7),
        schedule="dc-outage",
        bucket_s=3.0,
        **SMALL,
    )
    path = tmp_path / "chaos.json"
    path.write_text(spec.to_json())
    code = main(["run", "--spec", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schedule"] == "dc-outage"
    assert payload["invariants"]["clean"] is True
    assert payload["spec"] == spec.to_dict()


def test_run_spec_file_bad_spec_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"workload": "quantum"}')
    with pytest.raises(SystemExit, match="bad scenario spec"):
        main(["run", "--spec", str(path)])
    # used to pass validation and die mid-simulation (no RepairProbe handler)
    path.write_text(
        '{"cluster":{"protocol":"2pc"},"schedule":"coordinator-crash",'
        '"clients":2,"items":10,"warmup_s":0.5,"measure_s":2.0}'
    )
    with pytest.raises(SystemExit, match="bad scenario spec.*not gated"):
        main(["run", "--spec", str(path)])


def test_chaos_envelope_carries_spec(capsys):
    code = main(
        ["chaos", "dc-outage", "--clients", "5", "--items", "80",
         "--warmup-s", "1", "--measure-s", "6", "--bucket-s", "3"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    spec = ScenarioSpec.from_dict(payload["spec"])
    assert spec.schedule == "dc-outage"
    assert spec.cluster.protocol == "mdcc"


# ----------------------------------------------------------------------
# One description of a deployment: each knob in one place
# ----------------------------------------------------------------------
def test_no_spec_field_is_a_builder_parameter():
    """The deployment is the spec; the builder takes only what a spec
    does not describe."""
    spec_fields = {f.name for f in dataclasses.fields(ClusterSpec)}
    parameters = set(inspect.signature(build_cluster).parameters)
    assert parameters == {
        "spec", "jitter_sigma", "migration_policy",
        "placement_scan_ms", "tracker_halflife_ms",
    }
    assert not spec_fields & parameters


def test_the_three_builder_names_are_one_function():
    import repro
    import repro.db

    assert repro.build_cluster is repro.api.build_cluster is repro.db.build_cluster
    assert repro.ClusterSpec is repro.api.ClusterSpec is repro.db.ClusterSpec


@pytest.mark.parametrize(
    "name",
    [
        "_deploy", "_pieces", "table_master_dc", "default_master_dc",
        "commutative_gamma", "adaptive_gamma_min", "adaptive_gamma_max",
        "adaptive_window_ms", "effective_commutative_gamma", "with_variant",
        "supports_commutative",
    ],
)
def test_deleted_deployment_surfaces_stay_deleted(name):
    src = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_a_config_must_run_the_protocols_variant():
    """A hand-built config used to override the protocol silently: a
    "multi" cluster ran fast ballots under the config's default variant.
    The spec is now the config's only source."""
    assert build_cluster(ClusterSpec(protocol="multi")).config.variant is ProtocolVariant.MULTI
    cluster = build_cluster(ClusterSpec(protocol="fast", gamma=7))
    assert cluster.config.gamma == 7
    assert not cluster.config.commutative_enabled
    with pytest.raises(TypeError):
        build_cluster(ClusterSpec(protocol="fast"), config=MDCCConfig())
