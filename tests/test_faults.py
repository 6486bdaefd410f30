"""Unit tests for the chaos engine: schedules, controller, scenario glue."""

import pytest

from repro.bench import run
from repro.api import ClusterSpec, ScenarioSpec, build_cluster, run_scenario
from repro.faults import (
    CHAOS_TABLE,
    ChaosController,
    FaultSchedule,
    NAMED_SCHEDULES,
    named_schedule,
)
from repro.storage.schema import Constraint, TableSchema
from repro.workloads import MicroBenchmark


class TestFaultSchedule:
    def test_builder_chains_and_sorts(self):
        schedule = (
            FaultSchedule("s")
            .recover_dc(40.0, "us-east")
            .fail_dc(10.0, "us-east")
            .degrade_link(20.0, "us-west", "us-east", extra_latency_ms=50.0)
        )
        assert [e.action for e in schedule.sorted_events()] == [
            "fail-dc",
            "degrade-link",
            "recover-dc",
        ]
        assert schedule.horizon_ms == 40.0
        assert schedule.count("fail-dc") == 1

    def test_pair_params_are_order_insensitive(self):
        a = FaultSchedule("a").partition_pair(1.0, "us-west", "eu-west")
        b = FaultSchedule("b").partition_pair(1.0, "eu-west", "us-west")
        assert a.events[0].params == b.events[0].params

    def test_flap_link_expands_to_degrade_restore_cycles(self):
        schedule = FaultSchedule("s").flap_link(
            100.0, "a-dc", "b-dc", period_ms=50.0, cycles=3
        )
        assert schedule.count("degrade-link") == 3
        assert schedule.count("restore-link") == 3
        downs = [
            e.at_ms for e in schedule.sorted_events() if e.action == "degrade-link"
        ]
        assert downs == [100.0, 150.0, 200.0]
        # Flap-down is a full outage of the link.
        assert schedule.sorted_events()[0].params_dict["drop_rate"] == 1.0

    def test_as_dict_is_json_friendly_and_sorted(self):
        schedule = FaultSchedule("s", description="d").fail_dc(5.0, "eu-west")
        payload = schedule.as_dict()
        assert payload["name"] == "s"
        assert payload["events"] == [
            {"at_ms": 5.0, "action": "fail-dc", "params": {"dc": "eu-west"}}
        ]

    def test_negative_event_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule("s").fail_dc(-1.0, "us-east")

    def test_named_schedules_scale_with_window(self):
        small = named_schedule("dc-outage", start_ms=0, duration_ms=10_000)
        large = named_schedule("dc-outage", start_ms=0, duration_ms=100_000)
        assert small.horizon_ms == pytest.approx(large.horizon_ms / 10)
        assert [e.action for e in small.sorted_events()] == [
            e.action for e in large.sorted_events()
        ]

    def test_every_named_schedule_builds(self):
        for name in NAMED_SCHEDULES:
            schedule = named_schedule(name)
            assert schedule.name == name
            assert schedule.events
            assert 0 < schedule.min_availability <= 1

    def test_unknown_named_schedule_rejected(self):
        with pytest.raises(ValueError):
            named_schedule("meteor-strike")

    def test_dc_replace_parameterized(self):
        schedule = named_schedule(
            "dc-replace", victim="eu-west", replacement="eu-west-2", donor="us-east"
        )
        params = {
            event.action: event.params_dict for event in schedule.sorted_events()
        }
        assert params["fail-dc"]["dc"] == "eu-west"
        assert params["decommission-dc"]["dc"] == "eu-west"
        assert params["join-dc"] == {
            "dc": "eu-west-2", "like": "eu-west", "donor": "us-east"
        }
        assert schedule.needs_reconfig

    def test_dc_replace_rejects_role_collisions(self):
        with pytest.raises(ValueError):
            named_schedule("dc-replace", victim="us-east", donor="us-east")
        with pytest.raises(ValueError):
            named_schedule("dc-replace", victim="us-east", replacement="us-east")
        with pytest.raises(ValueError):
            named_schedule("dc-replace", replacement="us-west", donor="us-west")

    def test_unknown_schedule_params_rejected_cleanly(self):
        with pytest.raises(ValueError, match="does not accept"):
            named_schedule("dc-outage", victim="eu-west")
        with pytest.raises(ValueError, match="does not accept"):
            named_schedule("dc-replace", meteor=True)


ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(seed=3, protocol="mdcc"):
    cluster = build_cluster(ClusterSpec(protocol=protocol, partitions_per_table=1, seed=seed))
    cluster.register_table(ITEMS)
    cluster.load_record("items", "a", {"stock": 10})
    return cluster


class TestChaosController:
    def test_events_fire_at_their_times(self):
        cluster = make_cluster()
        schedule = (
            FaultSchedule("s")
            .fail_dc(100.0, "us-east")
            .partition_pair(200.0, "us-west", "eu-west")
            .recover_dc(300.0, "us-east")
            .heal_pair(400.0, "us-west", "eu-west")
        )
        controller = ChaosController(cluster, schedule)
        controller.install()
        cluster.sim.run(until=150.0)
        assert cluster.network.is_failed("us-east")
        cluster.sim.run(until=250.0)
        assert cluster.network.active_faults()["partitions"] == [
            ("eu-west", "us-west")
        ]
        cluster.sim.run(until=500.0)
        assert cluster.network.active_faults() == {
            "failed_dcs": [],
            "failed_nodes": [],
            "partitions": [],
            "groups": None,
            "degraded_links": [],
            "drop_rate": 0.0,
        }
        assert [e["event"] for e in controller.log] == [
            "dc-failed",
            "partitioned",
            "dc-recovered",
            "partition-healed",
        ]

    def test_install_twice_rejected(self):
        cluster = make_cluster()
        controller = ChaosController(cluster, FaultSchedule("s"))
        controller.install()
        with pytest.raises(RuntimeError):
            controller.install()

    def test_crash_master_fails_the_records_master_node(self):
        cluster = make_cluster()
        from repro.core.options import RecordId

        master_dc = cluster.placement.master_dc(RecordId("items", "a"))
        master_node = cluster.placement.master_node(RecordId("items", "a"))
        schedule = (
            FaultSchedule("s").crash_master(50.0, dc=master_dc).restore_masters(150.0)
        )
        controller = ChaosController(
            cluster, schedule, workload_source=lambda: ("items", ["a"])
        )
        controller.install()
        cluster.sim.run(until=100.0)
        assert cluster.network.is_node_failed(master_node)
        cluster.sim.run(until=200.0)
        assert not cluster.network.is_node_failed(master_node)

    def test_crash_master_without_target_logs_skip(self):
        cluster = make_cluster()
        schedule = FaultSchedule("s").crash_master(50.0, dc="us-east")
        controller = ChaosController(cluster, schedule)  # no workload source
        controller.install()
        cluster.sim.run(until=100.0)
        assert controller.log[-1]["event"] == "crash-master-skipped"

    def test_coordinator_crash_recovers_to_one_outcome(self):
        cluster = make_cluster(seed=11)
        schedule = FaultSchedule("s").crash_coordinator(
            100.0, recover_after_ms=3_000.0
        )
        controller = ChaosController(cluster, schedule)
        controller.install()
        cluster.sim.run(until=60_000.0)
        assert len(controller.recovery_outcomes) == 2  # both racing agents
        verdicts = {o["committed"] for o in controller.recovery_outcomes}
        assert len(verdicts) == 1
        assert controller.probe_problems() == []
        # The probe record lives in its own table, untouched by workloads.
        snapshot = cluster.read_committed(CHAOS_TABLE, "probe:000")
        expected = {"value": 1} if verdicts.pop() else {"value": 0}
        assert snapshot.value == expected

    def test_coordinator_crash_skipped_for_non_mdcc(self):
        cluster = build_cluster(ClusterSpec(protocol="2pc", partitions_per_table=1, seed=3))
        schedule = FaultSchedule("s").crash_coordinator(100.0)
        controller = ChaosController(cluster, schedule)
        controller.install()
        cluster.sim.run(until=200.0)
        assert controller.log[-1]["event"] == "coordinator-crash-skipped"
        assert controller.recovery_outcomes == []


class TestScheduledRun:
    """The run driver with a hand-built schedule (no spec in between)."""

    @staticmethod
    def _run():
        return run(
            build_cluster(ClusterSpec(seed=5)),
            MicroBenchmark(num_items=60, min_stock=500, max_stock=1_000),
            named_schedule("dc-outage", start_ms=1_000, duration_ms=8_000),
            num_clients=4,
            warmup_ms=1_000,
            measure_ms=8_000,
            bucket_ms=2_000,
        )

    def test_scenario_result_shape_and_determinism(self):
        a, b = self._run(), self._run()
        assert a.as_dict() == b.as_dict()
        assert a.schedule == "dc-outage"
        assert len(a.timeline) == 4  # 8s / 2s buckets, empties included
        assert a.commits > 0
        assert a.clean

    def test_spec_uses_schedule_hints(self):
        result = run_scenario(
            ScenarioSpec(
                cluster=ClusterSpec(protocol="mdcc", seed=5),
                workload=None,
                clients=5,
                items=60,
                warmup_s=1.0,
                measure_s=8.0,
                phase_s=2.0,
                schedule="follow-the-sun-outage",
            )
        )
        assert result.workload == "geoshift"
        assert result.extra["master_policy"] == "adaptive"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ScenarioSpec(workload="crud", schedule="dc-outage")
