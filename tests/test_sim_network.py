"""Unit tests for the WAN network model and failure injection."""

import pytest

from repro.sim.core import SimulationError, Simulator
from repro.sim.network import (
    DEFAULT_RTT_MATRIX,
    EC2_REGIONS,
    LatencyModel,
    LinkPolicy,
    Network,
)
from repro.sim.rng import RngRegistry
from repro.transport.base import Node
from repro.transport.simnet import SimTransport


class Recorder(Node):
    """Test node that logs every delivery with its arrival time."""

    def __init__(self, sim, network, node_id, dc):
        super().__init__(SimTransport(sim, network), node_id, dc)
        self.sim = sim
        self.received = []

    def on_message(self, message, src_id):
        self.received.append((self.sim.now, message, src_id))


def build(seed=7, jitter=0.0):
    sim = Simulator()
    registry = RngRegistry(seed=seed)
    model = LatencyModel(jitter_sigma=jitter, rng_registry=registry)
    network = Network(sim, latency_model=model, rng_registry=registry)
    return sim, network


class TestLatencyModel:
    def test_matrix_covers_all_region_pairs(self):
        for i, a in enumerate(EC2_REGIONS):
            for b in EC2_REGIONS[i + 1:]:
                assert frozenset((a, b)) in DEFAULT_RTT_MATRIX

    def test_intra_dc_rtt_is_small(self):
        model = LatencyModel()
        assert model.base_rtt("us-west", "us-west") == pytest.approx(1.0)

    def test_symmetric_rtt(self):
        model = LatencyModel()
        assert model.base_rtt("us-west", "eu-west") == model.base_rtt(
            "eu-west", "us-west"
        )

    def test_unknown_pair_raises(self):
        model = LatencyModel()
        with pytest.raises(SimulationError):
            model.base_rtt("us-west", "mars")

    def test_one_way_is_half_rtt_plus_overhead_without_jitter(self):
        model = LatencyModel(jitter_sigma=0.0, processing_overhead=0.5)
        sample = model.one_way("us-west", "us-east")
        assert sample == pytest.approx(80.0 / 2 + 0.5)

    def test_jitter_varies_samples_deterministically(self):
        a = LatencyModel(jitter_sigma=0.2, rng_registry=RngRegistry(seed=3))
        b = LatencyModel(jitter_sigma=0.2, rng_registry=RngRegistry(seed=3))
        seq_a = [a.one_way("us-west", "eu-west") for _ in range(10)]
        seq_b = [b.one_way("us-west", "eu-west") for _ in range(10)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1

    def test_sorted_rtts_orders_by_distance(self):
        model = LatencyModel()
        ordered = model.sorted_rtts_from("us-west")
        distances = [rtt for _, rtt in ordered]
        assert distances == sorted(distances)
        assert ordered[0][0] == "us-east"  # nearest to us-west in matrix

    def test_fourth_closest_is_farther_than_third(self):
        # The QW-3 vs QW-4 gap in Figure 3 relies on this property.
        model = LatencyModel()
        for region in EC2_REGIONS:
            ordered = model.sorted_rtts_from(region)
            assert ordered[3][1] > ordered[2][1]


class TestDelivery:
    def test_message_arrives_after_one_way_latency(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        a.send("b", "hello")
        sim.run()
        assert len(b.received) == 1
        arrival, message, src = b.received[0]
        assert message == "hello"
        assert src == "a"
        assert arrival == pytest.approx(40.5)  # 80/2 + 0.5 overhead

    def test_intra_dc_delivery_fast(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-west")
        a.send("b", "ping")
        sim.run()
        assert b.received[0][0] == pytest.approx(1.0)  # 1/2 + 0.5

    def test_broadcast_reaches_all(self):
        sim, network = build()
        src = Recorder(sim, network, "src", "us-west")
        sinks = [
            Recorder(sim, network, f"n{i}", dc)
            for i, dc in enumerate(EC2_REGIONS)
        ]
        count = src.broadcast([s.node_id for s in sinks], "msg")
        sim.run()
        assert count == 5
        assert all(len(s.received) == 1 for s in sinks)

    def test_send_draws_the_delays_one_way_samples(self):
        # Network.send inlines LatencyModel.one_way and random.gauss; with
        # jitter on, each send's delay must equal one_way's next sample
        # from an identically seeded model, one for one.
        seed, sigma = 11, 0.2
        sim, network = build(seed=seed, jitter=sigma)
        nodes = [Recorder(sim, network, f"n{i}", dc) for i, dc in enumerate(EC2_REGIONS)]
        pairs = [(i % 5, (3 * i + 1) % 5) for i in range(301)]
        for seq, (src, dst) in enumerate(pairs):
            nodes[src].send(nodes[dst].node_id, seq)
        sim.run()
        delays = dict(
            (message, arrival) for node in nodes for arrival, message, _src in node.received
        )
        reference = LatencyModel(jitter_sigma=sigma, rng_registry=RngRegistry(seed=seed))
        expected = [reference.one_way(nodes[a].dc, nodes[b].dc) for a, b in pairs]
        assert any(nodes[a].dc == nodes[b].dc for a, b in pairs)
        assert [delays[seq] for seq in range(len(pairs))] == expected

    def test_duplicate_node_id_rejected(self):
        sim, network = build()
        Recorder(sim, network, "dup", "us-west")
        with pytest.raises(SimulationError):
            Recorder(sim, network, "dup", "us-east")

    def test_unknown_destination_counts_as_drop(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        a.send("ghost", "lost")
        sim.run()
        assert network.stats.messages_dropped == 1

    def test_stats_track_sent_and_delivered(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        Recorder(sim, network, "b", "us-east")
        for _ in range(3):
            a.send("b", "x")
        sim.run()
        assert network.stats.messages_sent == 3
        assert network.stats.messages_delivered == 3
        assert network.stats.per_type["str"] == 3


class TestFailureInjection:
    def test_failed_dc_receives_nothing(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        network.fail_datacenter("us-east")
        a.send("b", "lost")
        sim.run()
        assert b.received == []
        assert network.stats.messages_dropped == 1

    def test_failed_dc_sends_nothing(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-east")
        b = Recorder(sim, network, "b", "us-west")
        network.fail_datacenter("us-east")
        a.send("b", "lost")
        sim.run()
        assert b.received == []

    def test_in_flight_message_lost_when_dc_fails(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        a.send("b", "in-flight")
        sim.schedule(10.0, network.fail_datacenter, "us-east")
        sim.run()
        assert b.received == []

    def test_recovery_restores_traffic(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        network.fail_datacenter("us-east")
        network.recover_datacenter("us-east")
        a.send("b", "back")
        sim.run()
        assert len(b.received) == 1

    def test_partition_blocks_both_directions(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "eu-west")
        network.partition("us-west", "eu-west")
        a.send("b", "x")
        b.send("a", "y")
        sim.run()
        assert a.received == [] and b.received == []
        network.heal_partition("us-west", "eu-west")
        a.send("b", "x2")
        sim.run()
        assert len(b.received) == 1

    def test_partition_leaves_other_links_up(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        c = Recorder(sim, network, "c", "ap-northeast")
        network.partition("us-west", "eu-west")
        a.send("c", "ok")
        sim.run()
        assert len(c.received) == 1

    def test_drop_rate_loses_messages(self):
        sim, network = build(seed=11)
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        network.set_drop_rate(0.5)
        for _ in range(200):
            a.send("b", "maybe")
        sim.run()
        assert 0 < len(b.received) < 200
        assert network.stats.messages_dropped == 200 - len(b.received)

    def test_invalid_drop_rate_rejected(self):
        sim, network = build()
        with pytest.raises(SimulationError):
            network.set_drop_rate(1.5)

    def test_drop_reasons_distinguish_failure_from_partition(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        Recorder(sim, network, "b", "us-east")
        Recorder(sim, network, "c", "eu-west")
        network.fail_datacenter("us-east")
        network.partition("us-west", "eu-west")
        a.send("b", "x")
        a.send("c", "y")
        a.send("ghost", "z")
        sim.run()
        assert network.stats.dropped_by_reason == {
            "dc-failure": 1,
            "partition": 1,
            "unknown-destination": 1,
        }
        assert network.stats.messages_dropped == 3

    def test_fail_datacenter_idempotent_with_inflight_timer(self):
        """A scheduled (duplicate) failure racing recovery must not wedge
        state or double-count: fail/fail/recover leaves the DC healthy."""
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        events = []
        network.subscribe(lambda now, event, details: events.append(event))
        network.fail_datacenter("us-east")
        sim.schedule(10.0, network.fail_datacenter, "us-east")  # stale timer
        sim.schedule(20.0, network.recover_datacenter, "us-east")
        sim.run()
        a.send("b", "after")
        sim.run()
        assert len(b.received) == 1
        # The duplicate failure produced no transition event.
        assert events == ["dc-failed", "dc-recovered"]

    def test_recover_unfailed_dc_is_noop(self):
        sim, network = build()
        events = []
        network.subscribe(lambda now, event, details: events.append(event))
        network.recover_datacenter("us-east")
        assert events == []


class TestNodeFailure:
    def test_failed_node_traffic_drops_both_ways(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-west")
        network.fail_node("b")
        a.send("b", "x")
        b.send("a", "y")
        sim.run()
        assert a.received == [] and b.received == []
        assert network.stats.dropped_by_reason["node-failure"] == 2

    def test_other_nodes_in_same_dc_unaffected(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        Recorder(sim, network, "b", "us-east")
        c = Recorder(sim, network, "c", "us-east")
        network.fail_node("b")
        a.send("c", "ok")
        sim.run()
        assert len(c.received) == 1

    def test_in_flight_message_lost_when_node_fails(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        a.send("b", "in-flight")
        sim.schedule(10.0, network.fail_node, "b")
        sim.run()
        assert b.received == []
        network.recover_node("b")
        a.send("b", "back")
        sim.run()
        assert len(b.received) == 1


class TestPartitionGroups:
    def test_nway_split_blocks_cross_group_traffic(self):
        sim, network = build()
        nodes = {
            dc: Recorder(sim, network, f"n-{dc}", dc) for dc in EC2_REGIONS
        }
        network.partition_groups(
            [["us-west", "us-east"], ["eu-west", "ap-southeast", "ap-northeast"]]
        )
        nodes["us-west"].send("n-us-east", "same-group")
        nodes["us-west"].send("n-eu-west", "cross-group")
        nodes["eu-west"].send("n-ap-southeast", "same-group-2")
        sim.run()
        assert len(nodes["us-east"].received) == 1
        assert nodes["eu-west"].received == []
        assert len(nodes["ap-southeast"].received) == 1
        assert network.stats.dropped_by_reason["partition"] == 1

    def test_unlisted_dcs_form_remainder_group(self):
        sim, network = build()
        nodes = {
            dc: Recorder(sim, network, f"n-{dc}", dc) for dc in EC2_REGIONS
        }
        network.partition_groups([["eu-west"]])
        nodes["us-west"].send("n-us-east", "remainder-internal")
        nodes["us-west"].send("n-eu-west", "to-isolated")
        sim.run()
        assert len(nodes["us-east"].received) == 1
        assert nodes["eu-west"].received == []

    def test_clear_restores_traffic(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "eu-west")
        network.partition_groups([["us-west"], ["eu-west"]])
        network.clear_partition_groups()
        a.send("b", "x")
        sim.run()
        assert len(b.received) == 1

    def test_duplicate_dc_across_groups_rejected(self):
        sim, network = build()
        with pytest.raises(SimulationError):
            network.partition_groups([["us-west"], ["us-west", "eu-west"]])

    def test_intra_dc_traffic_survives_any_split(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-west")
        network.partition_groups([["us-west"], ["us-east"]])
        a.send("b", "local")
        sim.run()
        assert len(b.received) == 1


class TestLinkPolicy:
    def test_extra_latency_applies_both_directions(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        network.set_link_policy(
            "us-east", "us-west", LinkPolicy(extra_latency_ms=100.0)
        )
        a.send("b", "slow")
        sim.run()
        assert b.received[0][0] == pytest.approx(140.5)  # 40.5 base + 100

    def test_full_drop_rate_severs_link(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east")
        network.set_link_policy("us-west", "us-east", LinkPolicy(drop_rate=1.0))
        for _ in range(5):
            a.send("b", "x")
        sim.run()
        assert b.received == []
        assert network.stats.dropped_by_reason["link-policy"] == 5
        network.clear_link_policy("us-west", "us-east")
        a.send("b", "back")
        sim.run()
        assert len(b.received) == 1

    def test_partial_loss_is_deterministic_per_seed(self):
        def run_once():
            sim, network = build(seed=5)
            a = Recorder(sim, network, "a", "us-west")
            b = Recorder(sim, network, "b", "us-east")
            network.set_link_policy(
                "us-west", "us-east", LinkPolicy(drop_rate=0.5)
            )
            for _ in range(100):
                a.send("b", "maybe")
            sim.run()
            return len(b.received)

        first, second = run_once(), run_once()
        assert first == second
        assert 0 < first < 100

    def test_policy_leaves_other_links_clean(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        c = Recorder(sim, network, "c", "eu-west")
        network.set_link_policy("us-west", "us-east", LinkPolicy(drop_rate=1.0))
        a.send("c", "fine")
        sim.run()
        assert len(c.received) == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(SimulationError):
            LinkPolicy(drop_rate=1.5)
        with pytest.raises(SimulationError):
            LinkPolicy(extra_latency_ms=-1.0)


class TestEventHookAndHealAll:
    def test_subscribers_see_every_effective_transition(self):
        sim, network = build()
        events = []
        network.subscribe(lambda now, event, details: events.append((event, details)))
        network.fail_datacenter("us-east")
        network.partition("us-west", "eu-west")
        network.set_link_policy("us-west", "us-east", LinkPolicy(drop_rate=0.5))
        network.partition_groups([["eu-west"]])
        network.fail_node("some-node")
        assert [e for e, _ in events] == [
            "dc-failed",
            "partitioned",
            "link-degraded",
            "partition-groups",
            "node-failed",
        ]
        assert events[1][1]["pair"] == ("eu-west", "us-west")

    def test_heal_all_lifts_every_fault_and_notifies(self):
        sim, network = build()
        network.fail_datacenter("us-east")
        network.fail_node("n1")
        network.partition("us-west", "eu-west")
        network.partition_groups([["eu-west"]])
        network.set_link_policy("us-west", "us-east", LinkPolicy(drop_rate=1.0))
        network.set_drop_rate(0.2)
        network.heal_all()
        assert network.active_faults() == {
            "failed_dcs": [],
            "failed_nodes": [],
            "partitions": [],
            "groups": None,
            "degraded_links": [],
            "drop_rate": 0.0,
        }


class TestNodeDispatch:
    def test_handler_lookup_by_message_type(self):
        sim, network = build()

        class Ping:
            pass

        class PongNode(Node):
            pings = 0

            def handle_ping(self, message, src_id):
                self.pings += 1

        a = Recorder(sim, network, "a", "us-west")
        b = PongNode(SimTransport(sim, network), "b", "us-west")
        a.send("b", Ping())
        sim.run()
        assert b.pings == 1

    def test_missing_handler_raises(self):
        sim, network = build()

        class Strange:
            pass

        class Deaf(Node):
            pass

        a = Recorder(sim, network, "a", "us-west")
        Deaf(SimTransport(sim, network), "deaf", "us-west")
        a.send("deaf", Strange())
        with pytest.raises(NotImplementedError):
            sim.run()

    def test_timer_fires(self):
        sim, network = build()
        node = Recorder(sim, network, "n", "us-west")
        fired = []
        node.set_timer(15.0, fired.append, "t")
        sim.run()
        assert fired == ["t"]
        assert sim.now == 15.0


class TestRuntimeRegistration:
    """Runtime joins: late registrants must inherit active fault state.

    Fault state is keyed by DC name and node id — never by
    registration-time snapshots — so a node that registers mid-outage,
    mid-partition or mid-degradation is subject to the fault from its
    first message.  These tests pin that contract for the elastic
    membership machinery.
    """

    def test_late_registrant_inherits_dc_failure(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        network.fail_datacenter("us-east")
        b = Recorder(sim, network, "b", "us-east")  # registers mid-outage
        a.send("b", "x")
        b.send("a", "y")
        sim.run()
        assert a.received == [] and b.received == []
        assert network.stats.dropped_by_reason["dc-failure"] == 2

    def test_late_registrant_inherits_partition(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        network.partition("us-west", "eu-west")
        b = Recorder(sim, network, "b", "eu-west")
        a.send("b", "x")
        sim.run()
        assert b.received == []
        assert network.stats.dropped_by_reason["partition"] == 1

    def test_late_registrant_inherits_link_policy(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        network.set_link_policy("us-west", "us-east", LinkPolicy(drop_rate=1.0))
        b = Recorder(sim, network, "b", "us-east")
        a.send("b", "x")
        sim.run()
        assert b.received == []
        assert network.stats.dropped_by_reason["link-policy"] == 1

    def test_late_registrant_inherits_group_split(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        network.partition_groups([["us-west"], ["us-east", "eu-west"]])
        b = Recorder(sim, network, "b", "us-east")
        a.send("b", "cross-group")
        sim.run()
        assert b.received == []

    def test_pre_registered_node_failure_applies_on_registration(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        network.fail_node("b")  # the id fails before the node exists
        b = Recorder(sim, network, "b", "us-west")
        a.send("b", "x")
        sim.run()
        assert b.received == []

    def test_unknown_dc_registration_rejected(self):
        # Previously a node in an unknown DC registered silently,
        # exchanged intra-DC traffic below the RTT model and bypassed
        # every DC-keyed fault; now it fails fast.
        sim, network = build()
        with pytest.raises(SimulationError):
            Recorder(sim, network, "ghost", "atlantis")

    def test_add_datacenter_wires_links_and_notifies(self):
        sim, network = build()
        events = []
        network.subscribe(lambda now, event, details: events.append((event, details)))
        rtts = {dc: 100.0 for dc in EC2_REGIONS}
        network.add_datacenter("us-east-2", rtts)
        assert ("dc-registered", {"dc": "us-east-2", "links": 5}) in events
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east-2")
        a.send("b", "hello")
        sim.run()
        assert len(b.received) == 1
        assert b.received[0][0] == pytest.approx(50.5)  # 100/2 + overhead

    def test_add_datacenter_requires_full_coverage(self):
        sim, network = build()
        with pytest.raises(SimulationError):
            network.add_datacenter("us-east-2", {"us-west": 100.0})  # partial

    def test_add_datacenter_rejects_duplicates_and_bad_rtts(self):
        sim, network = build()
        with pytest.raises(SimulationError):
            network.add_datacenter("us-east", {dc: 1.0 for dc in EC2_REGIONS})
        with pytest.raises(SimulationError):
            network.add_datacenter(
                "new-dc", {**{dc: 100.0 for dc in EC2_REGIONS}, "us-west": -1.0}
            )

    def test_new_dc_subject_to_faults_immediately(self):
        sim, network = build()
        network.add_datacenter("us-east-2", {dc: 100.0 for dc in EC2_REGIONS})
        a = Recorder(sim, network, "a", "us-west")
        b = Recorder(sim, network, "b", "us-east-2")
        network.fail_datacenter("us-east-2")
        a.send("b", "x")
        sim.run()
        assert b.received == []
        assert network.stats.dropped_by_reason["dc-failure"] == 1

    def test_rtts_from_returns_link_profile(self):
        sim, network = build()
        profile = network.latency.rtts_from("us-east")
        assert profile == {
            "us-west": 80.0,
            "eu-west": 90.0,
            "ap-southeast": 260.0,
            "ap-northeast": 170.0,
        }


class TestDeregistration:
    def test_deregistered_node_traffic_drops_as_unknown(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        Recorder(sim, network, "b", "us-east")
        network.deregister("b")
        a.send("b", "x")
        sim.run()
        assert network.stats.dropped_by_reason["unknown-destination"] == 1
        assert not network.knows("b")

    def test_deregister_clears_node_failure_for_id_reuse(self):
        sim, network = build()
        a = Recorder(sim, network, "a", "us-west")
        Recorder(sim, network, "b", "us-east")
        network.fail_node("b")
        network.deregister("b")
        # A later join reuses the id: it must start healthy.
        b2 = Recorder(sim, network, "b", "us-east")
        a.send("b", "fresh")
        sim.run()
        assert len(b2.received) == 1

    def test_deregister_unknown_id_is_noop(self):
        sim, network = build()
        events = []
        network.subscribe(lambda now, event, details: events.append(event))
        network.deregister("ghost")
        assert events == []

    def test_deregister_notifies_subscribers(self):
        sim, network = build()
        Recorder(sim, network, "b", "us-east")
        events = []
        network.subscribe(lambda now, event, details: events.append((event, details)))
        network.deregister("b")
        assert events == [("node-deregistered", {"node_id": "b"})]
