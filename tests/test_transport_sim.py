"""The transport interface over the simulator backend.

``SimTransport`` must be a faithful adapter: time, timers, futures and
message delivery all behave exactly as driving the simulator directly.
"""

from dataclasses import dataclass

from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.transport.base import Node, all_of, any_of
from repro.transport.simnet import SimTransport


@dataclass(frozen=True)
class Ping:
    seq: int


@dataclass(frozen=True)
class OddName:
    pass


class Receiver(Node):
    def __init__(self, transport, node_id, dc):
        super().__init__(transport, node_id, dc)
        self.pings = []
        self.odd = 0

    def handle_ping(self, msg, src):
        self.pings.append((src, msg.seq))

    def handle_odd_name(self, msg, src):
        self.odd += 1


def _make_transport(seed=1):
    sim = Simulator()
    network = Network(sim, rng_registry=RngRegistry(seed=seed))
    return sim, SimTransport(sim, network)


def test_now_tracks_simulated_time():
    sim, transport = _make_transport()
    assert transport.now == 0.0
    fired = []
    transport.schedule(25.0, lambda: fired.append(transport.now))
    sim.run()
    assert fired == [25.0]
    assert transport.now == 25.0


def test_send_dispatches_to_handler_by_type_name():
    sim, transport = _make_transport()
    a = Receiver(transport, "a", "us-west")
    b = Receiver(transport, "b", "us-east")
    a.send("b", Ping(seq=7))
    a.send("b", OddName())
    sim.run()
    assert b.pings == [("a", 7)]
    assert b.odd == 1


def test_broadcast_counts_recipients():
    sim, transport = _make_transport()
    sender = Receiver(transport, "src", "us-west")
    receivers = [Receiver(transport, f"n{i}", "us-east") for i in range(3)]
    count = sender.broadcast([r.node_id for r in receivers], Ping(seq=1))
    assert count == 3
    sim.run()
    assert all(r.pings == [("src", 1)] for r in receivers)


def test_set_timer_fires_on_sim_clock():
    sim, transport = _make_transport()
    node = Receiver(transport, "t", "us-west")
    times = []
    node.set_timer(10.0, lambda: times.append(node.now))
    node.set_timer(5.0, lambda: times.append(node.now))
    sim.run()
    assert times == [5.0, 10.0]


def test_futures_bind_to_simulator():
    sim, transport = _make_transport()
    future = transport.future()
    assert future.sim is sim
    done = []
    future.add_done_callback(lambda f: done.append(f.result()))
    future.resolve(42)
    assert done == [42]


def test_all_of_and_any_of_combinators():
    sim, transport = _make_transport()
    futures = [transport.future() for _ in range(3)]
    combined = all_of(sim, futures)
    first = any_of(sim, list(futures))
    futures[1].resolve("b")
    assert first.done and first.result() == "b"
    assert not combined.done
    futures[0].resolve("a")
    futures[2].resolve("c")
    assert combined.done
    assert combined.result() == ["a", "b", "c"]


def test_base_rtt_exposes_latency_matrix():
    _sim, transport = _make_transport()
    assert transport.base_rtt("us-west", "us-west") < transport.base_rtt(
        "us-west", "eu-west"
    )


def test_deregister_stops_delivery():
    sim, transport = _make_transport()
    a = Receiver(transport, "a", "us-west")
    b = Receiver(transport, "b", "us-east")
    transport.deregister("b")
    a.send("b", Ping(seq=1))
    sim.run()
    assert b.pings == []


def test_cluster_nodes_share_one_sim_transport():
    from repro.db.cluster import ClusterSpec, build_cluster

    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=3))
    assert isinstance(cluster.transport, SimTransport)
    storage = next(iter(cluster.storage_nodes.values()))
    assert storage.transport is cluster.transport
    assert cluster.transport.sim is cluster.sim
