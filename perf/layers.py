"""Isolated op costs: each layer's hot operation timed on its own.

Run as a process (``python3 perf/layers.py --budget-s 2.4``); prints one
JSON object ``{metric name: value}``.  Each operation gets an equal
share of the budget, split into five samples; a sample repeats a fixed
batch until its share is used and yields nanoseconds per operation; the
reported value is the median of the five, scaled to the reference host
(``perf/hostspeed.py``) by the host-speed samples taken on either side of
the probe.

Inputs are real objects, not hand-built ones: two short fixture runs
(an uncontended ``mdcc`` micro run and a contended ``fast`` one) are
recorded at ``Network.send``, and the probes reuse the recorded
messages, the storage nodes that handled them and their per-record
state.  Fresh transaction ids are cut with ``dataclasses.replace`` so the
acceptor sees new options each time, as it does in a run.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import socket
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

from entry import (
    AsyncioTcpTransport,
    ClusterSpec,
    LinkPolicy,
    MicroBenchmark,
    Network,
    Node,
    Simulator,
    Topology,
    WriteAheadLog,
    build_cluster,
    codec,
)
from hostspeed import REFERENCE_S, HostSpeed

SAMPLES = 5
BATCH = 256
CODEC_MIX = ("ProposeFast", "FastReply", "Visibility", "ReadReply")


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def _recorded_run(protocol: str, hotspot: Any, measure_s: float) -> Tuple[Any, List[tuple]]:
    """A short run with every ``Network.send`` recorded: ``(cluster,
    [(dst_id, message), ...])``."""
    sent: List[tuple] = []
    original = Network.send

    def recording(self: Any, src_id: str, dst_id: str, message: object) -> None:
        sent.append((dst_id, message))
        original(self, src_id, dst_id, message)

    Network.send = recording  # before build: the transport aliases it
    try:
        cluster = build_cluster(ClusterSpec(protocol=protocol, seed=7))
        bench = MicroBenchmark(
            num_items=100, min_stock=500, max_stock=1_000, hotspot_fraction=hotspot
        )
        bench.run(cluster, num_clients=10, warmup_ms=0.0, measure_ms=measure_s * 1_000.0)
    finally:
        Network.send = original
    return cluster, sent


def _first(sent: List[tuple], type_name: str, accept: Callable = lambda m: True) -> tuple:
    for dst_id, message in sent:
        if type(message).__name__ == type_name and accept(message):
            return dst_id, message
    raise LookupError(f"the fixture run sent no {type_name}")


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _median_ns(batch: Callable[[], Tuple[int, int]], sample_s: float) -> float:
    """Median over SAMPLES of ns/op.  ``batch()`` runs one batch and
    returns ``(ns spent, operations)`` by its own clock, so it may do
    untimed preparation."""
    samples = []
    for _ in range(SAMPLES):
        spent_ns = 0
        operations = 0
        deadline = time.perf_counter() + sample_s
        while operations == 0 or time.perf_counter() < deadline:
            batch_ns, batch_ops = batch()
            spent_ns += batch_ns
            operations += batch_ops
        samples.append(spent_ns / operations)
    return statistics.median(samples)


def _timed_loop(operation: Callable[[Any], Any], items: List[Any]) -> Tuple[int, int]:
    start = time.perf_counter_ns()
    for item in items:
        operation(item)
    return time.perf_counter_ns() - start, len(items)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class _Sink:
    """The least a network endpoint can be."""

    def __init__(self, node_id: str, dc: str) -> None:
        self.node_id = node_id
        self.dc = dc

    def on_message(self, message: object, src_id: str) -> None:
        pass


def _noop() -> None:
    pass


def _post_pop() -> Tuple[int, int]:
    sim = Simulator()
    start = time.perf_counter_ns()
    for index in range(BATCH):
        sim.post((index * 7919) % 1000 * 0.25, _noop)
    sim.run()
    return time.perf_counter_ns() - start, BATCH


def _send_deliver(message: object, faulted: bool) -> Callable[[], Tuple[int, int]]:
    sim = Simulator()
    network = Network(sim)
    network.register(_Sink("a", "us-west"))
    network.register(_Sink("b", "us-east"))
    if faulted:
        # Both gates of the faulted path: a failure somewhere flips the
        # fabric out of its fault-free fast path, and the measured link
        # carries a policy.
        network.fail_datacenter("eu-west")
        network.set_link_policy("us-west", "us-east", LinkPolicy(extra_latency_ms=5.0))

    def batch() -> Tuple[int, int]:
        start = time.perf_counter_ns()
        for _ in range(BATCH):
            network.send("a", "b", message)
        sim.run()
        return time.perf_counter_ns() - start, BATCH

    return batch


def _fresh_options(template: Any, count: int, serial: List[int], delta: float) -> List[Any]:
    update = dataclasses.replace(template.update, deltas=(("stock", delta),))
    options = []
    for _ in range(count):
        serial[0] += 1
        options.append(
            dataclasses.replace(template, txid=f"probe-{serial[0]}", update=update)
        )
    return options


def _state_probes(cluster: Any, sent: List[tuple]) -> Tuple[Callable, Callable]:
    """``accept_fast`` and ``apply_visibility`` on one record's state at
    the replica that handled its first proposal.  Batches alternate
    between decrements and increments, so the escrow window never closes
    and every option takes the accepted path."""
    dst_id, message = _first(sent, "ProposeFast")
    state = cluster.storage_nodes[dst_id].record_state(message.option.record)
    serial = [0]
    decided: List[Any] = []
    sign = [-1.0]

    def accept() -> Tuple[int, int]:
        options = _fresh_options(message.option, 16, serial, sign[0])
        sign[0] = -sign[0]
        decided.clear()
        start = time.perf_counter_ns()
        for option in options:
            decided.append(state.accept_fast(option))
        spent = time.perf_counter_ns() - start
        for option in decided:  # drain, untimed
            state.apply_visibility(option, True)
        return spent, len(options)

    def visibility() -> Tuple[int, int]:
        options = _fresh_options(message.option, 16, serial, sign[0])
        sign[0] = -sign[0]
        pending = [state.accept_fast(option) for option in options]  # untimed
        start = time.perf_counter_ns()
        for option in pending:
            state.apply_visibility(option, True)
        return time.perf_counter_ns() - start, len(pending)

    return accept, visibility


def _adopt_probe(cluster: Any, sent: List[tuple]) -> Callable[[], Tuple[int, int]]:
    """``adopt`` of a three-option classic proposal of fresh, conflicting
    physical updates on a recorded record: each call decides every option
    against the partially adopted cstruct, as a collision recovery does."""
    dst_id, message = _first(sent, "MPhase2a", lambda m: len(m.cstruct) > 0)
    state = cluster.storage_nodes[dst_id].record_state(message.record)
    template = next(iter(message.cstruct))
    pending = type(template.status).PENDING
    update = dataclasses.replace(template.update, vread=state.version)
    proposal = type(message.cstruct)(
        tuple(
            dataclasses.replace(template, txid=f"adopt-{i}", update=update, status=pending)
            for i in range(3)
        )
    )
    proposals = [proposal] * 32
    return lambda: _timed_loop(lambda p: state.adopt(p, message.ballot), proposals)


def _storage_probes(cluster: Any, sent: List[tuple]) -> Tuple[Callable, Callable, Callable]:
    dst_id, message = _first(sent, "ProposeFast")
    node = cluster.storage_nodes[dst_id]
    option = message.option
    writeset = [str(record) for record in option.writeset]
    keys = [key for key, _snapshot in node.store.scan("items")]
    record = node.store.record("items", keys[0])
    serial = [0]

    def wal_append() -> Tuple[int, int]:
        wal = WriteAheadLog()
        start = time.perf_counter_ns()
        for _ in range(BATCH):
            wal.append(
                "option-learned",
                option_id=option.option_id,
                txid=option.txid,
                status="accepted",
                writeset=writeset,
            )
        return time.perf_counter_ns() - start, BATCH

    def commit_delta() -> Tuple[int, int]:
        ids = [f"probe-delta-{serial[0] + i}" for i in range(BATCH)]
        serial[0] += BATCH
        start = time.perf_counter_ns()
        for index, option_id in enumerate(ids):
            record.commit_delta("stock", 1 if index & 1 else -1, option_id)
        return time.perf_counter_ns() - start, BATCH

    def read() -> Tuple[int, int]:
        return _timed_loop(lambda key: node.store.read("items", key), keys)

    return wal_append, commit_delta, read


def _codec_probes(sent: List[tuple]) -> Tuple[Callable, Callable, float]:
    """Message → frame payload and back, over a fixed mix."""
    byte_codec, _warning = codec.resolve_codec("json")
    messages = [_first(sent, type_name)[1] for type_name in CODEC_MIX] * 8

    def to_payload(message: object) -> bytes:
        envelope = {"src": "a", "src_dc": "us-west", "dst": "b", "msg": codec.encode(message)}
        return codec.encode_frame_payload(envelope, byte_codec)

    payloads = [to_payload(message) for message in messages]

    def from_payload(payload: bytes) -> object:
        return codec.decode(codec.decode_frame_payload(payload)["msg"])

    for message, payload in zip(messages, payloads):
        if from_payload(payload) != message:
            raise AssertionError(f"{type(message).__name__} did not survive the codec")
    return (
        lambda: _timed_loop(to_payload, messages),
        lambda: _timed_loop(from_payload, payloads),
        sum(len(payload) for payload in payloads) / len(payloads),
    )


class _Counter(Node):
    """Counts deliveries; resolves ``done`` at ``expect``."""

    def __init__(self, transport: Any, node_id: str, dc: str) -> None:
        super().__init__(transport, node_id, dc)
        self.received = 0
        self.expect = 0
        self.done: Any = None

    def on_message(self, message: object, src_id: str) -> None:
        self.received += 1
        if self.received == self.expect and not self.done.done():
            self.done.set_result(None)


async def _loopback_frame_ns(message: object, sample_s: float) -> float:
    """Two in-process transports over 127.0.0.1: ns per frame from
    ``send`` on one to ``on_message`` on the other, pipelined."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    topology = Topology.from_dict(
        {
            "datacenters": ["us-west"],
            "nodes": {"sink": {"dc": "us-west", "host": "127.0.0.1", "port": port}},
        }
    )
    server = AsyncioTcpTransport(topology, local_dc="us-west", listen=("127.0.0.1", port))
    client = AsyncioTcpTransport(topology, local_dc="us-west", listen=None)
    loop = asyncio.get_running_loop()
    try:
        sink = _Counter(server, "sink", "us-west")
        _Counter(client, "source", "us-west")
        await server.start()

        async def burst(count: int) -> int:
            sink.expect = sink.received + count
            sink.done = loop.create_future()
            start = time.perf_counter_ns()
            for _ in range(count):
                client.send("source", "sink", message)
            await asyncio.wait_for(sink.done, 30.0)
            return time.perf_counter_ns() - start

        await burst(1)  # dial-up
        samples = []
        for _ in range(SAMPLES):
            spent_ns = 0
            frames = 0
            deadline = time.perf_counter() + sample_s
            while frames == 0 or time.perf_counter() < deadline:
                spent_ns += await burst(BATCH)
                frames += BATCH
            samples.append(spent_ns / frames)
        return statistics.median(samples)
    finally:
        await client.close()
        await server.close()


# ----------------------------------------------------------------------
def measure(budget_s: float) -> Dict[str, float]:
    sample_s = budget_s / 12 / SAMPLES
    fast_cluster, fast_sent = _recorded_run("mdcc", None, 1.5)
    contended_cluster, contended_sent = _recorded_run("fast", 0.05, 4.0)
    visibility_message = _first(fast_sent, "Visibility")[1]
    accept, visibility = _state_probes(fast_cluster, fast_sent)
    wal_append, commit_delta, read = _storage_probes(fast_cluster, fast_sent)
    encode, decode, bytes_per_msg = _codec_probes(fast_sent)
    batches = {
        "sim.core.post_pop_ns": _post_pop,
        "sim.network.send_deliver_ns": _send_deliver(visibility_message, False),
        "sim.network.send_deliver_faulted_ns": _send_deliver(visibility_message, True),
        "transport.codec.encode_ns": encode,
        "transport.codec.decode_ns": decode,
        "core.state.accept_fast_ns": accept,
        "core.state.adopt_ns": _adopt_probe(contended_cluster, contended_sent),
        "core.state.apply_visibility_ns": visibility,
        "storage.wal_append_ns": wal_append,
        "storage.commit_delta_ns": commit_delta,
        "storage.read_ns": read,
    }
    probes: Dict[str, Callable[[], float]] = {
        name: (lambda batch=batch: _median_ns(batch, sample_s)) for name, batch in batches.items()
    }
    probes["transport.tcp.loopback_frame_ns"] = lambda: asyncio.run(
        _loopback_frame_ns(visibility_message, sample_s)
    )
    # One host-speed sample between every two probes: each probe is scaled
    # by the samples on either side of it.
    host = HostSpeed()
    results = {}
    before_s = host.sample()
    for name, probe in probes.items():
        measured_ns = probe()
        after_s = host.sample()
        results[name] = measured_ns * REFERENCE_S / ((before_s + after_s) / 2.0)
        before_s = after_s
    results["transport.codec.bytes_per_msg"] = bytes_per_msg
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-s", type=float, default=2.4)
    args = parser.parse_args()
    print(json.dumps(measure(args.budget_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
