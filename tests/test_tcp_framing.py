"""The TCP transport's send and receive paths, one process, real sockets.

What the protocol roles cannot see but pay for: frames bound for one
connection in one event-loop iteration leave in one socket write, a
message object sent to several destinations is encoded and serialised
once, the framing nemesis decides per logical frame exactly as it did
before writes were coalesced, the receive path dispatches the same
messages however the byte stream is cut, and a chunk of requests is
answered — in one write — before ``data_received`` returns.
"""

import asyncio
import contextlib
import socket
import struct

import pytest

from repro.api import ClusterSpec
from repro.core import messages
from repro.transport import codec, tcp
from repro.transport.base import Node
from repro.transport.tcp import AsyncioTcpTransport
from repro.transport.topology import Topology, make_local_topology

LOOPBACK = ("us-west", "us-east", "eu-west")

SINKS = ("sink-a", "sink-b", "sink-c")


class _Recorder(Node):
    def __init__(self, transport, node_id, dc="us-west"):
        super().__init__(transport, node_id, dc)
        self.got = []

    def on_message(self, message, src_id):
        self.got.append((src_id, message))


def _request(i):
    return messages.ReadRequest(table="items", key=f"item:{i:06d}", request_id=i)


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _until(condition, timeout_s=5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


@contextlib.asynccontextmanager
async def _star():
    """A client transport and three single-node server transports, every
    connection already dialled: ``(client, {sink id: its recorder})``."""
    topology = Topology.from_dict(
        {
            "datacenters": ["us-west"],
            "nodes": {
                sink: {"dc": "us-west", "host": "127.0.0.1", "port": _free_port()}
                for sink in SINKS
            },
        }
    )
    servers, sinks = [], {}
    client = AsyncioTcpTransport(topology, local_dc="us-west")
    _Recorder(client, "source")
    try:
        for sink in SINKS:
            address = topology.nodes[sink]
            server = AsyncioTcpTransport(
                topology, local_dc="us-west", listen=(address.host, address.port)
            )
            servers.append(server)
            sinks[sink] = _Recorder(server, sink)
            await server.start()
            client.send("source", sink, _request(0))
        await _until(lambda: all(len(sink.got) == 1 for sink in sinks.values()))
        yield client, sinks
    finally:
        for transport in (client, *servers):
            await transport.close()


def _record_writes(client):
    """Every ``writer.write`` of the client's dialled connections, as
    ``(destination, bytes)`` in call order."""
    writes = []
    for dst, writer in client._writers.items():
        original = writer.write

        def recording(data, dst=dst, original=original):
            writes.append((dst, bytes(data)))
            original(data)

        writer.write = recording
    return writes


def _frames(data):
    """The frame payloads of a byte stream."""
    payloads = []
    while data:
        (length,) = struct.unpack(">I", data[:4])
        payloads.append(data[4 : 4 + length])
        data = data[4 + length :]
    return payloads


# ----------------------------------------------------------------------
# One write per destination per loop tick
# ----------------------------------------------------------------------
def test_sends_to_one_destination_in_one_tick_leave_in_one_write():
    async def scenario():
        async with _star() as (client, sinks):
            writes = _record_writes(client)
            before = dict(client.stats)
            sent = [_request(i) for i in range(1, 6)]
            for message in sent:
                client.send("source", "sink-a", message)
            assert writes == [], "nothing is written before the tick ends"
            await _until(lambda: len(sinks["sink-a"].got) == 6)
            assert [dst for dst, _data in writes] == ["sink-a"]
            decoded = [
                codec.decode(codec.decode_frame_payload(payload)["msg"])
                for payload in _frames(writes[0][1])
            ]
            assert decoded == sent, "frames keep send order inside the write"
            assert [message for _src, message in sinks["sink-a"].got[1:]] == sent
            assert client.stats["sent"] - before["sent"] == 5  # logical frames
            assert client.stats["writes"] - before["writes"] == 1
            assert client.stats["bytes_sent"] - before["bytes_sent"] == len(writes[0][1])

    asyncio.run(scenario())


def test_sends_to_three_destinations_are_three_writes():
    async def scenario():
        async with _star() as (client, sinks):
            writes = _record_writes(client)
            for i in (1, 2, 3):  # interleaved: a b c a b c a b c
                for sink in SINKS:
                    client.send("source", sink, _request(i))
            await _until(lambda: all(len(sink.got) == 4 for sink in sinks.values()))
            assert sorted(dst for dst, _data in writes) == sorted(SINKS)
            for sink in sinks.values():
                assert [m.request_id for _src, m in sink.got] == [0, 1, 2, 3]

    asyncio.run(scenario())


def test_frames_queued_while_dialling_join_the_same_path():
    async def scenario():
        port = _free_port()
        topology = Topology.from_dict(
            {
                "datacenters": ["us-west"],
                "nodes": {"sink-a": {"dc": "us-west", "host": "127.0.0.1", "port": port}},
            }
        )
        client = AsyncioTcpTransport(topology, local_dc="us-west")
        server = AsyncioTcpTransport(topology, local_dc="us-west", listen=("127.0.0.1", port))
        sink = _Recorder(server, "sink-a")
        try:
            for i in range(4):  # no connection yet: queued behind the dial
                client.send("source", "sink-a", _request(i))
            await server.start()
            await _until(lambda: len(sink.got) == 4)
            assert [m.request_id for _src, m in sink.got] == [0, 1, 2, 3]
            assert client.stats["sent"] == 4 and client.stats["writes"] == 1
        finally:
            await client.close()
            await server.close()

    asyncio.run(scenario())


def test_shutdown_ack_survives_close():
    """``repro serve``'s loop wakes on the shutdown frame and closes the
    transport in the tick the ack was queued: close() must write it out."""

    async def scenario():
        async with _star() as (client, sinks):
            server = sinks["sink-b"].transport

            async def serve():
                await server.shutdown_requested.wait()
                await server.close()

            serving = asyncio.ensure_future(serve())
            ack = await client.ctrl("sink-b", {"op": "shutdown"}, timeout_s=5.0)
            assert ack["ok"] is True
            await asyncio.wait_for(serving, 5.0)

    asyncio.run(scenario())


def test_ping_reports_the_write_counters():
    async def scenario():
        async with _star() as (client, sinks):
            for i in range(3):
                sinks["sink-c"].transport.send("sink-c", "source", _request(i))
            stats = (await client.ctrl("sink-c", {"op": "ping"}))["stats"]
            assert stats["sent"] == 3 and stats["writes"] == 1
            assert stats["bytes_sent"] > 0

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# One encode per message object per tick
# ----------------------------------------------------------------------
def test_one_object_to_three_destinations_is_encoded_once(monkeypatch):
    calls = {"encode": 0, "dumps": 0}
    encode, dumps = codec.encode, codec.JsonCodec.dumps

    def counting_encode(obj):
        calls["encode"] += 1
        return encode(obj)

    def counting_dumps(obj):
        calls["dumps"] += 1
        return dumps(obj)

    async def scenario():
        async with _star() as (client, sinks):
            monkeypatch.setattr(codec, "encode", counting_encode)
            monkeypatch.setattr(codec.JsonCodec, "dumps", staticmethod(counting_dumps))
            message = _request(1)
            assert client.broadcast("source", SINKS, message) == 3
            assert calls == {"encode": 1, "dumps": 1}
            # identity, not equality: an equal but distinct object is new work
            client.send("source", "sink-a", _request(1))
            assert calls == {"encode": 2, "dumps": 2}
            assert len(client._bodies) == 2
            await _until(lambda: len(sinks["sink-a"].got) == 3)
            assert client._bodies == {}, "the memo never outlives the tick"
            # ... so the same object in a later tick is encoded again
            client.send("source", "sink-b", message)
            assert calls == {"encode": 3, "dumps": 3}
            await _until(lambda: len(sinks["sink-b"].got) == 3)
            for sink in sinks.values():
                assert all(m == message for _src, m in sink.got[1:])

    asyncio.run(scenario())


def test_memo_is_emptied_even_when_every_frame_was_dropped():
    async def scenario():
        async with _star() as (client, sinks):
            client.set_link_fault("us-west", "us-west", drop_rate=1.0)
            client.send("source", "sink-a", _request(1))
            assert len(client._bodies) == 1 and client.stats["dropped"] == 1
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert client._bodies == {}

    asyncio.run(scenario())


def test_trace_context_rides_the_header_not_the_memoised_body():
    from repro.trace import runtime as trace_runtime

    async def scenario():
        async with _star() as (client, sinks):
            writes = _record_writes(client)
            message = _request(1)
            client.send("source", "sink-a", message)
            previous = trace_runtime.set_context(("trace-9", "span-4"))
            try:
                client.send("source", "sink-b", message)
            finally:
                trace_runtime.reset_context(previous)
            await _until(lambda: len(sinks["sink-b"].got) == 2)
            envelopes = {
                dst: codec.decode_frame_payload(_frames(data)[0]) for dst, data in writes
            }
            assert "trace" not in envelopes["sink-a"]
            assert envelopes["sink-b"]["trace"] == ["trace-9", "span-4"]
            assert envelopes["sink-a"]["msg"] == envelopes["sink-b"]["msg"]
            # a traced header is never the cached one
            assert all(b"trace" not in suffix for _prefix, suffix in client._affixes.values())

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Nemesis: per logical frame, same draws as before writes were coalesced
# ----------------------------------------------------------------------
#: copies transmitted per send — 0 dropped, 2 duplicated — captured at the
#: parent commit (immediate writes, reflective codec) with the same seed,
#: faults and send sequence.
PARENT_DECISIONS = [1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 0, 1, 0, 2, 1, 0, 0, 1, 1, 2, 1]


def test_nemesis_decisions_equal_the_parents_for_a_fixed_seed():
    async def scenario():
        topology = make_local_topology(
            ClusterSpec(datacenters=LOOPBACK, partitions_per_table=1, seed=5),
            items=10,
            ports=[7001, 7002, 7003],
        )
        transport = AsyncioTcpTransport(topology, local_dc="us-west", nemesis_seed=42)
        transmitted = []
        transport._transmit = lambda dst_id, frame: transmitted.append(dst_id)
        transport.set_link_fault("us-west", "us-east", drop_rate=0.4, duplicate=True)
        transport.set_link_fault("us-west", "eu-west", drop_rate=0.25)
        nodes = sorted(topology.nodes)  # eu-west, us-east, us-west
        decisions = []
        try:
            for i in range(24):
                before = len(transmitted)
                transport.send("app-1", nodes[i % 3], _request(i))
                decisions.append(len(transmitted) - before)
        finally:
            await transport.close()
        assert decisions == PARENT_DECISIONS
        assert transport.stats["dropped"] == 7 and transport.stats["duplicated"] == 3

    asyncio.run(scenario())


def test_a_delayed_frame_is_written_when_its_timer_fires():
    async def scenario():
        async with _star() as (client, sinks):
            writes = _record_writes(client)
            client.set_link_fault("us-west", "us-west", extra_latency_ms=30.0, duplicate=True)
            client.send("source", "sink-a", _request(1))
            await asyncio.sleep(0.005)
            assert writes == [] and client.stats["sent"] == 3  # the dial-up frames only
            await _until(lambda: len(sinks["sink-a"].got) == 3)
            assert len(writes) == 1 and len(_frames(writes[0][1])) == 2  # both copies, one write
            assert client.stats["duplicated"] == 1

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Receive side: the same messages however the stream is cut
# ----------------------------------------------------------------------
class _FakeSocket:
    """What a connection uses of its asyncio transport, which reports a
    closed connection lost on the next tick, once."""

    def __init__(self, connection):
        self.connection = connection
        self.closing = False
        self.written = []
        connection.connection_made(self)

    def write(self, data):
        self.written.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(self.connection.connection_lost, None)


class _Echo(Node):
    """Answers every message with the same message."""

    def __init__(self, transport, node_id, dc="us-west"):
        super().__init__(transport, node_id, dc)
        self.got = []

    def on_message(self, message, src_id):
        self.got.append((src_id, message))
        self.transport.send(self.node_id, src_id, message)


def _hosting(node_class):
    """A transport hosting one ``node_class`` node, "sink", and one
    connection to it over a fake socket: ``(transport, sink, connection,
    socket)``.  Needs a running loop."""
    topology = make_local_topology(
        ClusterSpec(datacenters=LOOPBACK, partitions_per_table=1),
        items=10,
        ports=[7001, 7002, 7003],
    )
    transport = AsyncioTcpTransport(topology, local_dc="us-west")
    sink = node_class(transport, "sink")
    connection = tcp._Connection(transport)
    return transport, sink, connection, _FakeSocket(connection)


def _wire(sent, src="peer"):
    byte_codec = codec.JsonCodec()
    data = b""
    for message in sent:
        envelope = {"src": src, "src_dc": "us-west", "dst": "sink", "msg": codec.encode(message)}
        payload = codec.encode_frame_payload(envelope, byte_codec)
        data += struct.pack(">I", len(payload)) + payload
    return data


def _written(sock):
    """The messages of each write made to ``sock``."""
    return [
        [codec.decode(codec.decode_frame_payload(payload)["msg"]) for payload in _frames(data)]
        for data in sock.written
    ]


def _stream():
    sent = [
        messages.ReadRequest(table="items", key="item:000001", request_id=1),
        messages.RcVote(txid="tx-1", dc="eu-west", accept=True, voter="store-eu-west-p0"),
        messages.ReadRequest(table="items", key="k" * 300, request_id=2),
        messages.SnapshotAck(request_id=2, node_id="n", records_adopted=4, wal_cut=1),
    ]
    return sent, _wire(sent)


def _cuts(data):
    first = 4 + struct.unpack(">I", data[:4])[0]
    return {
        "all at once": [data],
        "one byte at a time": [data[i : i + 1] for i in range(len(data))],
        "mid-header": [data[: first + 2], data[first + 2 :]],
        "mid-payload": [data[: first + 20], data[first + 20 : first + 60], data[first + 60 :]],
    }


@pytest.mark.parametrize("cut", ["all at once", "one byte at a time", "mid-header", "mid-payload"])
def test_receive_loop_dispatches_the_same_messages_however_the_stream_is_cut(cut):
    sent, data = _stream()

    async def scenario():
        transport, sink, connection, sock = _hosting(_Recorder)
        chunks = _cuts(data)[cut]
        for chunk in chunks:
            connection.data_received(chunk)
        if not connection.eof_received():  # falsy: the loop closes our side
            sock.close()
        await asyncio.sleep(0)
        assert [message for _src, message in sink.got] == sent
        assert transport.stats["received"] == len(sent)
        assert transport.stats["reads"] == len(chunks)
        assert transport.stats["bytes_received"] == len(data)
        assert sock.closing and "peer" not in transport._learned
        assert sock.written == [] and transport._connections == set()
        await transport.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# A chunk is parsed, dispatched and answered inside data_received
# ----------------------------------------------------------------------
def test_a_chunk_of_requests_is_answered_in_one_write_before_data_received_returns():
    sent = [_request(i) for i in range(1, 6)]

    async def scenario():
        transport, sink, connection, sock = _hosting(_Echo)
        connection.data_received(_wire(sent))
        # no await since: this is the loop iteration that read the bytes
        assert _written(sock) == [sent]
        assert not transport._flush_scheduled and transport._bodies == {}
        assert transport.stats["sent"] == 5 and transport.stats["writes"] == 1
        assert transport.stats["received"] == 5 and transport.stats["reads"] == 1
        await asyncio.sleep(0)
        assert len(sock.written) == 1, "no deferred flush was left behind"
        await transport.close()

    asyncio.run(scenario())


def test_a_bad_frame_mid_chunk_costs_the_connection_after_the_earlier_replies_left(capfd):
    good = [_request(1), _request(2)]
    garbage = struct.pack(">I", 10) + b"J{not json"

    async def scenario():
        transport, sink, connection, sock = _hosting(_Echo)
        bystander = tcp._Connection(transport)
        bystander_sock = _FakeSocket(bystander)
        connection.data_received(_wire(good) + garbage + _wire([_request(3)]))
        assert [message for _src, message in sink.got] == good
        assert _written(sock) == [good], "the replies already owed still left"
        assert transport.stats["dropped"] == 1 and transport.stats["received"] == 2
        assert sock.closing and not bystander_sock.closing
        assert not transport._receiving
        bystander.data_received(_wire([_request(4)], src="other"))
        assert _written(bystander_sock) == [[_request(4)]]
        await transport.close()

    asyncio.run(scenario())
    assert capfd.readouterr().err.count("closing a connection on a bad frame") == 1


def test_a_send_outside_any_receive_leaves_on_the_next_tick_in_one_write():
    async def scenario():
        transport, sink, connection, sock = _hosting(_Recorder)
        connection.data_received(_wire([_request(0)]))  # "peer" is learned; no answer
        assert sock.written == [] and not transport._flush_scheduled
        replies = [_request(1), _request(2)]
        for message in replies:
            transport.send("sink", "peer", message)
        assert sock.written == [] and transport._flush_scheduled
        await asyncio.sleep(0)
        assert _written(sock) == [replies]
        assert transport._bodies == {} and not transport._flush_scheduled
        await transport.close()

    asyncio.run(scenario())


def test_a_chunk_arriving_with_a_flush_already_scheduled_writes_every_frame_once():
    async def scenario():
        transport, sink, connection, sock = _hosting(_Echo)
        connection.data_received(_wire([_request(0)]))
        assert _written(sock) == [[_request(0)]]
        transport.send("sink", "peer", _request(1))  # schedules the call_soon flush
        assert transport._flush_scheduled and len(sock.written) == 1
        connection.data_received(_wire([_request(2), _request(3)]))
        assert _written(sock)[1:] == [[_request(1), _request(2), _request(3)]]
        await asyncio.sleep(0)  # the flush scheduled earlier finds nothing
        await asyncio.sleep(0)
        assert len(sock.written) == 2 and not transport._flush_scheduled
        assert transport.stats["sent"] == 4 and transport.stats["writes"] == 2
        await transport.close()

    asyncio.run(scenario())


def test_a_send_buffer_over_its_high_water_mark_is_counted_and_nothing_else():
    async def scenario():
        transport, sink, connection, sock = _hosting(_Recorder)
        connection.data_received(_wire([_request(0)]))
        connection.pause_writing()  # what the loop calls at the high-water mark
        assert transport.stats["write_pauses"] == 1
        transport.send("sink", "peer", _request(1))
        await asyncio.sleep(0)
        assert _written(sock) == [[_request(1)]], "count only: writes go on"
        await transport.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# What close() and a dial give-up owe
# ----------------------------------------------------------------------
def _lone_sink(port):
    return Topology.from_dict(
        {
            "datacenters": ["us-west"],
            "nodes": {"sink-a": {"dc": "us-west", "host": "127.0.0.1", "port": port}},
        }
    )


def test_frames_lost_to_a_dial_give_up_are_counted_as_dropped(monkeypatch, capfd):
    monkeypatch.setattr(tcp, "_DIAL_GIVE_UP_S", 0.0)

    async def scenario():
        client = AsyncioTcpTransport(_lone_sink(_free_port()), local_dc="us-west")  # closed port
        for i in range(3):
            client.send("source", "sink-a", _request(i))
        await asyncio.wait_for(client._dial_tasks["sink-a"], 5.0)
        assert client.stats["dropped"] == 3 and client.stats["sent"] == 0
        assert client._queues == {}
        await client.close()

    asyncio.run(scenario())
    assert "(3 frames dropped)" in capfd.readouterr().err


def test_close_closes_and_awaits_a_connection_that_never_sent_a_frame():
    async def scenario():
        port = _free_port()
        server = AsyncioTcpTransport(
            _lone_sink(port), local_dc="us-west", listen=("127.0.0.1", port)
        )
        await server.start()
        with socket.create_connection(("127.0.0.1", port)) as probe:
            await _until(lambda: len(server._connections) == 1)
            await server.close()
            probe.setblocking(False)
            assert probe.recv(1) == b"", "EOF, by the time close() returned"
        assert server._connections == set()

    asyncio.run(scenario())
