"""Asyncio TCP transport: one OS process per node, real sockets, wall clocks.

Frames are ``4-byte big-endian length | codec tag | payload`` (see
:mod:`repro.transport.codec`); an envelope carries ``src``/``src_dc``/
``dst`` plus the encoded message.  Routing, in order:

1. **local** — the destination is hosted by this transport: dispatch on
   the next loop tick;
2. **learned** — a peer we have heard from: reply down the connection its
   frame arrived on (this is how storage nodes answer driver
   coordinators, which have no listening address);
3. **topology** — a configured server address: lazily dial with
   exponential backoff, queueing frames per destination until the
   connection lands.

**One socket write per connection per loop tick, or per chunk received
when its handlers did the sending.**  ``send`` never writes: a frame
joins its connection's pending list and one ``_flush`` writes each list
out joined — so the frames one handler call sends to one peer (a
server's replies to a driver's transactions, say) are one ``send(2)``,
in ``send`` order.  The
flush has two triggers and no timer or size threshold: the end of the
chunk being received, when the sends came from its handlers (a request
is parsed, dispatched and answered in one loop iteration), otherwise
``call_soon``, the end of the loop iteration.  ``close()`` flushes first.
A message object sent to several destinations between two flushes is
encoded and serialised once (memo keyed by object identity, emptied by
the same ``_flush``); only the envelope header, cached per (src, dst),
differs per destination.  Inbound, a connection is a protocol object,
not a task: ``data_received`` dispatches every complete frame of the
chunk before it returns; an oversized or undecodable frame is logged,
counted as dropped and closes *that* connection, after what the frames
before it were owed has been written.

A framing-layer **nemesis** applies per-(src DC, dst DC) link faults —
drop / extra delay / duplicate — on the outbound path, so the PR 2 chaos
schedules drive real processes the same way they drive the simulator.
It decides per logical frame, in ``send``, before the frame is queued
(a delayed frame is queued when its timer fires).  Control frames
addressed to ``@ctrl`` administer a remote transport: ``shutdown``,
``set_link``, ``heal``, ``ping``.

``stats`` counts logical frames — ``sent``, ``received``, ``dropped``
(nemesis, no route, bad frame), ``duplicated`` — and what crossed the
sockets: ``writes`` / ``bytes_sent`` and ``reads`` / ``bytes_received``
(``sent / writes`` is frames per socket write, ``received / reads``
frames per chunk read), plus ``write_pauses``, the times a socket's send
buffer passed its high-water mark.  ``ping`` returns them.

Time here is wall-clock (``time.monotonic``), still reported in
milliseconds so protocol timeouts keep their configured meaning.  The
run-loop verbs (``spawn`` / ``run`` / ``run_until``) step the same client
generators the simulator steps, off Future callbacks, and wait wall time
on the transport's own loop — they are for a driver that owns that loop
and is not itself running inside it.

:class:`ClusterLinks` is the simulated network's fault state machine over
a cluster of processes: of the faults it can hold it can apply the link
policies and the uniform loss, by keeping the driver's own nemesis and
— over ``@ctrl`` — every server's in line with them.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import struct
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from collections import deque

from repro.sim.core import Process
from repro.sim.network import DEFAULT_RTT_MATRIX, LinkPolicy, Network
from repro.trace import runtime as trace_runtime
from repro.transport import codec as wire
from repro.transport.base import Future, Node, Transport, TransportError, all_of
from repro.transport.topology import Topology

__all__ = ["AsyncioTcpTransport", "ClusterLinks", "LinkFault", "CTRL_DST"]

CTRL_DST = "@ctrl"
_CTRL_REPLY = "@ctrl-reply"

_LEN = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024

#: dial retry/backoff schedule (seconds): fast first attempts for a
#: cluster that is still starting up, then a steady 1 s cadence.
_BACKOFF_S = (0.05, 0.1, 0.2, 0.4, 0.8)
_BACKOFF_MAX_S = 1.0
_DIAL_GIVE_UP_S = 30.0


@dataclass(frozen=True)
class LinkFault:
    """Outbound fault policy for one (src DC, dst DC) link."""

    drop_rate: float = 0.0
    extra_latency_ms: float = 0.0
    duplicate: bool = False


class _Connection(asyncio.Protocol):
    """One TCP connection, dialled or accepted: the receive path, and the
    handle ``_flush`` writes to."""

    def __init__(self, owner: "AsyncioTcpTransport") -> None:
        self._owner = owner
        self._buffer = bytearray()
        #: resolved once the socket is gone; ``close()`` awaits it
        self.closed: asyncio.Future = owner._loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # what ``_flush`` and ``close()`` ask of a connection, its socket does
        self.write, self.is_closing, self.close = (
            transport.write, transport.is_closing, transport.close
        )
        self._owner._connections.add(self)
        if self._owner._closed:  # accepted while ``close()`` was under way
            transport.close()

    def data_received(self, data: bytes) -> None:
        """Dispatch every complete frame of ``data`` and write out what
        the handlers sent, in this loop iteration.  An oversized or
        undecodable frame costs the peer this connection and nobody else
        theirs."""
        owner, buffer = self._owner, self._buffer
        owner.stats["reads"] += 1
        owner.stats["bytes_received"] += len(data)
        buffer += data
        start, bad_frame = 0, None
        owner._receiving = True
        try:
            while len(buffer) - start >= _LEN.size:
                (length,) = _LEN.unpack_from(buffer, start)
                if length > _MAX_FRAME:
                    raise TransportError(f"frame of {length} bytes exceeds limit")
                end = start + _LEN.size + length
                if end > len(buffer):
                    break
                owner._on_frame(bytes(buffer[start + _LEN.size : end]), self)
                start = end
            del buffer[:start]
        except TransportError as exc:
            bad_frame = exc
        finally:
            owner._receiving = False
            if owner._flush_scheduled:
                owner._flush()
        if bad_frame is not None:
            owner.stats["dropped"] += 1
            print(f"[transport] closing a connection on a bad frame: {bad_frame}", file=sys.stderr)
            self.close()

    def pause_writing(self) -> None:
        self._owner.stats["write_pauses"] += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # reached at EOF too: by default the loop then closes our side
        self._owner._forget(self)
        self.closed.set_result(None)


class AsyncioTcpTransport(Transport):
    """A per-process transport hosting one or more local nodes.

    Must be created (and used) inside a running asyncio event loop; all
    protocol callbacks execute on that loop, preserving the single-threaded
    execution model roles were written under.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        local_dc: str,
        listen: Optional[Tuple[str, int]] = None,
        codec: Optional[str] = None,
        nemesis_seed: Optional[int] = None,
    ) -> None:
        self.topology = topology
        self.local_dc = local_dc
        self._listen = listen
        self._codec, warning = wire.resolve_codec(codec or topology.codec)
        if warning:
            print(f"[transport] {warning}", file=sys.stderr)
        #: the codec actually framing the wire (may differ from the
        #: topology's request when msgpack degraded to JSON)
        self.codec_name = self._codec.name
        self._loop = asyncio.get_event_loop()
        self._t0 = time.monotonic()
        self._nodes: Dict[str, Node] = {}
        #: every open connection, dialled or accepted
        self._connections: set = set()
        #: configured peers we dialed: node_id -> connection
        self._writers: Dict[str, _Connection] = {}
        #: peers learned from inbound frames: node_id -> (connection, src_dc)
        self._learned: Dict[str, Tuple[_Connection, str]] = {}
        self._queues: Dict[str, Deque[bytes]] = {}
        #: frames bound for each connection since the last flush
        self._pending: Dict[_Connection, List[bytes]] = {}
        #: id(message) -> (message, serialised body) for this loop tick:
        #: holding the message keeps its id from being reused meanwhile
        self._bodies: Dict[int, Tuple[object, bytes]] = {}
        #: (src, dst) -> the frame payload either side of the body
        self._affixes: Dict[Tuple[str, str], Tuple[bytes, bytes]] = {}
        self._flush_scheduled = False
        #: inside ``data_received``: the chunk's end is the flush trigger
        self._receiving = False
        self._dial_tasks: Dict[str, asyncio.Task] = {}
        self._ctrl_tasks: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._faults: Dict[Tuple[str, str], LinkFault] = {}
        self._nemesis_rng = random.Random(
            topology.seed if nemesis_seed is None else nemesis_seed
        )
        self._ctrl_seq = itertools.count(1)
        self._ctrl_waiters: Dict[int, asyncio.Future] = {}
        self._closed = False
        self.shutdown_requested = asyncio.Event()
        #: logical frames, then what crossed the sockets (``sent / writes`` =
        #: frames per socket write, ``received / reads`` = frames per chunk)
        self.stats = dict.fromkeys(
            ("sent", "received", "dropped", "duplicated", "writes", "bytes_sent",
             "reads", "bytes_received", "write_pauses"), 0
        )

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def schedule(self, delay_ms: float, callback: Callable, *args: Any):
        if delay_ms < 0:
            raise TransportError(f"negative delay: {delay_ms}")
        return self._loop.call_later(delay_ms / 1000.0, callback, *args)

    def register(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise TransportError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node

    def deregister(self, node_id: str) -> None:
        self._nodes.pop(node_id, None)

    def post(self, delay_ms: float, callback: Callable, args: tuple = ()) -> None:
        """:meth:`repro.sim.core.Simulator.post` on the asyncio loop — what
        a :class:`~repro.sim.core.Process` steps itself with."""
        self._loop.call_later(delay_ms / 1000.0, callback, *args)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        process = Process(self, generator, name=name)
        self._loop.call_soon(process._step)
        return process

    def _advance(self, until: float, done: Optional[Future]) -> None:
        """Run the loop until time ``until``, or until ``done`` resolves."""
        if done is not None:
            done.add_done_callback(lambda _done: self._loop.stop())
        # Re-checked after every stop: a future an earlier, timed-out wait
        # was watching may stop the loop while this one is still pending.
        while self.now < until and not (done is not None and done.done):
            timer = self._loop.call_later((until - self.now) / 1000.0, self._loop.stop)
            self._loop.run_forever()
            timer.cancel()

    def run(self, until: float, waiting_for: Optional[Iterable[Future]] = None) -> None:
        # A settle (``waiting_for`` given): wall time is not free, so stop
        # as soon as the work the caller is waiting on is done.
        self._advance(until, None if waiting_for is None else all_of(self, waiting_for))

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        self._advance(limit, future)
        if not future.done:
            raise TransportError(f"future unresolved at time limit {limit} ms")
        return future.result()

    def base_rtt(self, dc_a: str, dc_b: str) -> float:
        # Advisory only (read-strategy ordering); reuse the evaluation's
        # EC2 distance table when it knows both regions.
        if dc_a == dc_b:
            return 0.0
        return DEFAULT_RTT_MATRIX.get(frozenset((dc_a, dc_b)), 1.0)

    def send(self, src_id: str, dst_id: str, message: object) -> None:
        if self._closed:
            return
        ctx = trace_runtime.current_context()
        if dst_id in self._nodes:
            # Same process: skip framing and nemesis (intra-DC loopback).
            # The ambient trace context is gone by the time call_soon runs
            # the handler, so carry it explicitly.
            if ctx is not None:
                self._loop.call_soon(
                    self._dispatch_traced, dst_id, message, src_id, ctx
                )
            else:
                self._loop.call_soon(self._dispatch, dst_id, message, src_id)
            return
        dst_dc = self.topology.dc_of(dst_id)
        if dst_dc is None and dst_id in self._learned:
            dst_dc = self._learned[dst_id][1]
        src_dc = self._nodes[src_id].dc if src_id in self._nodes else self.local_dc
        frame = self._message_frame(src_id, src_dc, dst_id, message, ctx)
        fault = self._faults.get((src_dc, dst_dc)) if dst_dc else None
        if fault is not None:
            if fault.drop_rate and self._nemesis_rng.random() < fault.drop_rate:
                self.stats["dropped"] += 1
                return
            copies = 2 if fault.duplicate else 1
            if fault.duplicate:
                self.stats["duplicated"] += 1
            if fault.extra_latency_ms > 0:
                for _ in range(copies):
                    self._loop.call_later(
                        fault.extra_latency_ms / 1000.0, self._transmit, dst_id, frame
                    )
                return
            for _ in range(copies):
                self._transmit(dst_id, frame)
            return
        self._transmit(dst_id, frame)

    def broadcast(self, src_id: str, dst_ids: Iterable[str], message: object) -> int:
        count = 0
        for dst_id in dst_ids:
            self.send(src_id, dst_id, message)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the listening socket (server processes only)."""
        if self._listen is not None:
            host, port = self._listen
            self._server = await self._loop.create_server(
                lambda: _Connection(self), host, port
            )

    async def close(self) -> None:
        """Graceful shutdown: stop dialing and listening, write out what
        is pending, close every connection and wait until it is gone."""
        self._closed = True
        self._flush()
        for task in [*self._dial_tasks.values(), *self._ctrl_tasks]:
            task.cancel()
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.close()
        await asyncio.gather(*(connection.closed for connection in connections))
        if self._server is not None:
            await self._server.wait_closed()
        self._queues.clear()

    # ------------------------------------------------------------------
    # Nemesis
    # ------------------------------------------------------------------
    def set_link_fault(
        self,
        src_dc: str,
        dst_dc: str,
        *,
        drop_rate: float = 0.0,
        extra_latency_ms: float = 0.0,
        duplicate: bool = False,
    ) -> None:
        """Fault every outbound frame from ``src_dc`` to ``dst_dc``.

        Only frames *sent by this process* are affected; the driver pushes
        the same fault to the relevant server processes over ``@ctrl``.
        """
        self._faults[(src_dc, dst_dc)] = LinkFault(
            drop_rate=drop_rate,
            extra_latency_ms=extra_latency_ms,
            duplicate=duplicate,
        )

    def heal_all(self) -> None:
        self._faults.clear()

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    async def ctrl(self, dst_id: str, op: Dict[str, Any], timeout_s: float = 10.0):
        """Send a control op to ``dst_id``'s transport; await its ack."""
        req_id = next(self._ctrl_seq)
        waiter: asyncio.Future = self._loop.create_future()
        self._ctrl_waiters[req_id] = waiter
        envelope = {
            "src": f"ctrl-{id(self)}",
            "src_dc": self.local_dc,
            "dst": CTRL_DST,
            "msg": {**op, "req_id": req_id},
        }
        try:
            self._transmit(dst_id, self._frame(envelope))
            return await asyncio.wait_for(waiter, timeout_s)
        finally:
            self._ctrl_waiters.pop(req_id, None)

    def ctrl_all(self, op: Dict[str, Any]) -> Future:
        """Send ``op`` to every topology server without waiting; the
        returned future resolves once each has acknowledged or 5 s passed.
        An unreachable or already-gone server must not stop the others
        from being told, so failures are not raised."""
        told = self.future()

        async def tell() -> None:
            await asyncio.gather(
                *(self.ctrl(n, op, timeout_s=5.0) for n in sorted(self.topology.nodes)),
                return_exceptions=True,
            )
            told.resolve(None)

        task = self._loop.create_task(tell())
        self._ctrl_tasks.add(task)
        task.add_done_callback(self._ctrl_tasks.discard)
        return told

    def _handle_ctrl(self, envelope: Dict[str, Any], connection: _Connection) -> None:
        op = envelope["msg"]
        kind = op.get("op")
        result: Dict[str, Any] = {"req_id": op.get("req_id"), "ok": True}
        if kind == "shutdown":
            self.shutdown_requested.set()
        elif kind == "set_link":
            self.set_link_fault(
                op["src_dc"],
                op["dst_dc"],
                drop_rate=float(op.get("drop_rate", 0.0)),
                extra_latency_ms=float(op.get("extra_latency_ms", 0.0)),
                duplicate=bool(op.get("duplicate", False)),
            )
        elif kind == "heal":
            self.heal_all()
        elif kind == "ping":
            result["now_ms"] = self.now
            result["stats"] = dict(self.stats)
        else:
            result["ok"] = False
            result["error"] = f"unknown ctrl op {kind!r}"
        reply = {
            "src": envelope["dst"],
            "src_dc": self.local_dc,
            "dst": _CTRL_REPLY,
            "msg": result,
        }
        self._write_frame(connection, self._frame(reply))

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _frame(self, envelope: Dict[str, Any]) -> bytes:
        payload = wire.encode_frame_payload(envelope, self._codec)
        return _LEN.pack(len(payload)) + payload

    def _message_frame(
        self, src_id: str, src_dc: str, dst_id: str, message: object, ctx: Optional[tuple]
    ) -> bytes:
        """The frame carrying ``message``: its body is encoded and
        serialised once per loop tick however many destinations it goes
        to (messages are frozen, so same object ⇒ same bytes); only the
        header — cached per (src, dst) unless it carries a trace context —
        is per destination."""
        memo = self._bodies.get(id(message))
        if memo is None:
            memo = self._bodies[id(message)] = (message, self._codec.dumps(wire.encode(message)))
            self._schedule_flush()  # which also empties the memo
        affixes = self._affixes.get((src_id, dst_id)) if ctx is None else None
        if affixes is None:
            envelope = {"src": src_id, "src_dc": src_dc, "dst": dst_id, "msg": wire.BODY}
            if ctx is not None:
                envelope["trace"] = [ctx[0], ctx[1]]
            affixes = wire.split_frame_payload(envelope, self._codec)
            if ctx is None:
                self._affixes[(src_id, dst_id)] = affixes
        payload = affixes[0] + memo[1] + affixes[1]
        return _LEN.pack(len(payload)) + payload

    def _write_frame(self, connection: _Connection, frame: bytes) -> None:
        """Queue ``frame`` for ``connection``; everything queued before
        the next flush leaves in one write per connection."""
        self._pending.setdefault(connection, []).append(frame)
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            if not self._receiving:  # else ``data_received`` flushes, at chunk end
                self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        self._bodies.clear()
        pending, self._pending = self._pending, {}
        for connection, frames in pending.items():
            if not connection.is_closing():
                data = b"".join(frames)
                connection.write(data)
                self.stats["writes"] += 1
                self.stats["bytes_sent"] += len(data)

    def _transmit(self, dst_id: str, frame: bytes) -> None:
        learned = self._learned.get(dst_id)
        if learned is not None and not learned[0].is_closing():
            self._write_frame(learned[0], frame)
            self.stats["sent"] += 1
            return
        writer = self._writers.get(dst_id)
        if writer is not None and not writer.is_closing():
            self._write_frame(writer, frame)
            self.stats["sent"] += 1
            return
        if dst_id in self.topology.nodes:
            self._queues.setdefault(dst_id, deque()).append(frame)
            if dst_id not in self._dial_tasks or self._dial_tasks[dst_id].done():
                self._dial_tasks[dst_id] = self._loop.create_task(self._dial(dst_id))
            return
        # No route at all: a driver that disconnected, or a typo'd id.
        self.stats["dropped"] += 1

    async def _dial(self, dst_id: str) -> None:
        address = self.topology.nodes[dst_id]
        deadline = time.monotonic() + _DIAL_GIVE_UP_S
        attempt = 0
        while not self._closed:
            try:
                # Replies from the peer come back on this same connection.
                _socket, connection = await self._loop.create_connection(
                    lambda: _Connection(self), address.host, address.port
                )
            except (ConnectionError, OSError):
                if time.monotonic() > deadline:
                    dropped = len(self._queues.pop(dst_id, ()))
                    self.stats["dropped"] += dropped
                    print(
                        f"[transport] giving up dialing {dst_id} at "
                        f"{address.host}:{address.port} ({dropped} frames dropped)",
                        file=sys.stderr,
                    )
                    return
                backoff = _BACKOFF_S[attempt] if attempt < len(_BACKOFF_S) else _BACKOFF_MAX_S
                attempt += 1
                await asyncio.sleep(backoff)
                continue
            self._writers[dst_id] = connection
            for frame in self._queues.pop(dst_id, ()):
                self._write_frame(connection, frame)
                self.stats["sent"] += 1
            return

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def _forget(self, connection: _Connection) -> None:
        """Drop every route that led down ``connection``, which is gone."""
        self._connections.discard(connection)
        stale = [peer for peer, (c, _dc) in self._learned.items() if c is connection]
        for peer in stale:
            del self._learned[peer]
        for route in [route for route in self._affixes if route[1] in stale]:
            del self._affixes[route]
        for peer in [peer for peer, c in self._writers.items() if c is connection]:
            del self._writers[peer]

    def _on_frame(self, payload: bytes, connection: _Connection) -> None:
        envelope = wire.decode_frame_payload(payload)
        self.stats["received"] += 1
        src = envelope.get("src", "")
        dst = envelope.get("dst", "")
        if src and not src.startswith("ctrl-"):
            self._learned[src] = (connection, envelope.get("src_dc", ""))
        if dst == CTRL_DST:
            self._handle_ctrl(envelope, connection)
            return
        if dst == _CTRL_REPLY:
            waiter = self._ctrl_waiters.get(envelope["msg"].get("req_id"))
            if waiter is not None and not waiter.done():
                waiter.set_result(envelope["msg"])
            return
        message = wire.decode(envelope["msg"])
        trace = envelope.get("trace")
        if trace is not None:
            self._dispatch_traced(dst, message, src, (trace[0], trace[1]))
        else:
            self._dispatch(dst, message, src)

    def _dispatch_traced(
        self, dst_id: str, message: object, src_id: str, ctx: tuple
    ) -> None:
        """Deliver with the sender's trace context as the ambient context,
        so spans opened by the handler stitch across the wire."""
        previous = trace_runtime.set_context(ctx)
        try:
            self._dispatch(dst_id, message, src_id)
        finally:
            trace_runtime.reset_context(previous)

    def _dispatch(self, dst_id: str, message: object, src_id: str) -> None:
        node = self._nodes.get(dst_id)
        if node is None:
            self.stats["dropped"] += 1
            return
        try:
            node.on_message(message, src_id)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the server
            print(
                f"[transport] handler error on {dst_id} for "
                f"{type(message).__name__}: {exc!r}",
                file=sys.stderr,
            )


class ClusterLinks(Network):
    """The fabric of a cluster of processes, as the chaos controller sees it.

    A :class:`~repro.sim.network.Network` that hosts no node and carries no
    message: the fault bookkeeping, the subscriber hook and the heal are
    the simulated fabric's, but instead of deciding each message's fate
    itself it keeps the framing nemesis of *every* process — a fault on a
    DC pair must bite wherever a frame is sent on that link — set to what
    its state implies: this driver's transport directly, each topology
    server's over ``set_link`` / ``heal`` control frames.  The nemesis
    knows one fault per directed link: a link policy and the uniform drop
    rate compose into it (independent losses), and a policy's
    ``jitter_sigma`` has no counterpart there — it is dropped, and the
    event log says so.  ``stats`` stays empty: frames are counted by the
    transports (``AsyncioTcpTransport.stats``, ``ping``).
    """

    #: the schedule actions this fabric can apply; an outage, partition,
    #: crash or membership change cannot reach other processes.
    ACTIONS = frozenset({"degrade-link", "restore-link", "drop-rate"})

    def __init__(self, transport: AsyncioTcpTransport) -> None:
        super().__init__(transport)  # a Network reads only its clock's ``now``
        self.transport = transport

    def _notify(self, event: str, **details: object) -> None:
        if "jitter_sigma" in details:
            details["jitter_sigma_dropped"] = details.pop("jitter_sigma")
        super()._notify(event, **details)
        self._push()

    def set_drop_rate(self, rate: float) -> None:
        super().set_drop_rate(rate)
        self._push()

    def heal_all(self) -> None:
        super().heal_all()
        self.transport.heal_all()
        self.transport.ctrl_all({"op": "heal"})

    def _push(self) -> None:
        """Bring every directed link's nemesis fault in line with the state."""
        if not self._fault_free:
            raise TransportError(f"only link faults reach every process: {self.active_faults()}")
        datacenters = self.transport.topology.datacenters
        for link in itertools.product(datacenters, repeat=2):
            policy = self.link_policy(*link) or LinkPolicy()
            fault = LinkFault(
                drop_rate=1.0 - (1.0 - self.drop_rate) * (1.0 - policy.drop_rate),
                extra_latency_ms=policy.extra_latency_ms,
            )
            if self.transport._faults.get(link, LinkFault()) != fault:
                self.transport._faults[link] = fault
                self.transport.ctrl_all(
                    {"op": "set_link", "src_dc": link[0], "dst_dc": link[1], **asdict(fault)}
                )
