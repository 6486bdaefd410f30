"""The transport abstraction protocol roles are written against.

Every protocol participant — coordinator, storage node, recovery agent,
anti-entropy sweeper — is an actor that sends messages, sets timers and
resolves futures.  None of that is specific to the discrete-event
simulator: the same role code runs unchanged above

* :class:`repro.transport.simnet.SimTransport` — the deterministic
  in-process testbed wrapping :mod:`repro.sim`, and
* :class:`repro.transport.tcp.AsyncioTcpTransport` — one OS process per
  node, length-prefixed frames over real sockets.

This module defines the neutral pieces: :class:`Future` (one-shot
completion tokens), :class:`Transport` (the interface both backends
implement) and :class:`Node` (the actor base class with the
``handle_<TypeName>`` dispatch convention).  It must not import anything
from :mod:`repro.sim` — the simulator depends on this module, not the
other way around.

:class:`Transport` has two groups of verbs.  Roles use ``now``,
``schedule``, ``future``, ``send``/``broadcast`` and ``register``.  The
run loop (:mod:`repro.bench.driver`, :mod:`repro.workloads.generator`,
the chaos controller) adds the three that *advance* a run — ``spawn`` a
client generator, ``run`` until a time, ``run_until`` a future resolves
— so one closed loop drives both backends: the simulator pops its event
heap, the TCP backend waits wall time on its asyncio loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable, Optional

__all__ = [
    "Future",
    "Node",
    "Transport",
    "TransportError",
    "all_of",
    "any_of",
]


class TransportError(RuntimeError):
    """Raised for transport/kernel misuse (negative delays, double resolve,
    running a dead loop, ...).  :data:`repro.sim.core.SimulationError` is an
    alias of this class, so existing ``except SimulationError`` sites catch
    transport-layer failures too."""


class Future:
    """A one-shot completion token.

    Protocol components resolve futures when a quorum is reached, a
    transaction commits, etc.  Client processes ``yield`` them to suspend
    until resolution.  A future may also be *failed* with an exception, which
    re-raises inside a waiting process.

    Futures are transport-neutral: callbacks run synchronously on whatever
    thread/loop resolves them (the simulator's event loop or the asyncio
    loop — both single-threaded).
    """

    __slots__ = ("sim", "_value", "_exception", "_done", "_callbacks")

    def __init__(self, owner: object = None):
        #: the owning scheduler, kept for debugging; historically the
        #: Simulator (hence the slot name), now any Transport or None.
        self.sim = owner
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._done = False
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """Return the resolved value; raise if failed or not yet done."""
        if not self._done:
            raise TransportError("Future.result() called before resolution")
        if self._exception is not None:
            raise self._exception
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully.  Resolving twice is an error."""
        if self._done:
            raise TransportError("Future already resolved")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._done:
            raise TransportError("Future already resolved")
        self._done = True
        self._exception = exc
        self._fire()

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve if not yet done; return whether this call resolved it.

        Used where several code paths race to complete the same token (e.g.
        a quorum response and a timeout).
        """
        if self._done:
            return False
        self.resolve(value)
        return True

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when resolved (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._done:
            return "<Future pending>"
        if self._exception is not None:
            return f"<Future failed {self._exception!r}>"
        return f"<Future value={self._value!r}>"


def all_of(owner: object, futures: Iterable[Future]) -> Future:
    """Return a future resolving with a list of results once all resolve.

    If any input fails, the aggregate fails with the first exception (in
    resolution order).
    """
    futures = list(futures)
    aggregate = Future(owner)
    if not futures:
        aggregate.resolve([])
        return aggregate
    remaining = [len(futures)]

    def on_done(_fut: Future) -> None:
        if aggregate.done:
            return
        if _fut._exception is not None:
            aggregate.fail(_fut._exception)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            aggregate.resolve([f.result() for f in futures])

    for fut in futures:
        fut.add_done_callback(on_done)
    return aggregate


def any_of(owner: object, futures: Iterable[Future]) -> Future:
    """Return a future resolving with the first completed input's result."""
    futures = list(futures)
    if not futures:
        raise TransportError("any_of() requires at least one future")
    aggregate = Future(owner)

    def on_done(fut: Future) -> None:
        if aggregate.done:
            return
        if fut._exception is not None:
            aggregate.fail(fut._exception)
        else:
            aggregate.resolve(fut.result())

    for fut in futures:
        fut.add_done_callback(on_done)
    return aggregate


class Transport:
    """What a protocol role may ask of its substrate.

    Implementations provide a clock, cancellable timers, futures, message
    delivery and node lifecycle.  Time is a ``float`` in **milliseconds**
    everywhere — virtual under the simulator, wall-clock (monotonic) under
    TCP — so protocol timeouts keep their meaning across backends.
    """

    @property
    def now(self) -> float:
        """Current time in milliseconds."""
        raise NotImplementedError

    def schedule(self, delay_ms: float, callback: Callable, *args: Any):
        """Run ``callback(*args)`` after ``delay_ms``; returns a handle
        with a ``cancel()`` method."""
        raise NotImplementedError

    def future(self) -> Future:
        """A fresh :class:`Future` bound to this transport."""
        return Future(self)

    def spawn(self, generator: Generator, name: str = "") -> Any:
        """Start a generator-based process now (the client model of
        :class:`repro.sim.core.Process`: it yields futures and delays).
        Returns the process; its ``completion`` future resolves with the
        generator's return value."""
        raise NotImplementedError

    def run(self, until: float, waiting_for: Optional[Iterable[Future]] = None) -> None:
        """Advance to time ``until`` (ms), delivering everything due on
        the way.

        ``waiting_for`` marks the advance as a *settle*: the caller has
        nothing to do but let in-flight work finish, and names the
        futures it is waiting on (possibly none).  Where waiting costs
        real time, ``until`` is then an upper bound — the backend returns
        as soon as those futures are done.  Simulated time is free, so
        the simulator always advances the whole span."""
        raise NotImplementedError

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        """Advance until ``future`` resolves and return its result; raise
        :class:`TransportError` if time ``limit`` (ms) passes first."""
        raise NotImplementedError

    def send(self, src_id: str, dst_id: str, message: object) -> None:
        """Deliver ``message`` to ``dst_id``, fire and forget."""
        raise NotImplementedError

    def broadcast(self, src_id: str, dst_ids: Iterable[str], message: object) -> int:
        """Send the same message to several destinations; returns the count."""
        count = 0
        for dst_id in dst_ids:
            self.send(src_id, dst_id, message)
            count += 1
        return count

    def register(self, node: "Node") -> None:
        """Attach a local node; its ``node_id`` must be unique."""
        raise NotImplementedError

    def deregister(self, node_id: str) -> None:
        """Detach a local node (decommission)."""
        raise NotImplementedError

    def base_rtt(self, dc_a: str, dc_b: str) -> float:
        """Advisory round-trip estimate between two data centers (ms).

        Read strategies use it to order replicas nearest-first.  Backends
        without link knowledge may return a constant — ordering then
        degrades gracefully to the caller's input order.
        """
        return 0.0 if dc_a == dc_b else 1.0


class Node:
    """A protocol actor: unique id, home data center, message dispatch.

    Message dispatch convention: ``on_message`` looks up a handler method
    named ``handle_<TypeName>`` (snake-cased message class name) and calls
    it as ``handler(message, src_id)``.  Unhandled messages raise — silence
    hides protocol bugs.

    All interaction with the outside world goes through ``self.transport``;
    subclasses written against this base run identically above the
    simulator and the TCP backend.
    """

    def __init__(self, transport: Transport, node_id: str, dc: str) -> None:
        self.transport = transport
        self.node_id = node_id
        self.dc = dc
        self._handler_cache: Dict[type, Optional[Callable]] = {}
        transport.register(self)

    # ------------------------------------------------------------------
    # Clock and futures
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current transport time in milliseconds."""
        return self.transport.now

    def future(self) -> Future:
        return self.transport.future()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst_id: str, message: object) -> None:
        """Send a message over the transport (latency applies)."""
        self.transport.send(self.node_id, dst_id, message)

    def broadcast(self, dst_ids, message: object) -> int:
        """Send ``message`` to every destination in ``dst_ids``."""
        return self.transport.broadcast(self.node_id, dst_ids, message)

    def on_message(self, message: object, src_id: str) -> None:
        # Single dict probe on the hot path: the cache maps message class
        # to the *bound* handler, resolved once per (node, type).  A miss
        # (None from .get) covers both "never resolved" and "no handler";
        # the slow path tells them apart and raises on the latter.
        try:
            handler = self._handler_cache[message.__class__]
        except KeyError:
            handler = None
        if handler is None:
            handler = self._resolve_handler(type(message))
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} {self.node_id!r} has no handler for "
                    f"{type(message).__name__}"
                )
        handler(message, src_id)

    def _resolve_handler(self, message_type: type) -> Optional[Callable]:
        if message_type not in self._handler_cache:
            name = "handle_" + _snake_case(message_type.__name__)
            self._handler_cache[message_type] = getattr(self, name, None)
        return self._handler_cache[message_type]

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable, *args: Any):
        """Schedule a local callback; returns a cancellable handle."""
        return self.transport.schedule(delay, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.node_id} @ {self.dc}>"


def _snake_case(name: str) -> str:
    out = []
    for index, char in enumerate(name):
        if char.isupper() and index > 0 and (
            not name[index - 1].isupper()
            or (index + 1 < len(name) and not name[index + 1].isupper())
        ):
            out.append("_")
        out.append(char.lower())
    return "".join(out)
