"""Deterministic discrete-event simulation kernel.

Time is a ``float`` measured in **milliseconds**, matching the units the MDCC
paper reports (wide-area round trips are hundreds of milliseconds).  The
kernel is intentionally small: an event heap, a virtual clock, cancellable
timers, futures, and a generator-based process runner used by workload
clients.

Determinism: the kernel itself introduces no randomness.  Events scheduled
for the same instant fire in schedule order (a monotonic sequence number
breaks ties), so a simulation driven by seeded RNG streams replays exactly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Optional

from repro.transport.base import Future, TransportError, all_of, any_of

__all__ = [
    "Event",
    "Future",
    "Process",
    "SimulationError",
    "Simulator",
    "all_of",
    "any_of",
]

# The neutral transport layer owns Future and the misuse exception; the
# historical names remain importable from here.  SimulationError *is*
# TransportError, so ``except SimulationError`` keeps catching failures
# raised by either layer.
SimulationError = TransportError


class Event:
    """A scheduled callback; a handle that allows cancellation.

    Instances are created by :meth:`Simulator.schedule` — not directly.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call more than once."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} #{self.seq} {state}>"


class Process:
    """A generator-based simulated process.

    The generator may yield:

    * a :class:`Future` — suspend until it resolves; ``yield`` evaluates to
      the future's result (or raises its exception),
    * a ``float``/``int`` delay in milliseconds — suspend for that long,
    * ``None`` — reschedule immediately (yield the event loop).

    The process's own :attr:`completion` future resolves with the
    generator's return value.
    """

    __slots__ = ("sim", "generator", "completion", "name", "_stopped")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.generator = generator
        self.completion = Future(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._stopped = False

    def stop(self) -> None:
        """Terminate the process; its completion future resolves to None."""
        if self._stopped or self.completion.done:
            return
        self._stopped = True
        self.generator.close()
        if not self.completion.done:
            self.completion.resolve(None)

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._stopped:
            return
        try:
            if throw is not None:
                yielded = self.generator.throw(throw)
            else:
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            if not self.completion.done:
                self.completion.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via future
            if not self.completion.done:
                self.completion.fail(exc)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if yielded is None:
            self.sim.post(0.0, self._step)
        elif isinstance(yielded, Future):
            yielded.add_done_callback(self._on_future)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self._step(throw=SimulationError("negative process delay"))
                return
            self.sim.post(float(yielded), self._step)
        else:
            self._step(
                throw=SimulationError(
                    f"process yielded unsupported value: {yielded!r}"
                )
            )

    def _on_future(self, fut: Future) -> None:
        # Resume on the next event so resolution-time callbacks finish first.
        if fut._exception is not None:
            exc = fut._exception
            self.sim.post(0.0, self._step, (None, exc))
        else:
            self.sim.post(0.0, self._step, (fut.result(),))


class Simulator:
    """The discrete-event loop: a heap of timestamped callbacks.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, node.tick)
        sim.spawn(client_process(sim))
        sim.run(until=60_000.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` ms; returns a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        event = Event(self._now + delay, next(self._seq), callback, args)
        # Heap entries are (time, seq, event) tuples so ordering compares
        # floats/ints at C speed instead of calling Event.__lt__.
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def post(self, delay: float, callback: Callable, args: tuple = ()) -> None:
        """Schedule a callback that will never be cancelled — no handle.

        The hot-path variant of :meth:`schedule`: message deliveries and
        process steps are fire-and-forget, so they skip the :class:`Event`
        allocation and go on the heap as bare ``(time, seq, callback,
        args)`` tuples.  Sequence numbers are unique, so heap ordering
        never compares past the second element and the two entry shapes
        mix freely.  Ordering is identical to :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), callback, args)
        )

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        return self.schedule(time - self._now, callback, *args)

    def future(self) -> Future:
        """Convenience constructor for a :class:`Future` bound to this sim."""
        return Future(self)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator-based process immediately (at the current time)."""
        process = Process(self, generator, name=name)
        self.post(0.0, process._step)
        return process

    def sleep(self, delay: float) -> Future:
        """Return a future that resolves after ``delay`` ms."""
        fut = Future(self)
        self.post(delay, fut.resolve, (None,))
        return fut

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once virtual time would exceed this (ms).  Events at
                exactly ``until`` still run.  The clock is advanced to
                ``until`` when the horizon is reached with work remaining.
            max_events: safety valve; raise if more events than this fire.

        Returns:
            Number of events processed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() re-entered")
        self._running = True
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        bounded = until is not None
        capped = max_events is not None
        try:
            while queue:
                entry = queue[0]
                # Fire-and-forget 4-tuples are the common shape, so test
                # for them first; only 3-tuple Event entries can cancel.
                if len(entry) == 4:
                    time = entry[0]
                    if bounded and time > until:
                        self._now = until
                        break
                    pop(queue)
                    self._now = time
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    if event.cancelled:
                        pop(queue)
                        continue
                    time = entry[0]
                    if bounded and time > until:
                        self._now = until
                        break
                    pop(queue)
                    self._now = time
                    event.callback(*event.args)
                processed += 1
                if capped and processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            else:
                if bounded and until > self._now:
                    self._now = until
        finally:
            self._running = False
            # Flushed once per run: nothing reads the counter mid-drain.
            self.events_processed += processed
        return processed

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        """Run until ``future`` resolves; return its result.

        Raises :class:`SimulationError` if the queue drains or the time
        limit passes without resolution — a deadlocked protocol, usually.
        """
        if self._running:
            raise SimulationError("Simulator.run_until() re-entered")
        self._running = True
        try:
            while not future.done:
                if not self._queue:
                    raise SimulationError(
                        "event queue drained before future resolved (deadlock?)"
                    )
                entry = heapq.heappop(self._queue)
                if len(entry) == 3 and entry[2].cancelled:
                    continue
                time = entry[0]
                if time > limit:
                    raise SimulationError(
                        f"future unresolved at time limit {limit} ms"
                    )
                self._now = time
                if len(entry) == 4:
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    event.callback(*event.args)
                self.events_processed += 1
        finally:
            self._running = False
        return future.result()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.3f} queue={len(self._queue)}>"
