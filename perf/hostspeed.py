"""How fast is the host right now?  A fixed piece of pure-Python work.

The box this benchmark was built on does not run at one speed: a fixed
loop takes 14 ms, then 21 ms, then 14 ms again — sometimes in stretches
of 5 to 60 seconds, sometimes several times a second — on each of its two
virtual cores separately; over an hour whole ten-run sets moved by a
third.  Raw wall-clock values of one program therefore spread by 20-45 %
between runs and drift by as much between sets, which no bound below
that could be held to.

So every wall-clock value the benchmark reports is scaled to a *reference
host*: one that runs :meth:`HostSpeed.sample` in :data:`REFERENCE_S`.
While a timed region runs, a timer takes a sample every
:data:`INTERVAL_S`; ``measured seconds x REFERENCE_S / mean(samples)`` is
what the region would have taken there (the samples' own time is taken
off first).  Ten minutes of alternating samples and 0.3-s simulator runs
gave a run-to-run spread (IQR / median of 20-s groups) of 17-27 % raw,
5-8 % scaled by the arithmetic loop alone, and 2-4 % scaled by the three
loops below together; a memory-walk loop made it worse and was left out.
Samples on either side of a 1.5-s region only, instead of inside it, left
9-11 % when the host was changing speed within a second.  (The TCP
workload, four processes on two processors, cannot be sampled inside its
regions and is not explained by samples beside them: it takes one scale
per repetition, see ``perf/tcp_load.py``.)

The sample must never change: it defines the unit of every wall-clock
metric.  It is deliberately shaped like the program — an event heap,
message objects, per-record dicts — but shares no code with it, so a
faster program does not make the reference host faster.
"""

from __future__ import annotations

import dataclasses
import heapq
import signal
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["INTERVAL_S", "REFERENCE_S", "HostSpeed"]

#: seconds one sample takes on the reference host (about what this box
#: needs in its fast stretches).
REFERENCE_S = 0.010
#: seconds from the end of one sample to the start of the next.
INTERVAL_S = 0.1
#: samples on either side of a region that is not sampled inside.
UNTICKED_SAMPLES = 3


@dataclasses.dataclass(frozen=True, slots=True)
class _Message:
    txid: str
    key: str
    delta: int
    ballot: Tuple[int, int, str]


class _Record:
    __slots__ = ("value", "version", "pending", "log")

    def __init__(self) -> None:
        self.value: Dict[str, int] = {"stock": 1_000_000, "price": 5}
        self.version = 0
        self.pending: Dict[str, _Message] = {}
        self.log: List[Tuple[str, int]] = []


class HostSpeed:
    """The reference work, and a timer that samples it while a region runs.

    ``start()`` takes one sample and arms an interval timer whose handler
    takes another every :data:`INTERVAL_S` — in the main thread, between
    two bytecodes of whatever is running, touching none of its state —
    until ``stop()`` takes a last one.  The host changes speed within a
    second, so samples on either side of a region are not enough; these
    are spread over it.  ``stop()`` says what they read and how much of
    the region's own wall and CPU time they took.
    """

    def __init__(self) -> None:
        self._replicas = [
            {f"item-{i}": _Record() for i in range(500)} for _replica in range(5)
        ]
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._now = 0.0
        self._posted = 0
        self._samples: List[float] = []
        self._inside_wall_s = 0.0
        self._inside_cpu_s = 0.0
        self._ticking = False
        self._previous_handler: Any = None
        #: between ``start()`` and ``stop()``.
        self.watching = False
        for _ in range(3):  # the first passes are slower: caches, specialisation
            self.sample()

    def sample(self) -> float:
        """Seconds the reference work takes right now."""
        start = time.perf_counter()
        self._arithmetic()
        self._events()
        self._allocation()
        return time.perf_counter() - start

    def start(self, tick: bool = True) -> None:
        """``tick=False`` leaves the timer off, for a region in which a
        stalled main thread would be measured as latency: it gets samples
        on either side only, so three of them each."""
        self._samples = [self.sample() for _ in range(1 if tick else UNTICKED_SAMPLES)]
        self._inside_wall_s = self._inside_cpu_s = 0.0
        self._ticking = tick
        self.watching = True
        if tick:
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def quiet(self) -> None:
        """No more timer samples until ``stop()``: for a stretch in which
        other processes of the workload compete for the processors, where
        a sample would read their load and not the host's speed."""
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._ticking = False

    def stop(self) -> Dict[str, float]:
        """``scale``: measured seconds x this = seconds on the reference
        host, by the ``samples`` taken since ``start()``; ``inside_wall_s``
        / ``inside_cpu_s``: what those taken after ``start()`` returned
        cost the region."""
        edge = 1 if self._ticking else UNTICKED_SAMPLES
        self.quiet()
        self.watching = False
        self._samples += [self.sample() for _ in range(edge)]
        return {
            "scale": REFERENCE_S / statistics.fmean(self._samples),
            "samples": list(self._samples),
            "inside_wall_s": self._inside_wall_s,
            "inside_cpu_s": self._inside_cpu_s,
        }

    def _tick(self, _signum: int, _frame: Any) -> None:
        cpu_start = time.process_time()
        sample_s = self.sample()
        self._samples.append(sample_s)
        self._inside_wall_s += sample_s
        self._inside_cpu_s += time.process_time() - cpu_start
        # Re-armed only now, so a slow sample cannot pile ticks up.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    # ------------------------------------------------------------------
    @staticmethod
    def _arithmetic() -> int:
        total = 0
        for i in range(60_000):
            total += i * i
        return total

    @staticmethod
    def _allocation() -> int:
        messages = [
            _Message(f"tx-{i}", f"item-{i % 500}", -1, (0, i, "c")) for i in range(3_000)
        ]
        return len(messages)

    def _events(self) -> None:
        """175 proposals, each accepted and learned at five replicas."""
        first = self._posted
        for i in range(175):
            self._post(i * 0.5, self._propose, first + i)
        heap = self._heap
        while heap:
            self._now, _order, callback, args = heapq.heappop(heap)
            callback(*args)

    def _post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        self._posted += 1
        heapq.heappush(self._heap, (self._now + delay, self._posted, callback, args))

    def _propose(self, i: int) -> None:
        message = _Message(f"tx-{i}", f"item-{(i * 7919) % 500}", -1, (0, 0, "c"))
        for replica in range(5):
            self._post(20.0 + (i * 31 + replica * 17) % 50, self._accept, replica, message)

    def _accept(self, replica: int, message: _Message) -> None:
        self._replicas[replica][message.key].pending[message.txid] = message
        self._post(20.0 + (replica * 13) % 40, self._learn, replica, message)

    def _learn(self, replica: int, message: _Message) -> None:
        record = self._replicas[replica][message.key]
        record.pending.pop(message.txid, None)
        value = dict(record.value)
        value["stock"] += message.delta
        record.value = value
        record.version += 1
        record.log.append((message.txid, record.version))
        if len(record.log) > 16:
            del record.log[:8]
