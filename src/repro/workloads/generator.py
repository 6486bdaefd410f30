"""Closed-loop client processes and workload statistics.

The evaluation drives every protocol with the same client model (§5.1):
clients "evenly distributed across all five data centers", each issuing
transactions back-to-back ("we forego the wait-time between requests").
:class:`ClientPool` spawns one process per client; each runs the
workload's transaction generator in a closed loop until the measurement
window ends.

The pool is written against the :class:`~repro.transport.base.Transport`
run verbs (``now``, ``spawn``, ``run``) and nothing else, so the same
loop — same key picks, same outcome accounting — drives the simulator
and a cluster of real processes over TCP; only what a millisecond costs
differs.

Statistics follow the paper's reporting: committed-write response-time
distributions (Figures 3 and 5 report only *write* transactions and only
*committed* ones for response times), commit/abort counts (Figure 6),
throughput (Figure 4), and a latency time series (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence

from repro.metrics import CounterSet, LatencyRecorder, TimeSeries

__all__ = ["ClientPool", "WorkloadStats"]


@dataclass
class WorkloadStats:
    """Everything a run's result is computed from."""

    write_latencies: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("write-tx")
    )
    read_latencies: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("read-tx")
    )
    abort_latencies: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("aborted-tx")
    )
    latency_series: TimeSeries = field(default_factory=lambda: TimeSeries("latency"))
    counters: CounterSet = field(default_factory=CounterSet)
    measure_start: float = 0.0
    measure_end: float = 0.0

    def note_outcome(
        self,
        now: float,
        latency_ms: float,
        committed: bool,
        is_write: bool,
        measuring: bool,
        interaction: str = "",
    ) -> None:
        if not measuring:
            return
        kind = "write" if is_write else "read"
        if committed:
            self.counters.increment(f"{kind}_commits")
            if interaction:
                self.counters.increment(f"wi.{interaction}.commits")
            if is_write:
                self.write_latencies.add(latency_ms, timestamp=now)
                self.latency_series.add(now, latency_ms)
            else:
                self.read_latencies.add(latency_ms, timestamp=now)
        else:
            self.counters.increment(f"{kind}_aborts")
            if interaction:
                self.counters.increment(f"wi.{interaction}.aborts")
            if is_write:
                self.abort_latencies.add(latency_ms, timestamp=now)

    @property
    def commits(self) -> int:
        return self.counters.get("write_commits")

    @property
    def aborts(self) -> int:
        return self.counters.get("write_aborts")

    def throughput_tps(self) -> float:
        """Committed write transactions per (simulated) second."""
        window = (self.measure_end - self.measure_start) / 1000.0
        if window <= 0:
            raise ValueError("empty measurement window")
        return self.commits / window


class ClientPool:
    """Spawns closed-loop clients over a cluster and collects statistics.

    ``transaction_factory(client, rng)`` must return a process
    generator (see :meth:`repro.transport.base.Transport.spawn`) that runs
    ONE transaction and returns ``(committed, is_write, interaction_name)``.
    """

    def __init__(
        self,
        cluster: Any,
        num_clients: int,
        transaction_factory: Callable,
        client_dcs: Optional[Sequence[str]] = None,
        stats: Optional[WorkloadStats] = None,
        admission: Optional[Callable] = None,
    ) -> None:
        """``admission(client, rng, now)`` — optional gate called before
        each transaction: return 0/None to proceed, or a pause in ms to
        keep the client idle (re-checked after the pause).  Pauses happen
        *outside* the latency measurement; the geoshift workload uses this
        to rotate the active client population across data centers."""
        self.cluster = cluster
        self.stats = stats or WorkloadStats()
        self._admission = admission
        datacenters = list(client_dcs or cluster.placement.datacenters)
        self.clients = [
            cluster.add_client(datacenters[i % len(datacenters)])
            for i in range(num_clients)
        ]
        self._factory = transaction_factory
        self._rngs = [
            cluster.rng.stream(f"workload.client.{i}") for i in range(num_clients)
        ]

    def run(self, warmup_ms: float, measure_ms: float) -> WorkloadStats:
        """Run the closed loop: warm-up, then the measurement window.

        The transport is advanced to the end of the measurement window;
        each client finishes the transaction it has in flight afterwards
        (see :meth:`drain`).
        """
        transport = self.cluster.transport
        start = transport.now
        measure_start = start + warmup_ms
        measure_end = measure_start + measure_ms
        self.stats.measure_start = measure_start
        self.stats.measure_end = measure_end

        self._processes = [
            transport.spawn(
                self._client_loop(client, self._rngs[index], measure_end),
                name=f"client-{index}",
            )
            for index, client in enumerate(self.clients)
        ]
        transport.run(until=measure_end)
        return self.stats

    def drain(self, ms: float = 10_000.0) -> None:
        """Let the clients' last transactions and in-flight messages
        (visibilities, acks) settle, for at most ``ms``."""
        transport = self.cluster.transport
        transport.run(
            until=transport.now + ms,
            waiting_for=[process.completion for process in self._processes],
        )

    def _client_loop(self, client: Any, rng: Any, stop_at: float) -> Generator:
        transport = self.cluster.transport
        while transport.now < stop_at:
            if self._admission is not None:
                pause = self._admission(client, rng, transport.now)
                if pause:
                    yield float(pause)
                    continue
            started = transport.now
            result = yield from self._factory(client, rng)
            committed, is_write, interaction = result
            measuring = (
                self.stats.measure_start <= started
                and transport.now <= self.stats.measure_end
            )
            self.stats.note_outcome(
                now=transport.now,
                latency_ms=transport.now - started,
                committed=committed,
                is_write=is_write,
                measuring=measuring,
                interaction=interaction,
            )
