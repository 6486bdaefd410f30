"""Closed-loop client processes and workload statistics.

The evaluation drives every protocol with the same client model (§5.1):
clients "evenly distributed across all five data centers", each issuing
transactions back-to-back ("we forego the wait-time between requests").
:class:`ClientPool` spawns one simulated process per client; each runs the
workload's transaction generator in a closed loop until the measurement
window ends.

Statistics follow the paper's reporting: committed-write response-time
distributions (Figures 3 and 5 report only *write* transactions and only
*committed* ones for response times), commit/abort counts (Figure 6),
throughput (Figure 4), and a latency time series (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

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

    ``transaction_factory(client, rng)`` must return a simulation
    generator (see :class:`repro.sim.core.Process`) that runs ONE
    transaction and returns ``(committed, is_write, interaction_name)``.
    """

    def __init__(
        self,
        cluster,
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

        The simulation is advanced to the end of the measurement window
        plus a drain period for in-flight visibilities.
        """
        sim = self.cluster.sim
        start = sim.now
        measure_start = start + warmup_ms
        measure_end = measure_start + measure_ms
        self.stats.measure_start = measure_start
        self.stats.measure_end = measure_end

        for index, client in enumerate(self.clients):
            sim.spawn(
                self._client_loop(client, self._rngs[index], measure_end),
                name=f"client-{index}",
            )
        sim.run(until=measure_end)
        return self.stats

    def drain(self, ms: float = 10_000.0) -> None:
        """Let in-flight messages (visibilities, acks) settle."""
        self.cluster.sim.run(until=self.cluster.sim.now + ms)

    def _client_loop(self, client, rng, stop_at: float) -> Generator:
        sim = self.cluster.sim
        while sim.now < stop_at:
            if self._admission is not None:
                pause = self._admission(client, rng, sim.now)
                if pause:
                    yield float(pause)
                    continue
            started = sim.now
            result = yield from self._factory(client, rng)
            committed, is_write, interaction = result
            measuring = (
                self.stats.measure_start <= started
                and sim.now <= self.stats.measure_end
            )
            self.stats.note_outcome(
                now=sim.now,
                latency_ms=sim.now - started,
                committed=committed,
                is_write=is_write,
                measuring=measuring,
                interaction=interaction,
            )
