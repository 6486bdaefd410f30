"""Simulator-backed transport: the deterministic testbed.

Adapts the discrete-event :class:`~repro.sim.core.Simulator` and the
latency/fault-injecting :class:`~repro.sim.network.Network` to the
:class:`~repro.transport.base.Transport` interface.  Any number of nodes
share one ``SimTransport`` — delivery order, latency, drops and
partitions are all decided by the wrapped network, so protocol runs
replay exactly under a fixed seed.

Imports are type-checking-only to keep the dependency direction clean:
``repro.sim`` imports :mod:`repro.transport.base` for the neutral Future,
and this adapter only *holds* sim objects handed to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.transport.base import Future, Node, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Event, Process, Simulator
    from repro.sim.network import Network

__all__ = ["SimTransport"]


class SimTransport(Transport):
    """One shared transport over a (Simulator, Network) pair."""

    def __init__(self, sim: "Simulator", network: "Network") -> None:
        self.sim = sim
        self.network = network
        # Instance attributes shadow the class methods below: send/
        # broadcast/schedule share the Transport signatures with their
        # sim/network counterparts, so aliasing removes one pure-forward
        # frame from every message and timer on the hot path.
        self.send = network.send
        self.broadcast = network.broadcast
        self.schedule = sim.schedule

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay_ms: float, callback: Callable, *args: Any) -> "Event":
        return self.sim.schedule(delay_ms, callback, *args)

    def future(self) -> Future:
        # Bind to the simulator (not the adapter) so futures created by
        # roles and by drivers calling sim.future() are indistinguishable.
        return self.sim.future()

    def spawn(self, generator: Generator, name: str = "") -> "Process":
        return self.sim.spawn(generator, name=name)

    def run(self, until: float, waiting_for: Optional[Iterable[Future]] = None) -> None:
        # Simulated time is free: a settle advances the whole span too,
        # which keeps the fixed drains of the byte-identical artifacts.
        self.sim.run(until=until)

    def run_until(self, future: Future, limit: float = 1e9) -> Any:
        return self.sim.run_until(future, limit=limit)

    def send(self, src_id: str, dst_id: str, message: object) -> None:
        self.network.send(src_id, dst_id, message)

    def broadcast(self, src_id: str, dst_ids: Iterable[str], message: object) -> int:
        return self.network.broadcast(src_id, dst_ids, message)

    def register(self, node: Node) -> None:
        self.network.register(node)

    def deregister(self, node_id: str) -> None:
        self.network.deregister(node_id)

    def base_rtt(self, dc_a: str, dc_b: str) -> float:
        return self.network.latency.base_rtt(dc_a, dc_b)
