"""Process plumbing for the TCP backend: serve, spawn, connect, reap.

A TCP deployment is the simulator's :class:`~repro.db.cluster.Cluster`
split across OS processes, each built by the one constructor the
simulator uses, from the topology file's
:class:`~repro.db.cluster.ClusterSpec` (:meth:`Topology.spec`) — so every
process derives the same placement, config and RNG streams.
``serve_node`` — the body of one ``repro serve`` process — is a cluster
hosting a single storage node, listening on its topology address until
told to shut down (SIGTERM/SIGINT or a ``@ctrl`` shutdown frame).
``run_topology`` — the driver behind ``repro run --transport tcp`` — is
a cluster hosting *no* storage node: it optionally spawns the servers,
hands (cluster, workload, schedule) to the one run driver
:func:`repro.bench.driver.run`, then shuts the servers down and reaps
them.

Nothing here drives a transaction.  The workload, the closed loop, the
ledger, the checkers and the fault timeline are the simulator's; what is
particular to real processes is (a) how time advances — the verbs of
:class:`~repro.transport.tcp.AsyncioTcpTransport`, (b) how a replica's
committed snapshot is obtained — :class:`RemoteCluster` reads it over
the wire, (c) how a fault event reaches every process —
:class:`~repro.transport.tcp.ClusterLinks`, and (d) spawning and reaping.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, Optional

from repro.bench.driver import RunResult, run
from repro.core.options import RecordId
from repro.db.cluster import Cluster
from repro.faults.schedule import FaultSchedule
from repro.storage.record import Snapshot
from repro.transport.base import TransportError, all_of
from repro.transport.tcp import AsyncioTcpTransport, ClusterLinks
from repro.transport.topology import NodeAddress, Topology
from repro.workloads.base import Workload

__all__ = [
    "RemoteCluster",
    "driver_transport",
    "host_node",
    "run_topology",
    "serve_node",
    "spawned_servers",
    "terminate_servers",
]

#: how long replicas of one record may keep disagreeing before
#: :meth:`RemoteCluster.committed_snapshots` reports them as they are
#: (visibilities are asynchronous; counted from the first snapshot read).
REPLICA_SETTLE_MS = 10_000.0
#: how long a replica may take to answer a snapshot read before it counts
#: as down — less than the coordinators' own read failover (4 × the learn
#: timeout), which would have another data center answer in its place.
REPLICA_READ_MS = 5_000.0


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
async def host_node(topology: Topology, node_id: str) -> AsyncioTcpTransport:
    """Host one storage node on the running loop: a :class:`Cluster` of
    that single node, its replicas populated from the topology's workload,
    listening on its topology address.  Returns the node's transport."""
    address = topology.nodes.get(node_id)
    if address is None:
        raise SystemExit(f"node {node_id!r} is not in the topology")
    transport = AsyncioTcpTransport(
        topology, local_dc=address.dc, listen=(address.host, address.port)
    )
    cluster = Cluster(topology.spec(), transport)
    node = cluster.add_storage_node(node_id, address.dc)
    topology.build_workload().populate(cluster)
    await transport.start()
    print(
        f"[serve] {node_id} ({address.dc}) listening on {address.host}:{address.port}, "
        f"{sum(node.store.count(table) for table in node.store.tables)} records preloaded",
        file=sys.stderr,
        flush=True,
    )
    return transport


async def _serve_async(topology: Topology, node_id: str) -> None:
    transport = await host_node(topology, node_id)
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, transport.shutdown_requested.set)
    await transport.shutdown_requested.wait()
    await transport.close()
    print(f"[serve] {node_id} shut down cleanly", file=sys.stderr, flush=True)


def serve_node(topology: Topology, node_id: str) -> int:
    """Entry point of one `repro serve` process, on its loaded topology."""
    asyncio.run(_serve_async(topology, node_id))
    return 0


# ----------------------------------------------------------------------
# Server process management (driver side)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def spawned_servers(
    topology_path: str, topology: Topology
) -> Iterator[Dict[str, subprocess.Popen]]:
    """One `repro serve` subprocess per topology node, each accepting
    connections by the time the block is entered (so a run's first dial
    lands instead of backing off) and none outliving it: whatever was
    started — even by a spawn that failed half-way — is killed and reaped
    on the way out."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    processes: Dict[str, subprocess.Popen] = {}
    try:
        for node_id in sorted(topology.nodes):
            processes[node_id] = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--topology",
                    topology_path,
                    "--node",
                    node_id,
                ],
                env=env,
            )
        for node_id, process in processes.items():
            _await_listening(node_id, topology.nodes[node_id], process)
        yield processes
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
            process.wait()


def _await_listening(node_id: str, address: NodeAddress, process: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30.0
    while process.poll() is None and time.monotonic() < deadline:
        try:
            socket.create_connection((address.host, address.port), timeout=1.0).close()
            return
        except OSError:
            time.sleep(0.01)
    raise TransportError(
        f"server {node_id} never listened on {address.host}:{address.port} "
        f"(exit code {process.poll()})"
    )


def terminate_servers(
    processes: Dict[str, subprocess.Popen], grace_s: float = 10.0
) -> Dict[str, int]:
    """Wait for the servers to exit by themselves; escalate to SIGTERM,
    then SIGKILL.  Returns every server's exit code — 0 only for one that
    shut down cleanly; a crash is its status, a signal the negative signal
    number (the CLI and the CI smoke job fail on any non-zero)."""
    deadline = time.monotonic() + grace_s
    for process in processes.values():
        try:
            process.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    return {node_id: process.returncode for node_id, process in processes.items()}


# ----------------------------------------------------------------------
# Driver process
# ----------------------------------------------------------------------
@contextlib.contextmanager
def driver_transport(topology: Topology) -> Iterator[AsyncioTcpTransport]:
    """A transport without a listening socket (replies ride the learned
    routes) on an event loop of its own, which the transport's run verbs
    drive; both are closed on the way out."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        transport = AsyncioTcpTransport(topology, local_dc=topology.datacenters[0])
        try:
            yield transport
        finally:
            loop.run_until_complete(transport.close())
    finally:
        asyncio.set_event_loop(None)
        loop.close()


class RemoteCluster(Cluster):
    """The driver's view of a topology: app servers here, every storage
    node in another process — so a replica's committed snapshot is a read
    over the wire, and link faults go through :class:`ClusterLinks`."""

    def __init__(self, topology: Topology, transport: AsyncioTcpTransport) -> None:
        super().__init__(topology.spec(), transport)
        self.network = ClusterLinks(transport)
        self._reader: Any = None

    def committed_snapshots(self, table: str, key: str) -> Dict[str, Snapshot]:
        """Every replica's snapshot, re-read while they disagree (bounded
        by :data:`REPLICA_SETTLE_MS`): visibilities are asynchronous."""
        transport, placement = self.transport, self.placement
        if self._reader is None:
            self._reader = self.add_client(placement.datacenters[0])
            self._settle_by = transport.now + REPLICA_SETTLE_MS
        while True:
            # One replica per data center, in data-center order.
            reads = [self._reader.read(table, key, dc=dc) for dc in placement.datacenters]
            try:
                replies = transport.run_until(
                    all_of(transport, reads), limit=transport.now + REPLICA_READ_MS
                )
            except TransportError:
                raise TransportError(f"no snapshot of {table}/{key}: is a server down?") from None
            if (
                all(reply.value == replies[0].value for reply in replies)
                or transport.now > self._settle_by
            ):
                return {
                    node_id: Snapshot(reply.exists, reply.value, reply.version)
                    for node_id, reply in zip(
                        placement.replicas(RecordId(table, key)), replies
                    )
                }
            transport.run(until=transport.now + 20.0)


def run_topology(
    topology: Topology,
    workload: Optional[Workload] = None,
    schedule: Optional[FaultSchedule] = None,
    *,
    spawn_from: Optional[str] = None,
    **run_keywords: Any,
) -> RunResult:
    """:func:`repro.bench.driver.run` against the cluster ``topology``
    describes; ``workload`` (default: the topology's, no access-pattern
    knobs), ``schedule`` and ``run_keywords`` are ``run``'s own arguments.

    With ``spawn_from`` — the file ``topology`` was loaded from, which
    every ``repro serve`` process reads — the servers are launched first
    and shut down afterwards; otherwise the cluster must already be
    listening and is left running.  ``result.extra["tcp"]`` holds the wire codec, the
    driver's frame counters and each spawned server's exit code.  Over
    TCP a schedule may only contain link-level faults
    (:attr:`ClusterLinks.ACTIONS`) — anything else, ``fail_dc_at``
    included, is rejected here, before any process exists.
    """
    actions = {event.action for event in schedule.events} if schedule else set()
    if run_keywords.get("fail_dc_at") is not None:
        actions.add("fail-dc")
    if actions - ClusterLinks.ACTIONS:
        raise TransportError(
            f"{', '.join(sorted(actions - ClusterLinks.ACTIONS))} cannot reach a cluster "
            f"of processes; only {', '.join(sorted(ClusterLinks.ACTIONS))} can"
        )
    servers = contextlib.nullcontext({})
    if spawn_from is not None:
        servers = spawned_servers(spawn_from, topology)
    with servers as processes:
        with driver_transport(topology) as transport:
            result = run(
                RemoteCluster(topology, transport),
                workload or topology.build_workload(),
                schedule,
                **run_keywords,
            )
            if processes:
                transport.run_until(transport.ctrl_all({"op": "shutdown"}))
        result.extra["tcp"] = {
            "codec": transport.codec_name,
            "frames": dict(transport.stats),
            "servers": terminate_servers(processes),
        }
    return result
