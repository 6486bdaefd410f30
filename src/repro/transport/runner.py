"""Processes for the TCP backend: `repro serve` and the workload driver.

``serve_node`` is the body of one ``repro serve`` process — a single
storage node listening on its topology address until told to shut down
(SIGTERM/SIGINT or a ``@ctrl`` shutdown frame).

``run_tcp_workload`` is the driver behind ``repro run --transport tcp``:
it hosts app-server coordinators over an :class:`AsyncioTcpTransport`
(no listening socket — replies ride the learned routes), optionally
spawns the server processes itself, drives micro-benchmark buy
transactions, and returns a JSON-friendly result.  The driver reuses the
workload's seeded RNG streams, so the transaction *mix* is reproducible
even though wall-clock interleaving is not.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics import CounterSet, LatencyRecorder
from repro.sim.rng import RngRegistry
from repro.transport.base import Future, TransportError
from repro.transport.tcp import AsyncioTcpTransport
from repro.transport.topology import Topology

__all__ = [
    "run_flaky_wan_parity",
    "run_tcp_workload",
    "serve_node",
    "spawn_server_processes",
    "terminate_servers",
]

ITEMS_TABLE = "items"


def _await_future(fut: Future) -> "asyncio.Future":
    """Bridge a transport Future into the running asyncio loop."""
    loop = asyncio.get_event_loop()
    result: asyncio.Future = loop.create_future()

    def on_done(done: Future) -> None:
        if result.done():
            return
        try:
            result.set_result(done.result())
        except BaseException as exc:  # noqa: BLE001 - surface via the await
            result.set_exception(exc)

    fut.add_done_callback(on_done)
    return result


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
async def _serve_async(topology: Topology, node_id: str) -> None:
    from repro.protocols.base import get_protocol
    from repro.workloads.micro import MicroBenchmark

    address = topology.nodes.get(node_id)
    if address is None:
        raise SystemExit(f"node {node_id!r} is not in the topology")
    placement = topology.build_placement()
    config = topology.build_config()
    transport = AsyncioTcpTransport(
        topology, local_dc=address.dc, listen=(address.host, address.port)
    )
    node = get_protocol(topology.protocol).make_storage_node(
        transport,
        node_id,
        address.dc,
        placement=placement,
        config=config,
        counters=CounterSet(),
    )
    node.store.register_table(MicroBenchmark.schema())
    preloaded = 0
    for key, stock in topology.local_records(node_id, placement):
        node.store.record(ITEMS_TABLE, key).commit_value({"stock": stock})
        preloaded += 1
    await transport.start()
    print(
        f"[serve] {node_id} ({address.dc}) listening on "
        f"{address.host}:{address.port}, {preloaded} records preloaded",
        file=sys.stderr,
        flush=True,
    )
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, transport.shutdown_requested.set)
    await transport.shutdown_requested.wait()
    await transport.close()
    print(f"[serve] {node_id} shut down cleanly", file=sys.stderr, flush=True)


def serve_node(topology_path: str, node_id: str) -> int:
    """Entry point of one `repro serve` process."""
    topology = Topology.load(topology_path)
    asyncio.run(_serve_async(topology, node_id))
    return 0


# ----------------------------------------------------------------------
# Server process management (driver side)
# ----------------------------------------------------------------------
def spawn_server_processes(
    topology_path: str, topology: Topology
) -> Dict[str, subprocess.Popen]:
    """One `repro serve` subprocess per topology node."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    processes = {}
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
    return processes


async def _shutdown_servers(
    transport: AsyncioTcpTransport, node_ids: Sequence[str]
) -> None:
    for node_id in node_ids:
        # An unreachable or already-gone server must not stop the others
        # from being told; terminate_servers() escalates for stragglers.
        with contextlib.suppress(asyncio.TimeoutError, TransportError, OSError):
            await transport.ctrl(node_id, {"op": "shutdown"}, timeout_s=5.0)


def terminate_servers(
    processes: Dict[str, subprocess.Popen], grace_s: float = 10.0
) -> List[str]:
    """Wait for clean exits; escalate to SIGKILL.  Returns ids that had
    to be killed (the CI smoke job asserts this list is empty)."""
    killed: List[str] = []
    deadline = time.monotonic() + grace_s
    for node_id, process in processes.items():
        remaining = max(0.1, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                killed.append(node_id)
    return killed


# ----------------------------------------------------------------------
# Workload driver
# ----------------------------------------------------------------------
def _pick_buy(keys: Sequence[str], rng) -> Tuple[List[str], List[int]]:
    """The micro-benchmark's buy: up to 3 distinct keys, each with a
    decrement of 1-3 (keys first, then amounts — the RNG draw order)."""
    chosen: List[str] = []
    while len(chosen) < min(3, len(keys)):
        key = keys[rng.randrange(len(keys))]
        if key not in chosen:
            chosen.append(key)
    return chosen, [rng.randint(1, 3) for _ in chosen]


async def _drive_client(
    coordinator,
    commutative: bool,
    topology: Topology,
    rng,
    transactions: int,
    latencies: LatencyRecorder,
    outcomes: Dict[str, int],
    tx_timeout_s: float,
) -> None:
    from repro.db.client import Transaction

    keys = topology.item_keys()
    for _ in range(transactions):
        chosen, amounts = _pick_buy(keys, rng)
        tx = Transaction(coordinator, commutative=commutative)
        started = time.monotonic()
        try:
            for key in chosen:
                await asyncio.wait_for(
                    _await_future(tx.read(ITEMS_TABLE, key)), tx_timeout_s
                )
            for key, amount in zip(chosen, amounts):
                tx.decrement(ITEMS_TABLE, key, "stock", amount)
            outcome = await asyncio.wait_for(
                _await_future(tx.commit()), tx_timeout_s
            )
        except asyncio.TimeoutError:
            outcomes["timeouts"] += 1
            continue
        latencies.add((time.monotonic() - started) * 1000.0)
        if outcome.committed:
            outcomes["committed"] += 1
            if outcome.fast_path:
                outcomes["fast_path"] += 1
        else:
            outcomes["aborted"] += 1


def _driver_side(topology: Topology, clients: int, dcs: Sequence[str], tag: str):
    """The driver process's half of a TCP run: one non-listening transport
    hosting ``clients`` app-server coordinators round-robin over ``dcs``.

    Returns ``(transport, roles, commutative, drivers)`` — ``roles`` the
    placement/config/counters keywords every role constructor takes,
    ``drivers`` one ``(coordinator, seeded rng stream)`` per client.
    """
    from repro.protocols.base import get_protocol

    descriptor = get_protocol(topology.protocol)
    config = topology.build_config()
    roles = dict(placement=topology.build_placement(), config=config, counters=CounterSet())
    transport = AsyncioTcpTransport(topology, local_dc=dcs[0], listen=None)
    rng_registry = RngRegistry(seed=topology.seed)
    drivers = []
    for index in range(clients):
        dc = dcs[index % len(dcs)]
        coordinator = descriptor.make_client(
            transport, f"app-{dc}-{tag}{index + 1}", dc, **roles
        )
        drivers.append((coordinator, rng_registry.stream(f"workload.client.{index}")))
    commutative = descriptor.supports_commutative and config.commutative_enabled
    return transport, roles, commutative, drivers


async def _run_workload_async(
    topology: Topology,
    *,
    clients: int,
    transactions_per_client: int,
    client_dcs: Optional[Sequence[str]],
    tx_timeout_s: float,
    shutdown_servers: bool,
) -> Dict[str, object]:
    dcs = list(client_dcs) if client_dcs else list(topology.datacenters)
    transport, _roles, commutative, drivers = _driver_side(topology, clients, dcs, "driver")
    latencies = LatencyRecorder("tcp.commit")
    outcomes = {"committed": 0, "aborted": 0, "fast_path": 0, "timeouts": 0}
    started = time.monotonic()
    tasks = [
        _drive_client(
            coordinator,
            commutative,
            topology,
            rng,
            transactions_per_client,
            latencies,
            outcomes,
            tx_timeout_s,
        )
        for coordinator, rng in drivers
    ]
    try:
        await asyncio.gather(*tasks)
    finally:
        if shutdown_servers:
            await _shutdown_servers(transport, sorted(topology.nodes))
        await transport.close()
    elapsed_s = time.monotonic() - started
    total = outcomes["committed"] + outcomes["aborted"]
    return {
        "transport": "tcp",
        "protocol": topology.protocol,
        "codec": transport.codec_name,
        "seed": topology.seed,
        "clients": clients,
        "transactions_per_client": transactions_per_client,
        "transactions": total,
        "committed": outcomes["committed"],
        "aborted": outcomes["aborted"],
        "fast_path_commits": outcomes["fast_path"],
        "timeouts": outcomes["timeouts"],
        "wall_clock_s": round(elapsed_s, 3),
        "throughput_tps": round(total / elapsed_s, 3) if elapsed_s > 0 else 0.0,
        "latency_ms": {
            key: round(value, 3)
            for key, value in sorted(latencies.summary().items())
        },
        "frames": dict(transport.stats),
    }


# ----------------------------------------------------------------------
# Chaos parity: the flaky-wan schedule against the real backend
# ----------------------------------------------------------------------
async def _set_cluster_link(
    transport: AsyncioTcpTransport,
    topology: Topology,
    src_dc: str,
    dst_dc: str,
    **fault,
) -> None:
    """Apply one link fault on the driver and every server process."""
    if fault:
        transport.set_link_fault(src_dc, dst_dc, **fault)
    else:
        transport.clear_link_fault(src_dc, dst_dc)
    op = {"op": "set_link", "src_dc": src_dc, "dst_dc": dst_dc, **fault}
    for node_id in sorted(topology.nodes):
        with contextlib.suppress(asyncio.TimeoutError):
            await transport.ctrl(node_id, op, timeout_s=5.0)


async def _heal_cluster(transport: AsyncioTcpTransport, topology: Topology) -> None:
    transport.heal_all()
    for node_id in sorted(topology.nodes):
        with contextlib.suppress(asyncio.TimeoutError):
            await transport.ctrl(node_id, {"op": "heal"}, timeout_s=5.0)


async def _flaky_wan_nemesis(
    transport: AsyncioTcpTransport, topology: Topology, scale_s: float
) -> None:
    """The PR 2 flaky-wan schedule, scaled to ``scale_s`` wall seconds.

    Same shape as :func:`repro.faults.schedule._flaky_wan`: a degraded
    us-west↔us-east link (extra latency + 10% loss), a background 2%
    loss on everything, and a flapping eu-west↔us-east route; all healed
    before the end.
    """
    both = lambda a, b, **f: [(a, b, f), (b, a, f)]  # noqa: E731
    await asyncio.sleep(0.20 * scale_s)
    for src, dst, fault in both(
        "us-west", "us-east", drop_rate=0.10, extra_latency_ms=40.0
    ):
        await _set_cluster_link(transport, topology, src, dst, **fault)
    background = [
        (a, b)
        for a in topology.datacenters
        for b in topology.datacenters
        if a != b and {a, b} != {"us-west", "us-east"}
    ]
    for src, dst in background:
        await _set_cluster_link(transport, topology, src, dst, drop_rate=0.02)
    # Flap eu-west<->us-east: 4 cycles of total blackout / recovery.
    half_period = 0.075 * scale_s / 2.0
    for _cycle in range(4):
        for src, dst, fault in both("eu-west", "us-east", drop_rate=1.0):
            await _set_cluster_link(transport, topology, src, dst, **fault)
        await asyncio.sleep(half_period)
        for src, dst in (("eu-west", "us-east"), ("us-east", "eu-west")):
            await _set_cluster_link(transport, topology, src, dst, drop_rate=0.02)
        await asyncio.sleep(half_period)
    await asyncio.sleep(0.10 * scale_s)
    await _heal_cluster(transport, topology)


async def _chaos_client(
    coordinator, commutative, topology: Topology, rng, stop: asyncio.Event, ledger: Dict
) -> Dict[str, int]:
    """Issue buys until ``stop``; record committed deltas in ``ledger``."""
    from repro.db.client import Transaction

    keys = topology.item_keys()
    outcomes = {"committed": 0, "aborted": 0}
    pending = []
    while not stop.is_set():
        chosen, amounts = _pick_buy(keys, rng)
        tx = Transaction(coordinator, commutative=commutative)
        try:
            for key in chosen:
                await asyncio.wait_for(
                    _await_future(tx.read(ITEMS_TABLE, key)), 20.0
                )
        except asyncio.TimeoutError:
            # Reads under total partition can starve past their failover
            # budget; skip this attempt, the link will heal.
            continue
        for key, amount in zip(chosen, amounts):
            tx.decrement(ITEMS_TABLE, key, "stock", amount)
        pending.append((tx.commit(), chosen, amounts))
        await asyncio.sleep(0.01)
    # Every commit future must settle — the coordinator re-escalates to
    # the (rotating) master until each option is decided, so an unresolved
    # outcome here is a protocol bug, not chaos.
    for future, chosen, amounts in pending:
        outcome = await asyncio.wait_for(_await_future(future), 60.0)
        if outcome.committed:
            outcomes["committed"] += 1
            for key, amount in zip(chosen, amounts):
                ledger[key] = ledger.get(key, 0) - amount
        else:
            outcomes["aborted"] += 1
    return outcomes


async def _flaky_wan_async(
    topology: Topology, *, clients: int, chaos_s: float
) -> Dict[str, object]:
    from repro.core.antientropy import AntiEntropyAgent
    from repro.core.recovery import RecoveryAgent
    from repro.protocols.base import get_protocol

    dcs = list(topology.datacenters)
    transport, roles, commutative, drivers = _driver_side(topology, clients, dcs, "chaos")
    ledger: Dict[str, int] = {}
    stop = asyncio.Event()
    workers = [
        asyncio.create_task(
            _chaos_client(coordinator, commutative, topology, rng, stop, ledger)
        )
        for coordinator, rng in drivers
    ]
    try:
        await _flaky_wan_nemesis(transport, topology, chaos_s)
        stop.set()
        per_client = await asyncio.gather(*workers)
        committed = sum(o["committed"] for o in per_client)
        aborted = sum(o["aborted"] for o in per_client)

        # Post-heal repair: anti-entropy sweeps re-drive lost visibilities
        # (with a recovery agent for options pending everywhere).
        agent = AntiEntropyAgent(transport, "antientropy-driver", dcs[0], **roles)
        if get_protocol(topology.protocol).supports_recovery:
            agent.attach_recovery(
                RecoveryAgent(transport, "recovery-driver", dcs[0], **roles)
            )
        keys = topology.item_keys()
        for _round in range(4):
            await asyncio.wait_for(_await_future(agent.sweep(ITEMS_TABLE, keys)), 120.0)

        # Invariants: every replica of every item converged to the
        # ledger's expected stock, and no stock went negative.
        initial = dict(topology.preload_plan())
        violations: List[str] = []
        reader = drivers[0][0]
        for key in keys:
            expected = initial[key] + ledger.get(key, 0)
            values = {}
            for dc in dcs:
                reply = await asyncio.wait_for(
                    _await_future(reader.read(ITEMS_TABLE, key, dc=dc)), 30.0
                )
                values[dc] = (reply.version, reply.value.get("stock") if reply.value else None)
            stocks = {stock for _version, stock in values.values()}
            if len(stocks) != 1:
                violations.append(f"{key}: replicas diverge {values}")
                continue
            stock = stocks.pop()
            if stock != expected:
                violations.append(f"{key}: stock {stock} != ledger {expected}")
            elif stock < 0:
                violations.append(f"{key}: negative stock {stock}")
        return {
            "schedule": "flaky-wan",
            "transport": "tcp",
            "committed": committed,
            "aborted": aborted,
            "frames": dict(transport.stats),
            "violations": violations,
            "clean": not violations,
        }
    finally:
        stop.set()
        for task in workers:
            if not task.done():
                task.cancel()
        await _shutdown_servers(transport, sorted(topology.nodes))
        await transport.close()


def _run_with_servers(topology_path: str, spawn_servers: bool, body) -> Dict[str, object]:
    """``asyncio.run(body(topology))`` against the topology's servers —
    launched first, and reaped afterwards, when ``spawn_servers``."""
    topology = Topology.load(topology_path)
    processes: Dict[str, subprocess.Popen] = {}
    if spawn_servers:
        processes = spawn_server_processes(topology_path, topology)
    try:
        result = asyncio.run(body(topology))
    except BaseException:
        for process in processes.values():
            process.kill()
        raise
    if processes:
        result["servers"] = len(processes)
        result["servers_killed"] = terminate_servers(processes)
    return result


def run_flaky_wan_parity(
    topology_path: str,
    *,
    clients: int = 3,
    chaos_s: float = 4.0,
    spawn_servers: bool = True,
) -> Dict[str, object]:
    """The flaky-wan schedule against the TCP backend, end to end.

    Returns a verdict dict; ``clean`` means zero post-heal invariant
    violations (replica convergence + ledger consistency + the stock
    constraint) — the same bar the simulator scenario sets.
    """
    return _run_with_servers(
        topology_path,
        spawn_servers,
        lambda topology: _flaky_wan_async(topology, clients=clients, chaos_s=chaos_s),
    )


def run_tcp_workload(
    topology_path: str,
    *,
    clients: int = 3,
    transactions_per_client: int = 10,
    client_dcs: Optional[Sequence[str]] = None,
    tx_timeout_s: float = 30.0,
    spawn_servers: bool = False,
    shutdown_servers: Optional[bool] = None,
) -> Dict[str, object]:
    """Drive the micro workload against a live TCP cluster.

    With ``spawn_servers=True`` the driver launches one ``repro serve``
    subprocess per topology node first and shuts them down afterwards
    (asserting clean exits); otherwise it expects the cluster to already
    be listening.
    """
    if shutdown_servers is None:
        shutdown_servers = spawn_servers
    return _run_with_servers(
        topology_path,
        spawn_servers,
        lambda topology: _run_workload_async(
            topology,
            clients=clients,
            transactions_per_client=transactions_per_client,
            client_dcs=client_dcs,
            tx_timeout_s=tx_timeout_s,
            shutdown_servers=shutdown_servers,
        ),
    )
