"""``tcp_micro_loopback``: a closed-loop load generator over real sockets.

One repetition: write a topology with free ports, spawn one ``python -m
repro serve`` process per storage node (3 data centers × 1 partition on
127.0.0.1), wait until each answers ``@ctrl ping``, dial and warm up, then
time six segments of 200 micro buy transactions (3 reads + 3 commutative
decrements) from ``nproc`` = 2 closed-loop clients in this process, audit
every replica of every item against the driver's ledger, and shut the
servers down over ``@ctrl``.  Every segment is a timed region of its own,
with the host's speed sampled on either side: segments are cheap, a fresh
set of servers is not.

No delay is injected between nodes, so latency here is processor time on
loopback, not WAN time.  This is the only workload where the codec, the
TCP framing and asyncio run — and where the simulator does nothing.

Set-up (spawn, readiness, dial-up, warm-up) is kept out of every metric:
``repro run --transport tcp`` times dial-up inside its first transaction,
which is why this file carries its own client loop.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from entry import (
    PERF_DIR,
    SRC_DIR,
    AsyncioTcpTransport,
    CounterSet,
    Topology,
    Transaction,
    get_protocol,
)
from hostspeed import REFERENCE_S, HostSpeed
from workloads import begin_region, outcome, region, timing_of

__all__ = ["tcp_micro_loopback"]

DATACENTERS = ("us-west", "us-east", "eu-west")
ITEMS = 1_000
#: far more stock than a repetition can sell, so no decrement is refused.
MIN_STOCK, MAX_STOCK = 100_000, 200_000
CLIENTS = 2
WARMUP_TXNS = 200
#: timed regions per repetition, and transactions in each.
SEGMENTS = 6
SEGMENT_TXNS = 200
ITEMS_PER_TX = 3
TABLE = "items"
TX_TIMEOUT_S = 20.0
READY_TIMEOUT_S = 30.0
SHUTDOWN_GRACE_S = 10.0
WORK_DIR = os.path.join(PERF_DIR, ".work")
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
def _free_ports(count: int) -> List[int]:
    """Ports the kernel just handed out: bound, read back, released."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _write_topology(path: str, seed: int) -> Topology:
    ports = _free_ports(len(DATACENTERS))
    raw: Dict[str, Any] = {
        "datacenters": list(DATACENTERS),
        "partitions_per_table": 1,
        "protocol": "mdcc",
        "seed": seed,
        "codec": "json",  # msgpack is not installed here
        "nodes": {},
        "workload": {
            "name": "micro",
            "items": ITEMS,
            "min_stock": MIN_STOCK,
            "max_stock": MAX_STOCK,
        },
    }
    placement = Topology.from_dict(raw).build_placement()
    raw["nodes"] = {
        placement.storage_node_id(dc, 0): {"dc": dc, "host": "127.0.0.1", "port": port}
        for dc, port in zip(DATACENTERS, ports)
    }
    topology = Topology.from_dict(raw)
    topology.dump(path)
    return topology


def _spawn_servers(
    topology_path: str, topology: Topology, workdir: str, traced: bool
) -> Dict[str, subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    servers: Dict[str, subprocess.Popen] = {}
    for node_id in sorted(topology.nodes):
        if traced:
            command = [
                sys.executable,
                os.path.join(PERF_DIR, "tcp_server.py"),
                "--out",
                os.path.join(workdir, f"{node_id}.trace.json"),
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        command += ["--topology", topology_path, "--node", node_id]
        with open(os.path.join(workdir, f"{node_id}.log"), "wb") as log:
            servers[node_id] = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT
            )
    return servers


def _stop_servers(servers: Dict[str, subprocess.Popen], grace_s: float) -> List[str]:
    """Wait for every server to exit; escalate to SIGTERM, then SIGKILL.
    Returns one problem string per server that did not exit 0 by itself."""
    problems: List[str] = []
    deadline = time.monotonic() + grace_s
    for node_id, process in servers.items():
        try:
            process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=3.0)
                problems.append(f"server {node_id} needed SIGTERM")
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                problems.append(f"server {node_id} needed SIGKILL")
            continue
        if process.returncode != 0:
            problems.append(f"server {node_id} exited {process.returncode}")
    return problems


def _server_cpu_s(pids: Sequence[int]) -> float:
    """user+sys CPU the live servers have used so far (``/proc``), so the
    timed region's share can be taken as a difference."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICKS_PER_S


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _await(future: Any) -> "asyncio.Future":
    """Bridge a transport Future into the running asyncio loop."""
    bridged: asyncio.Future = asyncio.get_running_loop().create_future()

    def on_done(done: Any) -> None:
        if bridged.done():
            return
        try:
            bridged.set_result(done.result())
        except Exception as exc:  # noqa: BLE001 - surfaced by the await
            bridged.set_exception(exc)

    future.add_done_callback(on_done)
    return bridged


class _Tally:
    """What the closed-loop clients observed over one stretch."""

    def __init__(self, ledger: Dict[str, int]) -> None:
        self.commits = 0
        self.aborts = 0
        self.timeouts = 0
        self.errors: List[str] = []
        self.latencies_ms: List[float] = []
        #: key -> net committed stock change since preload, shared by
        #: every stretch of the repetition: the replica audit's truth.
        self.ledger = ledger

    def problems(self, label: str, expected: int) -> List[str]:
        found = [f"{label}: transaction raised {error}" for error in self.errors[:5]]
        if self.timeouts:
            found.append(f"{label}: {self.timeouts} transactions timed out")
        if self.commits + self.aborts != expected:
            found.append(
                f"{label}: {self.commits + self.aborts} of {expected} transactions finished"
            )
        return found


async def _client(
    coordinator: Any,
    keys: Sequence[str],
    rng: random.Random,
    transactions: int,
    tally: _Tally,
    tracer: Any,
) -> None:
    for _ in range(transactions):
        chosen = rng.sample(range(len(keys)), ITEMS_PER_TX)
        amounts = [rng.randint(1, 3) for _ in chosen]
        started = time.perf_counter()
        tx = Transaction(coordinator, commutative=True)
        try:
            for index in chosen:
                await asyncio.wait_for(_await(tx.read(TABLE, keys[index])), TX_TIMEOUT_S)
            for index, amount in zip(chosen, amounts):
                tx.decrement(TABLE, keys[index], "stock", amount)
            result = await asyncio.wait_for(_await(tx.commit()), TX_TIMEOUT_S)
        except asyncio.TimeoutError:
            tally.timeouts += 1
            continue
        except Exception as exc:  # noqa: BLE001 - counted as a failed transaction
            tally.errors.append(repr(exc))
            continue
        finally:
            if tracer is not None:
                tracer.transaction_done()
        if result.committed:
            tally.latencies_ms.append((time.perf_counter() - started) * 1e3)
            tally.commits += 1
            for index, amount in zip(chosen, amounts):
                tally.ledger[keys[index]] = tally.ledger.get(keys[index], 0) - amount
        else:
            tally.aborts += 1


async def _run_clients(
    coordinators: Sequence[Any],
    keys: Sequence[str],
    rngs: Sequence[random.Random],
    transactions: int,
    tally: _Tally,
    tracer: Any,
) -> None:
    share, extra = divmod(transactions, len(coordinators))
    await asyncio.gather(
        *(
            _client(coordinator, keys, rng, share + (1 if i < extra else 0), tally, tracer)
            for i, (coordinator, rng) in enumerate(zip(coordinators, rngs))
        )
    )


async def _frames(transport: AsyncioTcpTransport, nodes: Sequence[str]) -> int:
    """Frames sent + received so far by the driver and every server."""
    total = transport.stats["sent"] + transport.stats["received"]
    for node_id in nodes:
        reply = await transport.ctrl(node_id, {"op": "ping"}, timeout_s=READY_TIMEOUT_S)
        total += reply["stats"]["sent"] + reply["stats"]["received"]
    return total


async def _listening(topology: Topology, nodes: Sequence[str]) -> None:
    """Returns once every server accepts connections."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    for node_id in nodes:
        address = topology.nodes[node_id]
        while True:
            try:
                _reader, writer = await asyncio.open_connection(address.host, address.port)
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"server {node_id} never listened")
                await asyncio.sleep(0.01)
                continue
            writer.close()
            await writer.wait_closed()
            break


async def _switch_server_tracing(pids: Sequence[int], signum: int) -> None:
    """Traced servers (perf/tcp_server.py) switch their wrappers on
    SIGUSR1 / off SIGUSR2; give the handlers a moment to run."""
    for pid in pids:
        os.kill(pid, signum)
    await asyncio.sleep(0.02)


async def _audit(
    coordinator: Any, topology: Topology, ledger: Dict[str, int]
) -> List[str]:
    """Every replica of every item holds preload + committed decrements.
    Visibilities are asynchronous, so a lagging replica is re-read for a
    bounded time before it counts."""
    expected = {key: stock + ledger.get(key, 0) for key, stock in topology.preload_plan()}
    pending = [(key, dc) for key in expected for dc in topology.datacenters]
    problems: List[str] = []
    deadline = time.monotonic() + 10.0
    while pending:
        replies = await asyncio.gather(
            *(
                asyncio.wait_for(_await(coordinator.read(TABLE, key, dc=dc)), TX_TIMEOUT_S)
                for key, dc in pending
            )
        )
        wrong = [
            (key, dc, reply.value.get("stock") if reply.value else None)
            for (key, dc), reply in zip(pending, replies)
            if not reply.value or reply.value.get("stock") != expected[key]
        ]
        if not wrong or time.monotonic() > deadline:
            problems = [
                f"{key}@{dc}: stock {stock} != ledger {expected[key]}"
                for key, dc, stock in wrong
            ]
            break
        pending = [(key, dc) for key, dc, _stock in wrong]
        await asyncio.sleep(0.05)
    return problems


async def _drive(
    topology: Topology, seed: int, tracer: Any, host: HostSpeed, pids: Sequence[int]
) -> Dict[str, Any]:
    descriptor = get_protocol(topology.protocol)
    placement = topology.build_placement()
    config = topology.build_config()
    nodes = sorted(topology.nodes)
    keys = topology.item_keys()
    transport = AsyncioTcpTransport(topology, local_dc=DATACENTERS[0], listen=None)
    ledger: Dict[str, int] = {}
    failures: List[str] = []
    segments: List[Dict[str, Any]] = []
    try:
        # Readiness is every server answering ``@ctrl ping``.  The transport
        # would dial until then by itself, but it backs off 0.05-0.8 s
        # between attempts, which put up to 0.8 s of waiting — not work —
        # into set-up; so first find out when the ports accept.
        await _listening(topology, nodes)
        for node_id in nodes:
            await transport.ctrl(node_id, {"op": "ping"}, timeout_s=READY_TIMEOUT_S)
        counters = CounterSet()
        coordinators = [
            descriptor.make_client(
                transport,
                f"app-{DATACENTERS[i % len(DATACENTERS)]}-perf{i + 1}",
                DATACENTERS[i % len(DATACENTERS)],
                placement=placement,
                config=config,
                counters=counters,
            )
            for i in range(CLIENTS)
        ]
        rngs = [random.Random(f"{seed}/client/{i}") for i in range(CLIENTS)]
        warmup = _Tally(ledger)
        await _run_clients(coordinators, keys, rngs, WARMUP_TXNS, warmup, None)
        failures += warmup.problems("warm-up", WARMUP_TXNS)
        for _ in range(SEGMENTS):
            segments.append(
                await _timed_segment(
                    transport, nodes, pids, coordinators, keys, rngs, ledger, tracer, host
                )
            )
            failures += segments[-1]["tally"].problems("timed segment", SEGMENT_TXNS)
        audit = await _audit(coordinators[0], topology, ledger)
        failures += [f"replica audit: {problem}" for problem in audit[:5]]
        for node_id in nodes:
            try:
                await transport.ctrl(node_id, {"op": "shutdown"}, timeout_s=5.0)
            except asyncio.TimeoutError:
                failures.append(f"server {node_id} did not acknowledge shutdown")
    finally:
        await transport.close()
    # One scale for the whole repetition.  Samples on either side of a
    # segment say little about the segment itself — four processes on two
    # processors are disturbed by more than the speed of the one the
    # driver happens to run on; in 200 segments they explained none of the
    # spread and scaling segment by segment added a third to it — but all
    # of them together follow the host through its slow and fast hours.
    scale = REFERENCE_S / statistics.fmean(
        sample for segment in segments for sample in segment["speed"]["samples"]
    )
    timings = [
        timing_of(
            segment["begun"],
            segment["wall_s"],
            segment["cpu_s"],
            {**segment["speed"], "scale": scale},
        )
        for segment in segments
    ]
    commits = sum(segment["tally"].commits for segment in segments)
    return outcome(
        regions=[
            region(
                commits=segment["tally"].commits,
                aborts=segment["tally"].aborts,
                latencies=segment["tally"].latencies_ms,
                clock="wall",
                timing=timing,
            )
            for segment, timing in zip(segments, timings)
        ],
        first_timing=timings[0],
        failures=failures,
        unfinished=sum(
            segment["tally"].timeouts + len(segment["tally"].errors) for segment in segments
        ),
        wall_extra={
            "transport.tcp.frames_per_commit": sum(segment["frames"] for segment in segments)
            / max(commits, 1)
        },
    )


async def _timed_segment(
    transport: AsyncioTcpTransport,
    nodes: Sequence[str],
    pids: Sequence[int],
    coordinators: Sequence[Any],
    keys: Sequence[str],
    rngs: Sequence[random.Random],
    ledger: Dict[str, int],
    tracer: Any,
    host: HostSpeed,
) -> Dict[str, Any]:
    """One timed region: SEGMENT_TXNS transactions, with the frame and CPU
    counters of all four processes read, and the host's speed sampled,
    just outside it."""
    tally = _Tally(ledger)
    frames_before = await _frames(transport, nodes)
    server_cpu_before = _server_cpu_s(pids)
    gc.disable()
    # No ticking: a sample taken while transactions are in flight would
    # stall both clients and be measured as their latency.
    begun = begin_region(host, tick=False)
    try:
        if tracer is not None:
            await _switch_server_tracing(pids, signal.SIGUSR1)
            tracer.active = True
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        await _run_clients(coordinators, keys, rngs, SEGMENT_TXNS, tally, tracer)
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.active = False
            await _switch_server_tracing(pids, signal.SIGUSR2)
        speed = host.stop()
        gc.enable()
    cpu_s += _server_cpu_s(pids) - server_cpu_before
    # Less the two ping rounds themselves: a request and a reply per
    # server, each counted at both ends.
    frames = await _frames(transport, nodes) - frames_before - 4 * len(nodes)
    return {
        "begun": begun,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed": speed,
        "tally": tally,
        "frames": frames,
    }


def tcp_micro_loopback(seed: int, tracer: Any, host: HostSpeed) -> Dict[str, Any]:
    """One repetition; servers never outlive it, whatever goes wrong."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tcp-", dir=WORK_DIR)
    servers: Dict[str, subprocess.Popen] = {}
    # From here on four processes share two processors: a sample would
    # read their load.  Set-up keeps the samples taken so far and gets
    # more just before the first segment, when the servers are idle.
    host.quiet()
    try:
        topology_path = os.path.join(workdir, "topology.json")
        topology = _write_topology(topology_path, seed)
        servers = _spawn_servers(topology_path, topology, workdir, tracer is not None)
        result = asyncio.run(
            _drive(topology, seed, tracer, host, [p.pid for p in servers.values()])
        )
        result["failures"] += _stop_servers(servers, SHUTDOWN_GRACE_S)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["children_peak_rss_mb"] = children.ru_maxrss / 1024.0
        if tracer is not None:
            result["server_traces"] = [
                _read_json(os.path.join(workdir, f"{node_id}.trace.json"))
                for node_id in sorted(servers)
            ]
        if result["failures"]:
            result["failures"].append(_log_tails(workdir, servers))
        return result
    finally:
        for process in servers.values():
            if process.poll() is None:
                process.kill()
                process.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _log_tails(workdir: str, servers: Dict[str, subprocess.Popen]) -> str:
    tails = []
    for node_id in sorted(servers):
        try:
            with open(os.path.join(workdir, f"{node_id}.log"), encoding="utf-8") as handle:
                tails.append(f"[{node_id}] " + " | ".join(handle.read().splitlines()[-3:]))
        except OSError:
            pass
    return "server logs: " + " ; ".join(tails)
