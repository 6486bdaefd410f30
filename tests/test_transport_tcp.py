"""The asyncio TCP backend, end to end.

Spawns real ``repro serve`` subprocesses (one OS process per storage
node) on freshly-bound loopback ports and hands the cluster to the *same*
run driver the simulator uses (``run_topology`` → ``bench.driver.run``):
transactions commit across process boundaries, the ledger / convergence /
constraint audit runs over the wire and comes back clean, shutdown is
clean (every server exits 0, no orphans), and the flaky-wan schedule —
the simulator's own timeline, applied through the framing-layer nemesis —
leaves zero post-heal invariant violations.
"""

import asyncio
import contextlib
import json
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys

import pytest

from repro.api import ClusterSpec, ScenarioSpec, build_cluster, run_scenario
from repro.bench.driver import run
from repro.core.options import RecordId
from repro.faults.schedule import named_schedule
from repro.transport import codec, runner
from repro.transport.base import TransportError
from repro.transport.runner import (
    RemoteCluster,
    driver_transport,
    host_node,
    run_topology,
)
from repro.transport.topology import Topology, make_local_topology

#: a window that starts once the spawned servers are listening
#: (``spawned_servers`` waits for that), so it only has to be long enough
#: for a handful of loopback commits.
WINDOW = dict(num_clients=2, warmup_ms=50.0, measure_ms=300.0)


def _free_ports(count):
    """Bind-then-release ``count`` distinct loopback ports."""
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


LOOPBACK = ("us-west", "us-east", "eu-west")


def _spec(**fields):
    """The three-data-center loopback deployment, one partition unless
    ``fields`` say otherwise."""
    return ClusterSpec(**{"datacenters": LOOPBACK, "partitions_per_table": 1, **fields})


def _write_topology(tmp_path, items, **fields):
    spec = _spec(**fields)
    topology = make_local_topology(
        spec, items=items, ports=_free_ports(3 * spec.partitions_per_table)
    )
    path = tmp_path / "topology.json"
    topology.dump(str(path))
    return str(path), topology


def _assert_clean_live_run(result, topology):
    """The bar every live run clears: commits, an audit that ran over the
    wire and found nothing, frames in both directions, servers exit 0."""
    assert result.commits >= 1
    assert result.audit_problems == []
    assert result.divergent_records == 0
    assert result.constraint_violations == 0
    assert result.clean
    assert result.extra["tcp"]["servers"] == dict.fromkeys(topology.nodes, 0), (
        "servers did not shut down cleanly"
    )
    frames = result.extra["tcp"]["frames"]
    assert frames["sent"] > 0 and frames["received"] > 0
    # coalescing happened: fewer socket writes than logical frames
    assert 0 < frames["writes"] < frames["sent"]
    assert frames["bytes_sent"] > 0
    # ... and every chunk read carried at least one whole frame
    assert 0 < frames["reads"] <= frames["received"]
    assert frames["bytes_received"] > 0


@contextlib.contextmanager
def _in_process_cluster(topology):
    """Every storage node and the driver on one event loop in this
    process — real sockets, no subprocess start-up."""
    with driver_transport(topology) as driver:
        loop = asyncio.get_event_loop()
        servers = [
            loop.run_until_complete(host_node(topology, node_id))
            for node_id in sorted(topology.nodes)
        ]
        try:
            yield driver
        finally:
            for server in servers:
                loop.run_until_complete(server.close())


# ----------------------------------------------------------------------
# Topology files
# ----------------------------------------------------------------------
def test_topology_round_trips(tmp_path):
    path, topology = _write_topology(tmp_path, items=30, seed=9)
    loaded = Topology.load(path)
    assert loaded.as_dict() == topology.as_dict()
    assert len(loaded.nodes) == 3
    assert loaded.item_keys()[0] == "item:000000"


def _raw_topology(**changes):
    """What ``perf/tcp_load.py`` writes: the seven keys, loopback nodes."""
    raw = make_local_topology(_spec(seed=9), items=30).as_dict()
    raw.update(changes)
    return raw


def test_topology_accepts_the_seven_documented_keys():
    raw = _raw_topology()
    assert sorted(raw) == [
        "codec", "datacenters", "nodes", "partitions_per_table", "protocol", "seed",
        "workload",
    ]
    assert sorted(raw["workload"]) == ["items", "max_stock", "min_stock", "name"]
    assert Topology.from_dict(raw).as_dict() == raw
    # a placement-only first pass, before any port is known
    assert Topology.from_dict(_raw_topology(nodes={})).build_placement().datacenters


@pytest.mark.parametrize(
    "raw, named",
    [
        (_raw_topology(protocl="multi"), "protocl"),  # used to serve mdcc
        (_raw_topology(workload={"name": "micro", "itms": 5}), "itms"),
        (_raw_topology(nodes={"n": {"dc": "us-west", "port": 1, "prt": 2}}), "prt"),
        (_raw_topology(nodes={"n": {"dc": "us-west"}}), "port"),  # used to be KeyError
        (_raw_topology(nodes={"n": {"port": 1}}), "dc"),
        ({k: v for k, v in _raw_topology().items() if k != "nodes"}, "nodes"),
        ({k: v for k, v in _raw_topology().items() if k != "datacenters"}, "datacenters"),
        (_raw_topology(codec="bson"), "bson"),  # used to fail at the first frame
        (_raw_topology(workload=["micro"]), "workload must be"),
    ],
)
def test_topology_rejects_typos_by_name(raw, named):
    with pytest.raises(TransportError, match=named):
        Topology.from_dict(raw)


@pytest.mark.parametrize("command", ["serve", "run"])
def test_cli_reports_a_bad_topology_without_a_traceback(tmp_path, command):
    from repro import cli

    path = tmp_path / "topology.json"
    path.write_text(json.dumps(_raw_topology(protocl="multi")))
    argv = {
        # a node the file does not list: were the file accepted, `serve`
        # would still exit (with another message) instead of serving forever
        "serve": ["serve", "--topology", str(path), "--node", "store-nowhere-p0"],
        "run": ["run", "--transport", "tcp", "--topology", str(path)],
    }[command]
    with pytest.raises(SystemExit, match="bad topology.*protocl"):
        cli.main(argv)


def test_topology_preload_is_deterministic(tmp_path):
    path, _ = _write_topology(tmp_path, items=50, seed=11)
    first = Topology.load(path).preload_plan()
    second = Topology.load(path).preload_plan()
    assert first == second
    assert all(100 <= stock <= 200 for _key, stock in first)


def test_topology_preload_is_the_workloads_population():
    """The plan a topology hands out is the one ``MicroBenchmark.populate``
    loads under the simulator at the same seed — stated once."""
    topology = make_local_topology(_spec(seed=11), items=30)
    cluster = build_cluster(topology.spec())
    topology.build_workload().populate(cluster)
    for key, stock in topology.preload_plan():
        assert cluster.read_committed("items", key).value == {"stock": stock}


def test_served_node_preloads_its_partition_only():
    """Each server hosts — and loads — exactly its own share of the plan:
    every key lands on one partition per DC, with the plan's stock."""
    topology = make_local_topology(
        _spec(partitions_per_table=2), items=30, ports=_free_ports(6)
    )
    plan = dict(topology.preload_plan())
    placement = topology.build_placement()
    per_node = {}
    with driver_transport(topology):
        loop = asyncio.get_event_loop()
        for node_id in topology.nodes:
            transport = loop.run_until_complete(host_node(topology, node_id))
            store = transport._nodes[node_id].store
            per_node[node_id] = {
                key: snapshot.value["stock"] for key, snapshot in store.scan("items")
            }
            loop.run_until_complete(transport.close())
    for node_id, records in per_node.items():
        for key, stock in records.items():
            assert plan[key] == stock
            assert node_id in placement.replicas(RecordId("items", key))
    covered = set()
    for node_id in (n for n in topology.nodes if "us-west" in n):
        assert not covered & set(per_node[node_id])
        covered.update(per_node[node_id])
    assert covered == set(plan)


def test_topology_rejects_non_mdcc_protocols():
    with pytest.raises(TransportError, match="MDCC variants"):
        make_local_topology(_spec(protocol="2pc"))
    with pytest.raises(TransportError, match="MDCC variants"):
        Topology.from_dict(_raw_topology(protocol="twopc"))


def test_topology_carries_only_the_four_deployment_fields():
    with pytest.raises(TransportError, match="only protocol, data centers"):
        make_local_topology(_spec(master_policy="fixed:us-east"))


def test_a_topology_builds_what_its_processes_build():
    """``build_placement`` / ``build_config`` are the placement and config
    of the one Cluster constructor, fed the file's spec."""
    topology = make_local_topology(_spec(protocol="multi", seed=3), items=30)
    cluster = build_cluster(topology.spec())
    placement = topology.build_placement()
    assert topology.build_config() == cluster.config
    assert placement.datacenters == cluster.placement.datacenters == LOOPBACK
    assert placement.partitions_per_table == cluster.placement.partitions_per_table == 1
    assert placement.master_policy == cluster.placement.master_policy == "hash"
    assert cluster.rng.seed == 3


def test_a_topology_no_spec_admits_is_refused_when_a_cluster_is_assembled():
    """One data center is a valid file (a bare transport) but no cluster."""
    topology = Topology.from_dict(_raw_topology(datacenters=["us-west"], nodes={}))
    with pytest.raises(TransportError, match="two data centers"):
        topology.spec()


# ----------------------------------------------------------------------
# Live cluster smoke
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["mdcc", "fast", "multi"])
def test_tcp_variants_commit_across_processes(tmp_path, protocol):
    path, topology = _write_topology(tmp_path, items=30, seed=5, protocol=protocol)
    result = run_topology(topology, spawn_from=path, **WINDOW)
    assert result.protocol == protocol
    assert result.seed == 5
    _assert_clean_live_run(result, topology)


def test_hotspot_run_over_tcp_audits_clean(tmp_path):
    """An access-pattern knob of the shared workload, honoured over TCP
    because the loop that honours it is the simulator's."""
    path, topology = _write_topology(tmp_path, items=30, seed=5)
    workload = topology.build_workload(hotspot_fraction=0.1)
    result = run_topology(topology, workload, spawn_from=path, **WINDOW)
    _assert_clean_live_run(result, topology)
    hot = set(workload.keys[:3])
    bought = {
        key
        for (_table, key, _attribute), entry in workload.ledger._entries.items()
        if entry.committed_delta
    }
    assert bought & hot, "no committed buy touched the hot spot"


# ----------------------------------------------------------------------
# A bad frame costs its sender the connection, not the server its life
# ----------------------------------------------------------------------
def _framed(payload):
    return struct.pack(">I", len(payload)) + payload


_GARBAGE = {
    "garbage payload": _framed(b"J{not json"),
    "invalid utf-8": _framed(b"J\xff\xfe"),
    "unknown message type": _framed(b'J{"src":"x","src_dc":"y","dst":"z","msg":["Nope"]}'),
    "oversized length header": struct.pack(">I", 0xFFFFFFFF) + b"J",
}


@pytest.mark.parametrize("case", [*_GARBAGE, "truncated frame"])
def test_bad_frame_closes_that_connection_and_the_server_keeps_serving(case, capfd):
    topology = make_local_topology(_spec(seed=5), items=30, ports=_free_ports(3))
    victim = sorted(topology.nodes)[0]
    address = topology.nodes[victim]

    async def offend():
        reader, writer = await asyncio.open_connection(address.host, address.port)
        if case == "truncated frame":
            writer.write(struct.pack(">I", 100) + b"J{")
            await writer.drain()
            writer.close()
        else:
            writer.write(_GARBAGE[case])
            # the server hangs up on us: EOF, not a hang
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
        await writer.wait_closed()

    with _in_process_cluster(topology) as driver:
        loop = asyncio.get_event_loop()
        loop.run_until_complete(offend())
        stats = loop.run_until_complete(driver.ctrl(victim, {"op": "ping"}))["stats"]
        assert stats["dropped"] == (0 if case == "truncated frame" else 1)
        result = run(
            RemoteCluster(topology, driver),
            topology.build_workload(),
            num_clients=2,
            warmup_ms=0.0,
            measure_ms=250.0,
        )
    assert result.commits >= 1 and result.clean
    errors = capfd.readouterr().err
    assert "Task exception was never retrieved" not in errors
    assert errors.count("closing a connection on a bad frame") == (
        0 if case == "truncated frame" else 1
    )


def test_a_commits_proposal_frame_spells_each_record_once(monkeypatch):
    """Off real sockets: a micro buy writes three records of one replica
    set, so each replica gets one ``ProposeFastBatch`` of three options,
    every option carrying the whole write-set — and the frame spells each
    record key once; the other mentions are back-references."""
    topology = make_local_topology(_spec(seed=5), items=30, ports=_free_ports(3))
    received = []
    decode_frame_payload = codec.decode_frame_payload

    def recording(payload):
        received.append(payload)
        return decode_frame_payload(payload)

    monkeypatch.setattr(codec, "decode_frame_payload", recording)
    with _in_process_cluster(topology) as driver:
        result = run(
            RemoteCluster(topology, driver),
            topology.build_workload(),
            num_clients=2,
            warmup_ms=0.0,
            measure_ms=250.0,
        )
    assert result.commits >= 1 and result.clean
    proposals = [
        (payload, codec.decode(decode_frame_payload(payload)["msg"]))
        for payload in received
        if b'"msg":["ProposeFastBatch"' in payload
    ]
    three = [(payload, batch) for payload, batch in proposals if len(batch.options) == 3]
    assert three, "no three-record commit was proposed"
    for payload, batch in three:
        writeset = batch.options[0].writeset
        assert len(writeset) == 3
        for record in writeset:
            assert payload.count(f'"{record.key}"'.encode()) == 1
        assert all(option.writeset == writeset for option in batch.options)


def test_simulated_runs_load_no_codec_no_tcp_no_asyncio():
    """The wire codec, the TCP transport and asyncio are the TCP backend's
    alone: a simulated scenario through ``repro.api`` imports none."""
    script = (
        "import sys, repro.api as api\n"
        "r = api.run_scenario(api.ScenarioSpec(clients=2, items=30, warmup_s=0.1, measure_s=1.0))\n"
        "assert r.commits >= 1\n"
        "loaded = [m for m in ('repro.transport.codec', 'repro.transport.tcp', 'asyncio')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Reaping: a crash is not a clean shutdown, and nothing is left behind
# ----------------------------------------------------------------------
def test_terminate_servers_reports_every_nonzero_exit():
    crashed = subprocess.Popen([sys.executable, "-c", "import sys; sys.exit(3)"])
    stuck = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    clean = subprocess.Popen([sys.executable, "-c", "pass"])
    exits = runner.terminate_servers(
        {"crashed": crashed, "clean": clean, "stuck": stuck}, grace_s=0.5
    )
    assert exits == {"crashed": 3, "clean": 0, "stuck": -signal.SIGTERM}


def test_failed_spawn_reaps_the_servers_already_started(tmp_path, monkeypatch):
    path, topology = _write_topology(tmp_path, items=30, seed=5)
    started = []
    popen = subprocess.Popen

    def flaky_popen(command, **kwargs):
        if len(started) == 2:
            raise OSError("out of processes")
        started.append(popen([sys.executable, "-c", "import time; time.sleep(60)"]))
        return started[-1]

    monkeypatch.setattr(runner.subprocess, "Popen", flaky_popen)
    with pytest.raises(OSError, match="out of processes"):
        with runner.spawned_servers(path, topology):
            pytest.fail("entered the block although a spawn failed")
    assert len(started) == 2
    assert all(process.returncode == -signal.SIGKILL for process in started)


def test_cli_exits_1_when_a_server_did_not_exit_cleanly(tmp_path, monkeypatch, capsys):
    from repro import cli

    path, topology = _write_topology(tmp_path, items=30, seed=5)
    result = run_scenario(ScenarioSpec(clients=2, items=30, warmup_s=0.1, measure_s=1.0))
    servers = dict.fromkeys(topology.nodes, 0)
    result.extra["tcp"] = {"codec": "json", "frames": {}, "servers": servers}
    monkeypatch.setattr(runner, "run_topology", lambda *a, **k: result)
    argv = ["run", "--transport", "tcp", "--topology", path, "--clients", "2"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    servers[sorted(topology.nodes)[0]] = 1
    assert cli.main(argv) == 1
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["spec"]["cluster"]["seed"] == 5
    assert envelope["spec"]["items"] == 30
    assert envelope["spec"]["cluster"]["partitions_per_table"] == 1
    assert 1 in envelope["tcp"]["servers"].values()


@pytest.mark.parametrize(
    "flag",
    [
        ["--fail-dc", "us-east"],
        ["--master-policy", "adaptive"],
        ["--gamma-policy", "adaptive"],
        ["--batch-ms", "5"],
        ["--no-demarcation"],
        ["--spec", "scenario.json"],
    ],
)
def test_cli_rejects_flags_tcp_cannot_honour(tmp_path, flag):
    from repro import cli

    path, _ = _write_topology(tmp_path, items=30, seed=5)
    with pytest.raises(SystemExit, match=flag[0]):
        cli.main(["run", "--transport", "tcp", "--topology", path, *flag])


# ----------------------------------------------------------------------
# Fault schedules: the simulator's timeline over the real backend
# ----------------------------------------------------------------------
_LOGGED_AS = {
    "degrade-link": "link-degraded",
    "restore-link": "link-restored",
    "drop-rate": "drop-rate",
}


def test_flaky_wan_over_tcp_no_post_heal_violations(tmp_path):
    path, topology = _write_topology(tmp_path, items=40, seed=7)
    schedule = named_schedule("flaky-wan", start_ms=100.0, duration_ms=1_500.0)
    result = run_topology(
        topology,
        None,
        schedule,
        spawn_from=path,
        num_clients=3,
        warmup_ms=100.0,
        measure_ms=1_500.0,
    )
    assert result.schedule == "flaky-wan"
    assert result.commits >= 1, "chaos throttled the workload to zero commits"
    _assert_clean_live_run(result, topology)
    assert result.probe_problems == []
    # the event log is the schedule's own timeline, in schedule order
    expected = [
        (_LOGGED_AS[event.action], event.params_dict.get("pair"))
        for event in schedule.sorted_events()
    ]
    assert [(row["event"], row.get("pair")) for row in result.chaos_events] == expected
    degraded = result.chaos_events[0]
    assert degraded["extra_latency_ms"] == 40.0 and degraded["drop_rate"] == 0.10
    assert degraded["jitter_sigma_dropped"] == 0.3  # no framing-layer counterpart
    # the nemesis actually bit: frames were dropped at the framing layer
    assert result.extra["tcp"]["frames"]["dropped"] > 0


def test_unsupported_schedule_is_rejected_before_spawning(tmp_path, monkeypatch):
    """dc-outage needs fail-dc, which no framing nemesis can apply: the
    run must refuse before a single server process exists."""
    path, topology = _write_topology(tmp_path, items=30, seed=5)
    spawned = []
    monkeypatch.setattr(
        runner.subprocess, "Popen", lambda *a, **k: spawned.append(a) or 1 / 0
    )
    schedule = named_schedule("dc-outage", start_ms=100.0, duration_ms=1_000.0)
    with pytest.raises(TransportError, match="fail-dc"):
        run_topology(topology, None, schedule, spawn_from=path, **WINDOW)
    assert spawned == []


# ----------------------------------------------------------------------
# One client loop: the transaction mix does not depend on the transport
# ----------------------------------------------------------------------
def _first_buys(cluster, topology, count, measure_ms):
    """The first ``count`` buys — its (key, amount) pairs — of every client."""
    buys = {}
    begin = cluster.begin

    def recording_begin(client):
        tx = begin(client)
        items = []
        buys.setdefault(client.node_id, []).append(items)
        decrement = tx.decrement

        def recording_decrement(table, key, attribute, amount):
            items.append((key, amount))
            decrement(table, key, attribute, amount)

        tx.decrement = recording_decrement
        return tx

    cluster.begin = recording_begin
    result = run(
        cluster,
        topology.build_workload(),
        num_clients=3,
        warmup_ms=0.0,
        measure_ms=measure_ms,
    )
    assert result.commits >= 1
    assert all(len(client_buys) >= count for client_buys in buys.values()), buys
    return {node_id: client_buys[:count] for node_id, client_buys in buys.items()}


def test_same_seed_same_transaction_mix_on_both_transports():
    """Keys and amounts come from per-client streams of the run's seed and
    the one ``MicroBenchmark``: transport and timing do not enter."""
    topology = make_local_topology(_spec(seed=13), items=30, ports=_free_ports(3))
    simulated = build_cluster(topology.spec())
    over_sim = _first_buys(simulated, topology, count=4, measure_ms=5_000.0)
    with _in_process_cluster(topology) as driver:
        over_tcp = _first_buys(
            RemoteCluster(topology, driver), topology, count=4, measure_ms=250.0
        )
    assert sorted(over_sim) == ["app-eu-west-3", "app-us-east-2", "app-us-west-1"]
    assert all(len(buy) == 3 for buys in over_sim.values() for buy in buys)
    assert over_tcp == over_sim
