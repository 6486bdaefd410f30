"""The one file through which the benchmark touches ``repro``.

Coupling rule: every ``repro`` symbol any file under ``perf/`` uses is
imported (or, for trace targets, named as a string) *here*, so a refactor
of the program has exactly one file of the benchmark to reconcile, and
``python3 perf/run.py --check-entry`` says whether it still resolves.

Three groups:

* **run surfaces** — what starts a run and reads its results:
  ``repro.api`` specs and entry points, the workload classes' ``.run``,
  the post-run checkers, and for the TCP load generator the transport,
  topology, protocol registry and ``Transaction``;
* **layer-probe surfaces** — the classes ``perf/layers.py`` calls in
  isolation (event loop, network model, codec, acceptor state, storage);
* **trace targets** — attribute paths ``perf/tracing.py`` wraps, with the
  layer each is charged to.

Nothing may come from :data:`FORBIDDEN_MODULES` — the surfaces ROADMAP
item 2/3 marks for deletion — nor call ``run_tcp_workload``, whose client
loop times dial-up inside the first transaction.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(PERF_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)
if PERF_DIR not in sys.path:
    sys.path.insert(0, PERF_DIR)

# --- run surfaces ------------------------------------------------------
from repro.api import ClusterSpec, ScenarioSpec, build_cluster, run_scenario  # noqa: E402
from repro.cli import main as serve_main  # noqa: E402  (`repro serve`, traced servers)
from repro.db.checkers import check_constraints, check_replica_convergence  # noqa: E402
from repro.db.client import Transaction  # noqa: E402
from repro.protocols.base import get_protocol  # noqa: E402
from repro.transport.tcp import AsyncioTcpTransport  # noqa: E402
from repro.transport.topology import Topology  # noqa: E402
from repro.workloads.micro import MicroBenchmark  # noqa: E402
from repro.workloads.tpcw import TPCWBenchmark  # noqa: E402

# --- layer-probe surfaces (perf/layers.py) -----------------------------
from repro.metrics import CounterSet  # noqa: E402
from repro.sim.core import Simulator  # noqa: E402
from repro.sim.network import LinkPolicy, Network  # noqa: E402
from repro.storage.wal import WriteAheadLog  # noqa: E402
from repro.transport import codec  # noqa: E402
from repro.transport.base import Node  # noqa: E402

from tracing import Target  # noqa: E402

__all__ = [
    "AsyncioTcpTransport",
    "ClusterSpec",
    "CounterSet",
    "LinkPolicy",
    "MicroBenchmark",
    "NODE_TARGET",
    "Network",
    "Node",
    "ScenarioSpec",
    "Simulator",
    "TPCWBenchmark",
    "Topology",
    "Transaction",
    "WriteAheadLog",
    "build_cluster",
    "check_constraints",
    "check_entry",
    "check_replica_convergence",
    "codec",
    "get_protocol",
    "run_scenario",
    "serve_main",
    "trace_targets",
]

#: ROADMAP items 2 and 3 mark these for deletion; nothing here may load
#: a symbol from them.
FORBIDDEN_MODULES = (
    "repro.bench.harness",
    "repro.sim.node",
    "repro.paxos.classic",
    "repro.paxos.fast",
)
FORBIDDEN_CALLS = ("run_tcp_workload",)

_MODULE_LAYERS = (
    ("repro.sim.core", "sim.core"),
    ("repro.sim.network", "sim.network"),
    ("repro.core.coordinator", "core.coordinator"),
    ("repro.core.storage_node", "core.storage_node"),
    ("repro.core.master", "core.master"),
    ("repro.core.recovery", "core.recovery"),
    ("repro.core.antientropy", "core.antientropy"),
    ("repro.core.state", "core.state"),
    ("repro.protocols", "protocols"),
    ("repro.storage", "storage"),
    ("repro.transport.codec", "transport.codec"),
    ("repro.transport.tcp", "transport.tcp"),
)


def layer_of(module: str) -> str:
    """The ledger layer a module's code is charged to; everything that is
    not one of the named layers (client generators, ledger, the DB library,
    the chaos controller) is the ``workloads`` remainder."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "workloads"


# ----------------------------------------------------------------------
# Trace targets
# ----------------------------------------------------------------------
_receiver_names: Dict[tuple, str] = {}


def _receiver_name(args: tuple) -> str:
    """``Node.on_message(self, message, src)`` → "<layer of the node's
    class>/<message type>"."""
    key = (args[0].__class__, args[1].__class__)
    try:
        return _receiver_names[key]
    except KeyError:
        name = layer_of(key[0].__module__) + "/" + key[1].__name__
        _receiver_names[key] = name
        return name


def _callback_name(args: tuple) -> str:
    """A timer callback is charged to the module that owns it."""
    callback = args[0]
    while isinstance(callback, functools.partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, type(sys)):
        module = type(owner).__module__
    else:
        module = getattr(callback, "__module__", "") or ""
    return layer_of(module) + "/timer"


def _message_txid(args: tuple) -> Optional[str]:
    message = args[1]
    txid = getattr(message, "txid", None)
    if txid is None:
        txid = getattr(getattr(message, "option", None), "txid", None)
    return txid


def _fixed(layer: str, module: str, *attributes: str) -> List[Target]:
    return [
        Target(f"{module}:{attribute}", f"{layer}/{attribute.rpartition('.')[2]}")
        for attribute in attributes
    ]


#: the app-server classes whose ``read``/``commit`` a transaction enters.
_CLIENT_CLASSES = (
    ("repro.core.coordinator", "MDCCCoordinator"),
    ("repro.protocols.twopc", "TwoPCCoordinator"),
    ("repro.protocols.replicatedcommit", "ReplicatedCommitClient"),
    ("repro.protocols.megastore", "MegastoreClient"),
    ("repro.protocols.quorumwrites", "QuorumWriteClient"),
)


#: the capture target: every node that ever handled a message.
NODE_TARGET = "repro.transport.base:Node.on_message"


def trace_targets() -> List[Target]:
    """Everything ``--trace`` wraps, each charged to its module's layer."""
    targets: List[Target] = []
    targets += _fixed("sim.core", "repro.sim.core", "Simulator.run", "Simulator.run_until")
    # Process._step is where the event loop hands control to a client
    # generator: the boundary between sim.core and the workloads remainder.
    targets.append(Target("repro.sim.core:Process._step", "workloads/client_step"))
    targets.append(
        Target("repro.sim.core:Simulator.schedule", _callback_name, kind="timer")
    )
    targets += _fixed("sim.network", "repro.sim.network", "Network.send", "Network._deliver")
    targets.append(
        Target(
            NODE_TARGET,
            _receiver_name,
            tag=_message_txid,
            capture=True,
        )
    )
    for module, cls in _CLIENT_CLASSES:
        targets += _fixed(layer_of(module), module, f"{cls}.read", f"{cls}.commit")
    targets += _fixed(
        "core.master",
        "repro.core.master",
        "MasterRole.on_propose",
        "MasterRole.on_start_recovery",
        "MasterRole.on_phase1b",
        "MasterRole.on_phase2b",
    )
    targets += _fixed("core.recovery", "repro.core.recovery", "RecoveryAgent.recover")
    targets += _fixed("core.antientropy", "repro.core.antientropy", "AntiEntropyAgent.sweep")
    targets += _fixed(
        "core.state",
        "repro.core.state",
        "RecordState.accept_fast",
        "RecordState.adopt",
        "RecordState.decide",
        "RecordState.apply_visibility",
    )
    targets += _fixed("storage", "repro.storage.wal", "WriteAheadLog.append")
    targets += _fixed(
        "storage",
        "repro.storage.record",
        "Record.commit_value",
        "Record.commit_delta",
        "Record.snapshot",
    )
    targets += _fixed("storage", "repro.storage.store", "RecordStore.read")
    targets.append(
        Target(
            "repro.workloads.generator:WorkloadStats.note_outcome",
            "workloads/note_outcome",
            kind="mark",
        )
    )
    targets += _fixed(
        "transport.codec", "repro.transport.codec", "encode", "decode", "JsonCodec.loads"
    )
    targets.append(
        Target(
            "repro.transport.codec:JsonCodec.dumps", "transport.codec/dumps", sized=True
        )
    )
    targets += _fixed(
        "transport.tcp",
        "repro.transport.tcp",
        "AsyncioTcpTransport.send",
        "AsyncioTcpTransport._on_frame",
    )
    targets.append(
        Target(
            "repro.transport.tcp:AsyncioTcpTransport.schedule",
            _callback_name,
            kind="timer",
        )
    )
    return targets


# ----------------------------------------------------------------------
# --check-entry
# ----------------------------------------------------------------------
def check_entry() -> List[str]:
    """Problems with the coupling rule (empty list == passes).

    * every exported symbol exists and none was defined in a forbidden
      module;
    * every trace target path resolves;
    * no other file under ``perf/`` imports ``repro`` itself or mentions a
      forbidden module or call.
    """
    from tracing import resolve_owner

    problems: List[str] = []
    namespace = globals()
    for name in __all__:
        if name not in namespace:
            problems.append(f"entry.{name} is exported but not defined")
            continue
        module = getattr(namespace[name], "__module__", None) or getattr(
            namespace[name], "__name__", ""
        )
        if any(module == bad or module.startswith(bad + ".") for bad in FORBIDDEN_MODULES):
            problems.append(f"entry.{name} comes from forbidden module {module}")
    for target in trace_targets():
        try:
            resolve_owner(target.path)
        except (ImportError, AttributeError) as exc:
            problems.append(f"trace target {target.path} does not resolve: {exc}")
    for filename in sorted(os.listdir(PERF_DIR)):
        if not filename.endswith(".py") or filename == "entry.py":
            continue
        with open(os.path.join(PERF_DIR, filename), encoding="utf-8") as handle:
            source = handle.read()
        for line_number, line in enumerate(source.splitlines(), 1):
            stripped = line.strip()
            if stripped.startswith(("import repro", "from repro")):
                problems.append(
                    f"perf/{filename}:{line_number} imports repro directly; "
                    "go through perf/entry.py"
                )
            for bad in (*FORBIDDEN_MODULES, *FORBIDDEN_CALLS):
                if bad in line:
                    problems.append(f"perf/{filename}:{line_number} mentions {bad}")
    return problems
