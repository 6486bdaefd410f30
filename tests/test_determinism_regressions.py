"""Regression tests for the latent DET-set-iter sites the analyzer found.

Each fix made an iteration-order-dependent value deterministic where it
is user-visible: wire payloads (``applied_ids`` tuples), client-facing
transaction outcomes (Megastore* ``statuses``), and the network model's
DC-cloning template (``rtts_from``).  The cross-interpreter test drives
real subprocesses under different ``PYTHONHASHSEED`` values — exactly
the variance that made the original PR 3 bugs invisible in-process.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.core.messages import RepairProbe
from repro.core.options import RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def _make_cluster(protocol, seed=1):
    cluster = build_cluster(ClusterSpec(protocol=protocol, partitions_per_table=1, seed=seed))
    cluster.register_table(ITEMS)
    return cluster


def test_repair_reply_applied_ids_sorted_on_the_wire():
    """RepairReply carries the applied-option-id set as a tuple; the
    tuple must not leak hash order (receivers diff it against their own
    state, and traces/artifacts embed it)."""
    cluster = _make_cluster("mdcc", seed=7)
    cluster.load_record("items", "i", {"stock": 10})
    node = cluster.storage_nodes[sorted(cluster.storage_nodes)[0]]
    record = RecordId("items", "i")
    state = node.record_state(record)
    # A catch-up folds three ids into the value, in no particular order.
    assert state.catch_up(state.version + 1, {"stock": 10}, ("tx-z", "tx-a", "tx-m"))

    sent = []
    node.send = lambda dst, message: sent.append((dst, message))
    node.handle_repair_probe(RepairProbe(record=record, request_id=1), "prober")
    (dst, reply), = sent
    assert dst == "prober"
    assert reply.applied_ids == ("tx-a", "tx-m", "tx-z")


def test_megastore_outcome_statuses_in_record_order():
    """The client-facing TransactionOutcome.statuses dict is built by
    iterating the transaction's touched-record set; its key order must
    be the sorted record order, not hash order."""
    cluster = _make_cluster("megastore", seed=9)
    for key in ("c", "a", "b"):
        cluster.load_record("items", key, {"stock": 10})
    client = cluster.add_client("us-west")
    tx = cluster.begin(client)
    for key in ("c", "a", "b"):
        cluster.sim.run_until(tx.read("items", key), limit=cluster.sim.now + 300_000)
        tx.write("items", key, {"stock": 9})
    outcome = cluster.sim.run_until(tx.commit(), limit=cluster.sim.now + 300_000)
    assert outcome.committed
    keys = list(outcome.statuses)
    assert len(keys) == 3
    assert keys == sorted(keys)


_RTTS_SNIPPET = """\
import json
from repro.sim.network import LatencyModel

model = LatencyModel()
print(json.dumps({dc: list(model.rtts_from(dc)) for dc in model.datacenters()}))
"""


def test_rtts_from_key_order_stable_across_hash_seeds():
    """rtts_from() is the template for cloning a replacement DC's network
    position during reconfiguration; its key order fed frozenset
    iteration and differed per PYTHONHASHSEED before the fix."""
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO_SRC))
        result = subprocess.run(
            [sys.executable, "-c", _RTTS_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    orders = json.loads(outputs[0])
    # every DC sees every other DC; order is matrix insertion order,
    # identical across interpreters (the fix), not necessarily sorted
    assert all(len(names) == len(orders) - 1 for names in orders.values())
