"""Tests for visibility batching (§7's message-overhead reduction)."""

import pytest

from repro.core.config import MDCCConfig
from repro.core.messages import VisibilityBatch
from repro.core.storage_node import MDCCStorageNode
from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(seed=1, batch_ms=0.0):
    cluster = build_cluster(
        ClusterSpec(partitions_per_table=1, seed=seed, batch_ms=batch_ms)
    )
    cluster.register_table(ITEMS)
    return cluster


def run_tx(cluster, fut, limit_ms=300_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


def commit_buys(cluster, client, keys, amount=1):
    """One transaction decrementing every key; returns the outcome."""
    tx = cluster.begin(client)
    for key in keys:
        tx.decrement("items", key, "stock", amount)
    outcome = run_tx(cluster, tx.commit())
    return outcome


class TestBatchMessage:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            VisibilityBatch(visibilities=())


class TestBatchingBehaviour:
    def test_disabled_by_default(self, monkeypatch):
        """Window 0, the default, batches within a transaction only: its
        visibilities for one replica set travel as one batch, and no batch
        ever carries two transactions — not even two in flight at once
        from the same coordinator.  No window saving is counted."""
        received = []
        handle = MDCCStorageNode.handle_visibility_batch

        def recording(node, message, src_id):
            received.append(message)
            handle(node, message, src_id)

        monkeypatch.setattr(MDCCStorageNode, "handle_visibility_batch", recording)
        cluster = make_cluster(seed=1)
        for i in range(8):
            cluster.load_record("items", f"k{i}", {"stock": 10})
        client = cluster.add_client("us-west")
        commits = []
        for first in (0, 4):  # two concurrent 4-record transactions
            tx = cluster.begin(client)
            for i in range(first, first + 4):
                tx.decrement("items", f"k{i}", "stock", 1)
            commits.append(tx.commit())
        assert all(run_tx(cluster, commit).committed for commit in commits)
        drain(cluster)
        # One partition per table: one replica set, so one batch per data
        # center per transaction.
        assert len(received) == 2 * 5
        for batch in received:
            assert len({v.option.txid for v in batch.visibilities}) == 1
            assert len(batch.visibilities) == 4
        assert cluster.network.stats.per_type.get("Visibility", 0) == 0
        assert cluster.counters.get("coordinator.visibility_batched") == 0

    def test_multi_record_tx_batches_visibilities(self):
        """With a window, a 4-record transaction's 4 visibilities per DC
        are buffered and flushed as one batch per replica."""
        cluster = make_cluster(seed=2, batch_ms=5.0)
        for i in range(4):
            cluster.load_record("items", f"k{i}", {"stock": 10})
        client = cluster.add_client("us-west")
        assert commit_buys(cluster, client, [f"k{i}" for i in range(4)]).committed
        drain(cluster)
        sent = cluster.network.stats.per_type
        assert sent.get("VisibilityBatch", 0) == 5  # one per data center
        assert sent.get("Visibility", 0) == 0
        # 3 messages saved per destination.
        assert cluster.counters.get("coordinator.visibility_batched") == 15

    def test_single_record_tx_sends_plain_visibility(self):
        """A batch of one is shipped as a plain Visibility message."""
        cluster = make_cluster(seed=3, batch_ms=5.0)
        cluster.load_record("items", "k", {"stock": 10})
        client = cluster.add_client("us-west")
        assert commit_buys(cluster, client, ["k"]).committed
        drain(cluster)
        sent = cluster.network.stats.per_type
        assert sent.get("VisibilityBatch", 0) == 0
        assert sent.get("Visibility", 0) == 5

    def test_batched_visibilities_apply_identically(self):
        """Replica state after a batched run matches an unbatched run."""
        outcomes = {}
        for batch_ms in (0.0, 5.0):
            cluster = make_cluster(seed=4, batch_ms=batch_ms)
            for i in range(3):
                cluster.load_record("items", f"k{i}", {"stock": 10})
            client = cluster.add_client("us-west")
            assert commit_buys(
                cluster, client, [f"k{i}" for i in range(3)], amount=2
            ).committed
            drain(cluster)
            outcomes[batch_ms] = {
                f"k{i}": {
                    node: snap.value["stock"]
                    for node, snap in cluster.committed_snapshots(
                        "items", f"k{i}"
                    ).items()
                }
                for i in range(3)
            }
        assert outcomes[0.0] == outcomes[5.0]
        for per_node in outcomes[5.0].values():
            assert set(per_node.values()) == {8}

    def test_batching_reduces_messages_under_load(self):
        """Under a multi-record workload, batching cuts total message
        count without losing any committed effect."""
        from repro.api import ClusterSpec, ScenarioSpec, run_scenario

        results = {}
        for batch_ms in (0.0, 10.0):
            results[batch_ms] = run_scenario(
                ScenarioSpec(
                    cluster=ClusterSpec(seed=55, batch_ms=batch_ms),
                    clients=10,
                    items=500,
                    warmup_s=2.0,
                    measure_s=10.0,
                )
            )
        plain, batched = results[0.0], results[10.0]
        assert batched.audit_problems == []
        assert batched.constraint_violations == 0
        assert batched.commits > 0.9 * plain.commits
        messages_plain = plain.counters.get("coordinator.visibility_batched", 0)
        messages_batched = batched.counters.get("coordinator.visibility_batched", 0)
        assert messages_plain == 0
        assert messages_batched > 0  # real savings were recorded

    def test_negative_batch_window_rejected(self):
        with pytest.raises(ValueError):
            MDCCConfig(visibility_batch_ms=-1.0)
