"""Replicated Commit: Paxos across data centers over per-DC 2PC.

Covers the protocol's three claims against MDCC (one WAN round per
transaction, majority reads, no blocking on a straggler DC) plus its
failure vocabulary: minority partitions abort, out-of-order applies
buffer instead of corrupting, and anti-entropy converges a DC that
missed a decision — releasing any lock the lost decision stranded.
"""

import pytest

from repro.core.messages import RcApply, RcPrepare, CatchUp
from repro.core.options import PhysicalUpdate, RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.protocols.replicatedcommit import (
    ReplicatedCommitClient,
    ReplicatedCommitStorageNode,
)
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(seed=1):
    cluster = build_cluster(
        ClusterSpec(protocol="repcommit", partitions_per_table=1, seed=seed)
    )
    cluster.register_table(ITEMS)
    return cluster


def run_tx(cluster, fut, limit_ms=300_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


class TestCommitPath:
    def test_commit_applies_everywhere(self):
        cluster = make_cluster()
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        assert not outcome.fast_path
        drain(cluster)
        for snap in cluster.committed_snapshots("items", "i").values():
            assert snap.value == {"stock": 9}
            assert snap.version == 2

    def test_one_wan_round_per_transaction(self):
        """Commit latency is one WAN round to the majority-deciding DC —
        about the RTT to the 3rd-closest DC from us-west (~120ms), far
        under 2PC's two rounds to ALL replicas (~420ms)."""
        cluster = make_cluster(seed=2)
        for i in range(3):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        for i in range(3):
            run_tx(cluster, tx.read("items", f"i{i}", ))
            tx.write("items", f"i{i}", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed
        # Multi-record write-set, still a single wide-area round.
        assert 100 <= outcome.latency_ms <= 250

    def test_empty_writeset_commits_immediately(self):
        cluster = make_cluster(seed=3)
        client = cluster.add_client("us-east")
        outcome = run_tx(cluster, cluster.begin(client).commit())
        assert outcome.committed
        assert outcome.statuses == {}

    def test_conflicting_transactions_one_aborts(self):
        cluster = make_cluster(seed=4)
        cluster.load_record("items", "hot", {"stock": 50})
        c1 = cluster.add_client("us-west")
        c2 = cluster.add_client("eu-west")
        t1, t2 = cluster.begin(c1), cluster.begin(c2)
        run_tx(cluster, t1.read("items", "hot"))
        run_tx(cluster, t2.read("items", "hot"))
        t1.write("items", "hot", {"stock": 49})
        t2.write("items", "hot", {"stock": 48})
        f1, f2 = t1.commit(), t2.commit()
        o1, o2 = run_tx(cluster, f1), run_tx(cluster, f2)
        assert not (o1.committed and o2.committed)
        drain(cluster, 30_000)
        values = {
            snap.value["stock"]
            for snap in cluster.committed_snapshots("items", "hot").values()
        }
        assert len(values) == 1  # every replica converged on one winner

    def test_constraint_checked_at_prepare(self):
        cluster = make_cluster(seed=5)
        cluster.load_record("items", "scarce", {"stock": 1})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "scarce"))
        tx.write("items", "scarce", {"stock": -1})
        assert not run_tx(cluster, tx.commit()).committed


class TestMajorityReads:
    def test_read_returns_freshest_of_majority(self):
        """'Reads go to a majority of data centers': one stale DC cannot
        serve a stale read even if it answers first."""
        cluster = make_cluster(seed=6)
        cluster.load_record("items", "i", {"stock": 10})
        record = RecordId("items", "i")
        # Advance 3 of 5 replicas out-of-band; us-west stays at version 1.
        for dc in ("us-east", "eu-west", "ap-southeast"):
            node = cluster.storage_nodes[cluster.placement.replica_in(record, dc)]
            node.store.record("items", "i").commit_value({"stock": 7})
        client = cluster.add_client("us-west")
        reply = run_tx(cluster, client.read("items", "i"))
        assert reply.version == 2
        assert reply.value == {"stock": 7}

    def test_pinned_read_takes_one_replica(self):
        cluster = make_cluster(seed=7)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        reply = run_tx(cluster, client.read("items", "i", dc="us-west"))
        assert reply.version == 1

    def test_read_retries_are_bounded(self):
        """A read into a permanent full outage terminates (as a miss)
        instead of spinning forever."""
        cluster = make_cluster(seed=8)
        cluster.load_record("items", "i", {"stock": 10})
        for dc in cluster.placement.datacenters:
            cluster.fail_datacenter(dc)
        client = cluster.add_client("us-west")
        reply = run_tx(cluster, client.read("items", "i"), limit_ms=600_000)
        assert not reply.exists
        assert reply.version == 0


class TestPartitions:
    def test_minority_partition_aborts(self):
        """With 3 of 5 DCs unreachable the proposer cannot reach a
        majority of yes votes: the transaction aborts (vote timeout),
        it does not block."""
        cluster = make_cluster(seed=9)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        for dc in ("eu-west", "ap-southeast", "ap-northeast"):
            cluster.fail_datacenter(dc)
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit(), limit_ms=600_000)
        assert not outcome.committed
        # The healed cluster is not wedged: locks released, commits flow.
        for dc in ("eu-west", "ap-southeast", "ap-northeast"):
            cluster.recover_datacenter(dc)
        drain(cluster, 30_000)
        tx2 = cluster.begin(client)
        run_tx(cluster, tx2.read("items", "i"))
        tx2.write("items", "i", {"stock": 8})
        assert run_tx(cluster, tx2.commit()).committed

    def test_majority_commits_through_minority_outage(self):
        """The flip side: ONE failed DC does not stall commits (unlike
        2PC, which needs all replicas)."""
        cluster = make_cluster(seed=10)
        cluster.load_record("items", "i", {"stock": 10})
        cluster.fail_datacenter("ap-southeast")
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        outcome = run_tx(cluster, tx.commit())
        assert outcome.committed

    def test_antientropy_converges_partitioned_dc(self):
        """A DC that missed the decision catches up via the shared
        RepairProbe/CatchUp sweep once the partition heals."""
        cluster = make_cluster(seed=11)
        cluster.load_record("items", "i", {"stock": 10})
        cluster.fail_datacenter("ap-southeast")
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_tx(cluster, tx.read("items", "i"))
        tx.write("items", "i", {"stock": 9})
        assert run_tx(cluster, tx.commit()).committed
        drain(cluster, 30_000)
        cluster.recover_datacenter("ap-southeast")
        stale = cluster.read_committed("items", "i", dc="ap-southeast")
        assert stale.version == 1  # missed the apply during the outage
        agent = cluster.add_anti_entropy_agent("us-west")
        run_tx(cluster, agent.sweep("items", ["i"]))
        drain(cluster, 30_000)
        for snap in cluster.committed_snapshots("items", "i").values():
            assert snap.version == 2
            assert snap.value == {"stock": 9}


class TestParticipantStateMachine:
    """Direct handler-level coverage of the reorder/idempotence corners
    (the WAN delivers decisions and prepares in any order)."""

    def _node_and_record(self, cluster):
        record = RecordId("items", "i")
        node_id = cluster.placement.replica_in(record, "us-west")
        node = cluster.storage_nodes[node_id]
        assert isinstance(node, ReplicatedCommitStorageNode)
        return node, record

    def test_out_of_order_applies_buffer_until_predecessor(self):
        cluster = make_cluster(seed=12)
        cluster.load_record("items", "i", {"stock": 10})
        node, record = self._node_and_record(cluster)
        later = PhysicalUpdate(vread=2, new_value={"stock": 5})
        earlier = PhysicalUpdate(vread=1, new_value={"stock": 7})
        node.handle_rc_apply(
            RcApply(txid="t2", updates=((record, later),), commit=True), "x"
        )
        # Parked: version 1 state is untouched until t1's apply lands.
        assert node.store.read("items", "i").value == {"stock": 10}
        node.handle_rc_apply(
            RcApply(txid="t1", updates=((record, earlier),), commit=True), "x"
        )
        snap = node.store.read("items", "i")
        assert snap.version == 3
        assert snap.value == {"stock": 5}
        assert record not in node._apply_buffer  # drained

    def test_duplicate_apply_is_idempotent(self):
        cluster = make_cluster(seed=13)
        cluster.load_record("items", "i", {"stock": 10})
        node, record = self._node_and_record(cluster)
        update = PhysicalUpdate(vread=1, new_value={"stock": 9})
        message = RcApply(txid="t1", updates=((record, update),), commit=True)
        node.handle_rc_apply(message, "x")
        node.handle_rc_apply(message, "x")
        assert node.store.read("items", "i").version == 2

    def test_catch_up_releases_stranded_lock(self):
        """Adopting repaired state supersedes whatever decision the
        replica missed — the stranded lock must not block future writes."""
        cluster = make_cluster(seed=15)
        cluster.load_record("items", "i", {"stock": 10})
        node, record = self._node_and_record(cluster)
        update = PhysicalUpdate(vread=1, new_value={"stock": 9})
        node.handle_rc_prepare(
            RcPrepare(txid="t-lost", updates=((record, update),), reply_to="x"), "x"
        )
        assert record in node._locks  # prepared, decision never arrives
        node.handle_catch_up(
            CatchUp(record=record, version=2, value={"stock": 9}, exists=True), "x"
        )
        assert record not in node._locks
        assert node.store.read("items", "i").version == 2


class TestClusterIntegration:
    def test_roles_are_replicated_commit(self):
        cluster = make_cluster(seed=16)
        assert all(
            isinstance(node, ReplicatedCommitStorageNode)
            for node in cluster.storage_nodes.values()
        )
        assert isinstance(cluster.add_client("us-east"), ReplicatedCommitClient)

    def test_serializable_supported(self):
        cluster = make_cluster(seed=17)
        cluster.load_record("items", "a", {"stock": 5})
        cluster.load_record("items", "b", {"stock": 5})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client, serializable=True)
        run_tx(cluster, tx.read("items", "a"))  # read-set entry
        run_tx(cluster, tx.read("items", "b"))
        tx.write("items", "b", {"stock": 4})
        # Invalidate the read of "a" behind the transaction's back.
        other = cluster.begin(cluster.add_client("eu-west"))
        run_tx(cluster, other.read("items", "a"))
        other.write("items", "a", {"stock": 1})
        assert run_tx(cluster, other.commit()).committed
        drain(cluster, 30_000)
        assert not run_tx(cluster, tx.commit()).committed  # stale read-set

    def test_adaptive_placement_rejected(self):
        with pytest.raises(ValueError, match="adaptive master placement"):
            build_cluster(ClusterSpec(protocol="repcommit", master_policy="adaptive"))

    def test_elastic_membership_rejected(self):
        with pytest.raises(ValueError, match="elastic membership"):
            build_cluster(ClusterSpec(protocol="repcommit", elastic=True))
