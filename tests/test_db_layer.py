"""Tests for the DB layer: reads, checkers, topology, config."""

import pytest

from repro.core.config import MDCCConfig, ProtocolVariant
from repro.core.fastpolicy import make_policy
from repro.core.options import RecordId
from repro.core.topology import ReplicaMap
from repro.db.checkers import (
    UpdateLedger,
    check_constraints,
    check_replica_convergence,
)
from repro.db.cluster import ClusterSpec, build_cluster
from repro.sim.network import EC2_REGIONS
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(protocol="mdcc", seed=1):
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, partitions_per_table=1, seed=seed)
    )
    cluster.register_table(ITEMS)
    return cluster


class TestTopology:
    def test_five_replicas_one_per_dc(self):
        placement = ReplicaMap(
            ["us-west", "us-east", "eu-west", "ap-southeast", "ap-northeast"]
        )
        record = RecordId("items", "k")
        replicas = placement.replicas(record)
        assert len(replicas) == 5
        assert len(set(replicas)) == 5

    def test_partitioning_distributes_keys(self):
        placement = ReplicaMap(["us-west", "us-east", "eu-west"], partitions_per_table=4)
        partitions = {
            placement.partition_of("items", f"k{i}") for i in range(200)
        }
        assert partitions == {0, 1, 2, 3}

    def test_partition_count_must_be_positive(self):
        with pytest.raises(ValueError, match="partitions_per_table"):
            ClusterSpec(partitions_per_table=0)

    def test_same_key_same_partition_everywhere(self):
        placement = ReplicaMap(["a", "b", "c"], partitions_per_table=4)
        record = RecordId("items", "k7")
        partition = placement.partition_of("items", "k7")
        for node in placement.replicas(record):
            assert node.endswith(f"p{partition}")

    def test_hash_master_policy_spreads(self):
        placement = ReplicaMap(["a", "b", "c", "d", "e"], master_policy="hash")
        masters = {
            placement.master_dc(RecordId("items", f"k{i}")) for i in range(200)
        }
        assert masters == {"a", "b", "c", "d", "e"}

    def test_fixed_master_policy(self):
        placement = ReplicaMap(["a", "b", "c"], master_policy="fixed:b")
        assert placement.master_dc(RecordId("items", "anything")) == "b"

    def test_unknown_policies_rejected(self):
        with pytest.raises(ValueError):
            ReplicaMap(["a"], master_policy="bogus")
        with pytest.raises(ValueError):
            ReplicaMap(["a"], master_policy="fixed:mars")

    def test_master_candidates_start_with_master(self):
        placement = ReplicaMap(["a", "b", "c"], master_policy="fixed:b")
        record = RecordId("items", "k")
        candidates = placement.master_candidates(record)
        assert candidates[0] == placement.master_node(record)
        assert len(candidates) == 3


class TestConfig:
    def test_variant_knobs(self):
        assert ProtocolVariant.MDCC.fast_ballots and ProtocolVariant.MDCC.commutative
        assert ProtocolVariant.FAST.fast_ballots and not ProtocolVariant.FAST.commutative
        assert not ProtocolVariant.MULTI.fast_ballots

    def test_quorum_derivation(self):
        """Quorum sizes come from the replica map, their one owner."""
        quorums = ReplicaMap(EC2_REGIONS).quorums()
        assert quorums.classic_size == 3
        assert quorums.fast_size == 4

    def test_commutative_gamma_defaults_to_gamma(self):
        """A demarcation-limit hit takes γ classic instances like any
        collision (§3.4.2)."""
        policy = make_policy(MDCCConfig(gamma=42))
        record = RecordId("items", "k")
        assert policy.classic_horizon(record, "commutative-limit", 0.0) == 42
        assert policy.classic_horizon(record, "collision", 0.0) == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            MDCCConfig(gamma=0)


class TestReadStrategies:
    """§4.2's reads as the protocols run them: an MDCC client reads its
    local replica (cheap, may be stale); Replicated Commit reads a majority
    of data centers and keeps the freshest reply; ``dc=`` pins one replica."""

    def _commit_remote_write(self, cluster):
        """Write via a client in ap-southeast; return the writer client."""
        client = cluster.add_client("ap-southeast")
        tx = cluster.begin(client)
        cluster.sim.run_until(tx.read("items", "i"), limit=cluster.sim.now + 30_000)
        tx.write("items", "i", {"stock": 1})
        cluster.sim.run_until(tx.commit(), limit=cluster.sim.now + 120_000)
        return client

    def _cut_off_us_west(self, cluster):
        for dc in ("ap-southeast", "us-east", "eu-west", "ap-northeast"):
            cluster.network.partition("us-west", dc)

    def test_local_read_returns_committed(self):
        cluster = make_cluster(seed=31)
        cluster.load_record("items", "i", {"stock": 10})
        client = cluster.add_client("us-west")
        reply = cluster.sim.run_until(client.read("items", "i"), limit=30_000)
        assert reply.value == {"stock": 10}

    def test_local_read_can_be_stale(self):
        """A replica that missed the visibility still answers with the old
        value — the staleness §4.2 describes."""
        cluster = make_cluster(seed=32)
        cluster.load_record("items", "i", {"stock": 10})
        self._cut_off_us_west(cluster)  # so it misses the update
        self._commit_remote_write(cluster)  # commits via the other 4 DCs
        reader = cluster.add_client("us-west")
        reply = cluster.sim.run_until(
            reader.read("items", "i"), limit=cluster.sim.now + 30_000
        )
        assert reply.value == {"stock": 10}  # stale

    def test_majority_read_sees_latest(self):
        cluster = make_cluster(protocol="repcommit", seed=33)
        cluster.load_record("items", "i", {"stock": 10})
        self._cut_off_us_west(cluster)
        self._commit_remote_write(cluster)
        for dc in ("us-east", "eu-west", "ap-northeast"):
            cluster.network.heal_partition("us-west", dc)
        reader = cluster.add_client("us-west")
        reply = cluster.sim.run_until(
            reader.read("items", "i"), limit=cluster.sim.now + 60_000
        )
        assert reply.value == {"stock": 1}  # the freshest of a majority

    def test_pseudo_master_read_targets_master_dc(self):
        cluster = make_cluster(seed=34)
        # A record mastered away from the reader, so the round trip shows.
        key, master_dc = next(
            (key, cluster.placement.master_dc(RecordId("items", key)))
            for key in (f"i{n}" for n in range(100))
            if cluster.placement.master_dc(RecordId("items", key)) != "us-west"
        )
        cluster.load_record("items", key, {"stock": 10})
        reader = cluster.add_client("us-west")
        reply = cluster.sim.run_until(
            reader.read("items", key, dc=master_dc),
            limit=cluster.sim.now + 60_000,
        )
        assert reply.value == {"stock": 10}
        # Latency consistent with a round trip to the master's DC.
        rtt = cluster.network.latency.base_rtt("us-west", master_dc)
        assert cluster.sim.now >= rtt * 0.8


class TestCheckers:
    def test_convergence_clean(self):
        cluster = make_cluster(seed=35)
        cluster.load_record("items", "i", {"stock": 10})
        assert check_replica_convergence(cluster, "items", ["i"]) == []

    def test_convergence_detects_divergence(self):
        cluster = make_cluster(seed=36)
        cluster.load_record("items", "i", {"stock": 10})
        # Manually poke one replica out of line.
        node = cluster.storage_nodes["store-eu-west-p0"]
        node.store.record("items", "i").commit_value({"stock": 1})
        divergences = check_replica_convergence(cluster, "items", ["i"])
        assert len(divergences) == 1

    def test_constraints_clean_and_dirty(self):
        cluster = make_cluster(seed=37)
        cluster.load_record("items", "i", {"stock": 10})
        assert check_constraints(cluster, "items", ["i"]) == []
        node = cluster.storage_nodes["store-us-east-p0"]
        node.store.record("items", "i").commit_value({"stock": -2})
        violations = check_constraints(cluster, "items", ["i"])
        assert len(violations) == 1
        assert violations[0].bound == "min"

    def test_ledger_detects_lost_update(self):
        cluster = make_cluster(seed=38)
        cluster.load_record("items", "i", {"stock": 10})
        ledger = UpdateLedger()
        ledger.track("items", "i", "stock", 10)
        ledger.record_delta("items", "i", "stock", -3)
        # The delta was never applied anywhere: audit must complain.
        problems = ledger.audit(cluster)
        assert problems and "expected 7" in problems[0]

    def test_ledger_clean_after_real_commit(self):
        cluster = make_cluster(seed=39)
        cluster.load_record("items", "i", {"stock": 10})
        ledger = UpdateLedger()
        ledger.track("items", "i", "stock", 10)
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        tx.decrement("items", "i", "stock", 3)
        outcome = cluster.sim.run_until(tx.commit(), limit=120_000)
        assert outcome.committed
        ledger.record_delta("items", "i", "stock", -3)
        cluster.sim.run(until=cluster.sim.now + 5_000)
        assert ledger.audit(cluster) == []

    def test_ledger_untracked_raises(self):
        ledger = UpdateLedger()
        with pytest.raises(KeyError):
            ledger.record_delta("items", "x", "stock", -1)
