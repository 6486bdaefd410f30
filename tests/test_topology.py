"""Tests for ReplicaMap master policies (core/topology.py)."""

import pytest

from repro.core.options import RecordId
from repro.core.topology import ReplicaMap
from repro.sim.network import EC2_REGIONS


def record(i: int) -> RecordId:
    return RecordId("items", f"item:{i:06d}")


class TestHashPolicy:
    def test_spreads_masters_roughly_uniformly(self):
        placement = ReplicaMap(EC2_REGIONS, master_policy="hash")
        counts = {dc: 0 for dc in EC2_REGIONS}
        n = 2_000
        for i in range(n):
            counts[placement.master_dc(record(i))] += 1
        expected = n / len(EC2_REGIONS)
        for dc, count in counts.items():
            assert abs(count - expected) < 0.25 * expected, (dc, count)

    def test_deterministic(self):
        a = ReplicaMap(EC2_REGIONS, master_policy="hash")
        b = ReplicaMap(EC2_REGIONS, master_policy="hash")
        for i in range(50):
            assert a.master_dc(record(i)) == b.master_dc(record(i))

    def test_master_node_is_replica_in_master_dc(self):
        placement = ReplicaMap(EC2_REGIONS, partitions_per_table=3)
        r = record(7)
        assert placement.master_node(r) == placement.replica_in(
            r, placement.master_dc(r)
        )


class TestFixedPolicy:
    def test_routes_everything_to_the_fixed_dc(self):
        placement = ReplicaMap(EC2_REGIONS, master_policy="fixed:eu-west")
        for i in range(50):
            assert placement.master_dc(record(i)) == "eu-west"

    def test_unknown_fixed_dc_rejected(self):
        with pytest.raises(ValueError, match="unknown fixed master DC"):
            ReplicaMap(EC2_REGIONS, master_policy="fixed:mars-north")


class TestPolicyValidation:
    def test_unknown_policy_string_rejected(self):
        with pytest.raises(ValueError, match="unknown master policy"):
            ReplicaMap(EC2_REGIONS, master_policy="round-robin")

    def test_static_policies_have_no_adaptive_state(self):
        placement = ReplicaMap(EC2_REGIONS, master_policy="hash")
        assert placement.tracker is None
        assert placement.directory is None
        assert not placement.is_adaptive
        # note_write is a safe no-op under static policies.
        placement.note_write(record(1), "us-west", now=0.0)


class TestAdaptivePolicy:
    def test_starts_out_identical_to_hash(self):
        adaptive = ReplicaMap(EC2_REGIONS, master_policy="adaptive")
        hashed = ReplicaMap(EC2_REGIONS, master_policy="hash")
        assert adaptive.is_adaptive
        for i in range(100):
            assert adaptive.master_dc(record(i)) == hashed.master_dc(record(i))

    def test_directory_assignment_overrides_hash(self):
        placement = ReplicaMap(EC2_REGIONS, master_policy="adaptive")
        r = record(3)
        before = placement.master_dc(r)
        target = next(dc for dc in EC2_REGIONS if dc != before)
        placement.directory.assign(r, target, now=1_000.0)
        assert placement.master_dc(r) == target
        assert placement.master_node(r) == placement.replica_in(r, target)

    def test_note_write_feeds_the_tracker(self):
        placement = ReplicaMap(EC2_REGIONS, master_policy="adaptive")
        placement.note_write(record(1), "ap-southeast", now=5.0)
        shares, total = placement.tracker.shares(record(1), now=5.0)
        assert shares == {"ap-southeast": 1.0}
        assert total == 1.0
