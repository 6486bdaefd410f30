"""Unit and property tests for quorum sizing and intersections."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.paxos.quorum import QuorumSpec, classic_quorum_size, min_fast_quorum_size


class TestSizes:
    def test_paper_setting_n5(self):
        # §3.3.1: "A typical setting for a replication factor of 5 is a
        # classic quorum size of 3 and a fast quorum size of 4."
        spec = QuorumSpec.for_replication(5)
        assert spec.classic_size == 3
        assert spec.fast_size == 4

    def test_classic_sizes(self):
        assert classic_quorum_size(1) == 1
        assert classic_quorum_size(3) == 2
        assert classic_quorum_size(4) == 3
        assert classic_quorum_size(5) == 3
        assert classic_quorum_size(7) == 4

    def test_classic_size_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classic_quorum_size(0)

    def test_min_fast_sizes(self):
        assert min_fast_quorum_size(3, 2) == 3
        assert min_fast_quorum_size(5, 3) == 4
        assert min_fast_quorum_size(7, 4) == 6

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            QuorumSpec(n=5, classic_size=2, fast_size=4)  # classic too small
        with pytest.raises(ValueError):
            QuorumSpec(n=5, classic_size=3, fast_size=3)  # fast too small
        with pytest.raises(ValueError):
            QuorumSpec(n=5, classic_size=3, fast_size=6)  # fast too large

    @given(st.integers(min_value=1, max_value=15))
    def test_derived_spec_always_valid(self, n):
        spec = QuorumSpec.for_replication(n)  # __post_init__ validates
        assert spec.n == n

    @given(st.integers(min_value=1, max_value=9))
    def test_two_fast_one_classic_always_intersect(self, n):
        """Exhaustively verify requirement (ii) on small groups."""
        spec = QuorumSpec.for_replication(n)
        acceptors = [f"a{i}" for i in range(n)]
        fast_quorums = [
            set(c) for c in itertools.combinations(acceptors, spec.fast_size)
        ]
        classic_quorums = [
            set(c) for c in itertools.combinations(acceptors, spec.classic_size)
        ]
        for f1 in fast_quorums:
            for f2 in fast_quorums:
                for c in classic_quorums:
                    assert f1 & f2 & c, (f1, f2, c)

    @given(st.integers(min_value=1, max_value=9))
    def test_any_two_quorums_intersect(self, n):
        """Requirement (i)."""
        spec = QuorumSpec.for_replication(n)
        acceptors = [f"a{i}" for i in range(n)]
        all_quorums = [
            set(c) for c in itertools.combinations(acceptors, spec.classic_size)
        ] + [set(c) for c in itertools.combinations(acceptors, spec.fast_size)]
        for q1 in all_quorums:
            for q2 in all_quorums:
                assert q1 & q2


class TestPredicates:
    def test_fast_unreachable(self):
        spec = QuorumSpec.for_replication(5)  # fast quorum = 4
        # 2 positive, 2 responded-negative, 1 outstanding: max 3 < 4.
        assert spec.fast_unreachable(positive=2, total_responses=4)
        # 3 positive, 1 negative, 1 outstanding: could still reach 4.
        assert not spec.fast_unreachable(positive=3, total_responses=4)
        # All responded, 4 positive: reached, not unreachable.
        assert not spec.fast_unreachable(positive=4, total_responses=5)

    def test_possible_fast_quorums_count(self):
        spec = QuorumSpec.for_replication(5)
        quorums = list(spec.possible_fast_quorums([f"a{i}" for i in range(5)]))
        assert len(quorums) == 5  # C(5,4)
        assert all(len(q) == 4 for q in quorums)

    def test_possible_fast_quorums_wrong_group_size(self):
        spec = QuorumSpec.for_replication(5)
        with pytest.raises(ValueError):
            list(spec.possible_fast_quorums(["a", "b"]))

    def test_possible_fast_quorums_meet_every_classic_quorum(self):
        # §3.3.1 recovery reads a fast quorum's votes off a classic
        # quorum's responses: at n = 5 every fast quorum meets every
        # classic quorum.
        spec = QuorumSpec.for_replication(5)
        acceptors = [f"a{i}" for i in range(5)]
        fast_quorums = list(spec.possible_fast_quorums(acceptors))
        for classic in itertools.combinations(acceptors, spec.classic_size):
            for fast_quorum in fast_quorums:
                assert fast_quorum & set(classic)
