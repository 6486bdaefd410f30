"""Unit tests for ballot ordering and instance-range metadata."""

import pytest

from repro.paxos.ballot import Ballot, BallotRange, INITIAL_FAST_BALLOT


class TestBallotOrdering:
    def test_higher_round_wins(self):
        assert Ballot(2, fast=True) > Ballot(1, fast=False)

    def test_classic_outranks_fast_at_same_round(self):
        # §3.3.1: classic ballot numbers are always higher ranked than fast.
        fast = Ballot(3, fast=True, proposer="a")
        classic = Ballot(3, fast=False, proposer="a")
        assert classic > fast
        assert fast < classic

    def test_proposer_breaks_ties(self):
        a = Ballot(1, fast=False, proposer="node-a")
        b = Ballot(1, fast=False, proposer="node-b")
        assert a < b
        assert a != b

    def test_equality(self):
        assert Ballot(1, True, "x") == Ballot(1, True, "x")
        assert Ballot(1, True, "x") != Ballot(1, False, "x")

    def test_total_order_is_consistent(self):
        ballots = [
            Ballot(0, True),
            Ballot(0, False),
            Ballot(1, True, "a"),
            Ballot(1, True, "b"),
            Ballot(1, False, "a"),
            Ballot(2, True),
        ]
        ordered = sorted(ballots, key=Ballot.sort_key)
        for left, right in zip(ordered, ordered[1:]):
            assert left < right or left == right

    def test_initial_fast_ballot_is_lowest_fast_round_zero(self):
        assert INITIAL_FAST_BALLOT.fast
        assert INITIAL_FAST_BALLOT.round == 0
        assert Ballot(0, fast=False) > INITIAL_FAST_BALLOT


class TestBallotRange:
    def test_default_range_matches_paper(self):
        # §3.3.2: [0, ∞, fast=true, ballot=0]
        default = BallotRange.default()
        assert default.start_instance == 0
        assert default.end_instance is None
        assert default.fast
        assert default.ballot == INITIAL_FAST_BALLOT

    def test_covers_bounded(self):
        r = BallotRange(10, 20, Ballot(1, False, "m"))
        assert not r.covers(9)
        assert r.covers(10) and r.covers(20)
        assert not r.covers(21)

    def test_covers_unbounded(self):
        r = BallotRange(5, None, Ballot(1, True))
        assert not r.covers(4)
        assert r.covers(5) and r.covers(10**9)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            BallotRange(-1, 5, Ballot(1, True))
        with pytest.raises(ValueError):
            BallotRange(10, 5, Ballot(1, True))

    def test_fast_flag_comes_from_ballot(self):
        assert BallotRange(0, None, Ballot(1, True)).fast
        assert not BallotRange(0, None, Ballot(1, False)).fast
