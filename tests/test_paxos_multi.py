"""Unit tests for Multi-Paxos mastership ranges."""

from repro.paxos.ballot import Ballot, BallotRange, INITIAL_FAST_BALLOT
from repro.paxos.multi import MastershipState


def classic(round_, proposer="m"):
    return Ballot(round_, fast=False, proposer=proposer)


def fast(round_, proposer=""):
    return Ballot(round_, fast=True, proposer=proposer)


class TestMastershipState:
    def test_default_is_fast_everywhere(self):
        state = MastershipState()
        assert state.is_fast(0)
        assert state.is_fast(10**6)
        assert state.effective_ballot(5) == INITIAL_FAST_BALLOT

    def test_grant_higher_ballot(self):
        state = MastershipState()
        granted = state.grant(BallotRange(0, 99, classic(1)))
        assert granted
        assert not state.is_fast(50)
        assert state.effective_ballot(50) == classic(1)
        # Outside the range the default still applies.
        assert state.is_fast(100)

    def test_grant_lower_ballot_rejected(self):
        state = MastershipState()
        assert state.grant(BallotRange(0, None, classic(5)))
        assert not state.grant(BallotRange(10, 20, classic(3)))
        assert state.effective_ballot(15) == classic(5)

    def test_equal_ballot_rescopes_own_lease(self):
        """An equal-ballot grant is the same master re-scoping its lease:
        accepted, and authoritative for the instances it covers."""
        state = MastershipState()
        assert state.grant(BallotRange(0, 10, classic(2)))
        assert state.grant(BallotRange(5, 15, classic(2)))
        assert state.effective_ballot(3) == classic(2)  # head preserved
        assert state.effective_ballot(12) == classic(2)
        assert state.is_fast(16)  # beyond the re-scoped lease: default

    def test_bounded_regrant_truncates_open_ended_promise(self):
        """The §3.3.2 γ mechanics: recovery's Phase 1 takes an open-ended
        classic promise [v, ∞); the post-recovery grant [v, v+γ-1] with the
        same ballot must supersede it so instances past the horizon revert
        to fast (regression: γ had no effect while the ∞ promise shadowed
        every later instance)."""
        state = MastershipState()
        assert state.grant(BallotRange(7, None, classic(3)))
        assert not state.is_fast(1_000)
        gamma = 10
        assert state.grant(BallotRange(7, 7 + gamma - 1, classic(3)))
        assert not state.is_fast(7)
        assert not state.is_fast(16)
        assert state.is_fast(17)  # first instance past the γ horizon
        assert state.is_fast(1_000)

    def test_non_overlapping_grants_coexist(self):
        state = MastershipState()
        assert state.grant(BallotRange(0, 9, classic(1, "a")))
        assert state.grant(BallotRange(10, 19, classic(1, "b")))
        assert state.effective_ballot(5).proposer == "a"
        assert state.effective_ballot(15).proposer == "b"

    def test_round_robin_masters_per_instance(self):
        # §3.1.2: "supports custom master policies like round-robin".
        state = MastershipState()
        for i, master in enumerate(["a", "b", "c"]):
            assert state.grant(BallotRange(i, i, classic(1, master)))
        assert state.effective_ballot(0).proposer == "a"
        assert state.effective_ballot(1).proposer == "b"
        assert state.effective_ballot(2).proposer == "c"

    def test_higher_grant_shadows_on_overlap(self):
        state = MastershipState()
        assert state.grant(BallotRange(0, None, classic(1, "old")))
        assert state.grant(BallotRange(50, None, classic(2, "new")))
        assert state.effective_ballot(10).proposer == "old"
        assert state.effective_ballot(60).proposer == "new"

    def test_fast_range_grant_restores_fast(self):
        # §3.3.2: after γ classic instances the protocol probes fast again.
        state = MastershipState()
        assert state.grant(BallotRange(0, 99, classic(1)))
        assert state.grant(BallotRange(100, None, fast(2)))
        assert not state.is_fast(99)
        assert state.is_fast(100)
