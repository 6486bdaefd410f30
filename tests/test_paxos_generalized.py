"""Tests for Generalized Paxos ProvedSafe (Algorithm 2, lines 49-57)."""

from dataclasses import dataclass

import pytest

from repro.paxos.ballot import Ballot
from repro.paxos.cstruct import CStruct
from repro.paxos.generalized import CStructReport, deterministic_merge, proved_safe
from repro.paxos.quorum import QuorumSpec

SPEC = QuorumSpec.for_replication(5)
ACCEPTORS = [f"s{i}" for i in range(1, 6)]


@dataclass(frozen=True)
class Delta:
    cid: str

    @property
    def command_id(self):
        return self.cid

    def commutes_with(self, other):
        return isinstance(other, Delta)


@dataclass(frozen=True)
class Phys:
    cid: str

    @property
    def command_id(self):
        return self.cid

    def commutes_with(self, other):
        return False


def rep(acceptor, ballot, commands):
    return CStructReport(
        acceptor=acceptor,
        ballot=ballot,
        value=CStruct(commands) if commands is not None else None,
    )


FAST0 = Ballot(0, fast=True)
CLASSIC1 = Ballot(1, fast=False, proposer="m")


class TestProvedSafe:
    def test_no_votes_returns_empty(self):
        reports = [rep(f"s{i}", None, None) for i in (1, 2, 3)]
        safe = proved_safe(reports, SPEC, ACCEPTORS)
        assert len(safe) == 0

    def test_insufficient_quorum_rejected(self):
        with pytest.raises(ValueError):
            proved_safe([rep("s1", FAST0, [])], SPEC, ACCEPTORS)

    def test_unanimous_fast_votes_survive(self):
        d1, d2 = Delta("d1"), Delta("d2")
        reports = [
            rep("s1", FAST0, [d1, d2]),
            rep("s2", FAST0, [d2, d1]),  # commuted order: same trace
            rep("s3", FAST0, [d1, d2]),
        ]
        safe = proved_safe(reports, SPEC, ACCEPTORS)
        assert safe.ids == {"d1", "d2"}

    def test_partially_seen_commutative_commands_all_survive(self):
        # Quorum members saw different subsets of commuting deltas.  Any
        # fast quorum's intersection glb keeps the common part; the lub of
        # all gammas reunites everything that might have been chosen.
        d1, d2, d3 = Delta("d1"), Delta("d2"), Delta("d3")
        reports = [
            rep("s1", FAST0, [d1, d2]),
            rep("s2", FAST0, [d1, d2, d3]),
            rep("s3", FAST0, [d2, d3]),
        ]
        safe = proved_safe(reports, SPEC, ACCEPTORS)
        # d2 is common to every possible intersection; d1/d3 appear in some.
        assert "d2" in safe.ids
        assert safe.ids <= {"d1", "d2", "d3"}

    def test_conflicting_physical_commands_resolved_deterministically(self):
        # Two physical options in divergent orders: nothing was chosen
        # (no fast quorum can agree), leader merges deterministically.
        x1, x2 = Phys("x1"), Phys("x2")
        reports = [
            rep("s1", FAST0, [x1]),
            rep("s2", FAST0, [x2]),
            rep("s3", FAST0, [x1]),
        ]
        safe = proved_safe(reports, SPEC, ACCEPTORS)
        assert safe.ids <= {"x1", "x2"}
        # Deterministic across calls:
        again = proved_safe(reports, SPEC, ACCEPTORS)
        assert safe.trace_equal(again)

    def test_highest_ballot_wins_over_older(self):
        d_old, d_new = Delta("old"), Delta("new")
        reports = [
            rep("s1", FAST0, [d_old]),
            rep("s2", CLASSIC1, [d_new]),
            rep("s3", CLASSIC1, [d_new]),
        ]
        safe = proved_safe(reports, SPEC, ACCEPTORS)
        # k = classic ballot 1; classic quorums {s2,s3,x} need both
        # responders; both agree on [new].
        assert safe.ids == {"new"}

    def test_classic_ballot_votes_use_classic_quorums(self):
        d = Delta("d")
        reports = [
            rep("s1", CLASSIC1, [d]),
            rep("s2", None, None),
            rep("s3", None, None),
        ]
        safe = proved_safe(reports, SPEC, ACCEPTORS)
        # Classic quorums containing s1 plus two non-responders could have
        # chosen [d]; quorums within responders that exclude s1 could not.
        # {s1} ⊆ some classic quorum {s1,s4,s5}: intersection with Q={s1},
        # all voted, γ = [d]. So [d] must survive.
        assert safe.ids == {"d"}


def fast(round_number):
    return Ballot(round_number, fast=True)


class TestPaperSection331:
    """§3.3.1's collision-recovery rule — "if the intersection consists of
    all the members having the highest ballot number, and all agree with
    some option v, then v must be proposed next" — on the ProvedSafe the
    master runs.  A single-value instance is a one-command cstruct of
    non-commuting updates."""

    def test_worked_example_forces_v1_v2(self):
        """Responses (server, ballot, update) from 4 of 5 servers:
        (1,3,v0→v1), (2,4,v1→v2), (3,4,v1→v3), (5,4,v1→v2).  The paper
        compares the pairwise intersections of the ballot-4 responses;
        only [(2,4,v1→v2), (5,4,v1→v2)] agrees, so v1→v2 is proposed next."""
        highest = [
            rep("s2", fast(4), [Phys("v1->v2")]),
            rep("s3", fast(4), [Phys("v1->v3")]),
            rep("s5", fast(4), [Phys("v1->v2")]),
        ]
        assert proved_safe(highest, SPEC, ACCEPTORS).ids == {"v1->v2"}
        # Server 1's ballot-3 response, which that comparison leaves out,
        # tells ProvedSafe more: s1 promised past ballot 4 without voting
        # in it, so a fast quorum that chose at 4 is {s2,s3,s4,s5} — and
        # s3 disagrees.  Nothing was chosen; nothing is forced.
        responses = [rep("s1", fast(3), [Phys("v0->v1")])] + highest
        assert len(proved_safe(responses, SPEC, ACCEPTORS)) == 0

    def test_unanimous_highest_ballot_forced(self):
        reports = [rep(f"s{i}", fast(2), [Phys("v")]) for i in (1, 2, 3, 4)]
        assert proved_safe(reports, SPEC, ACCEPTORS).ids == {"v"}

    def test_fast_quorum_already_complete_is_forced(self):
        # 4 of the responders agree: that IS a fast quorum; must re-propose.
        reports = [rep(f"s{i}", fast(1), [Phys("chosen")]) for i in (1, 2, 3, 4)]
        reports.append(rep("s5", fast(1), [Phys("other")]))
        assert proved_safe(reports, SPEC, ACCEPTORS).ids == {"chosen"}

    def test_minority_vote_with_nonresponders_forced(self):
        # Only 3 respond; 2 agree at the highest ballot.  The fast quorum
        # {s1, s2, s4, s5} meets the responders in {s1, s2}, which both say
        # "v" — v may have been chosen, so it is forced.
        reports = [
            rep("s1", fast(1), [Phys("v")]),
            rep("s2", fast(1), [Phys("v")]),
            rep("s3", None, None),
        ]
        assert proved_safe(reports, SPEC, ACCEPTORS).ids == {"v"}


class TestDeterministicMerge:
    def test_empty_input(self):
        assert len(deterministic_merge([])) == 0
        assert len(deterministic_merge([None, None])) == 0

    def test_single_passthrough(self):
        c = CStruct([Delta("d1")])
        assert deterministic_merge([c]) is c

    def test_merges_disjoint_commands(self):
        a = CStruct([Delta("d1")])
        b = CStruct([Delta("d2")])
        merged = deterministic_merge([a, b])
        assert merged.ids == {"d1", "d2"}

    def test_keeps_common_prefix_first(self):
        x1, x2, x3 = Phys("x1"), Phys("x2"), Phys("x3")
        a = CStruct([x1, x2])
        b = CStruct([x1, x3])
        merged = deterministic_merge([a, b])
        assert merged.commands[0].command_id == "x1"
        assert merged.ids == {"x1", "x2", "x3"}

    def test_deterministic_order(self):
        a = CStruct([Delta("b")])
        b = CStruct([Delta("a")])
        m1 = deterministic_merge([a, b])
        m2 = deterministic_merge([b, a])
        assert [c.command_id for c in m1.commands] == [
            c.command_id for c in m2.commands
        ] or m1.trace_equal(m2)
