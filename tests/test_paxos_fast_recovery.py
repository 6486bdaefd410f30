"""Fast Paxos collision recovery — §3.3.1's single-value cases on ProvedSafe.

The master recovers a collided record with
:func:`repro.paxos.generalized.proved_safe`.  A single-value instance is a
one-command cstruct of non-commuting updates, so each case below reads:
(server, ballot, update) responses in, the update that must be proposed
next out — or nothing, when no fast quorum can have chosen one.
"""

from dataclasses import dataclass

import pytest

from repro.paxos.ballot import Ballot
from repro.paxos.cstruct import CStruct
from repro.paxos.generalized import CStructReport, proved_safe
from repro.paxos.quorum import QuorumSpec

SPEC = QuorumSpec.for_replication(5)
ACCEPTORS = [f"s{i}" for i in range(1, 6)]  # s1..s5 as in the paper


@dataclass(frozen=True)
class Update:
    """A physical update: it commutes with nothing."""

    command_id: str

    def commutes_with(self, other):
        return False


def report(acceptor, ballot_round, value):
    if ballot_round is None:
        return CStructReport(acceptor=acceptor, ballot=None, value=None)
    return CStructReport(
        acceptor=acceptor,
        ballot=Ballot(ballot_round, fast=True),
        value=CStruct([Update(value)]),
    )


def forced(reports, spec=SPEC, acceptors=ACCEPTORS):
    """The ids ProvedSafe makes the recovery leader propose next."""
    return proved_safe(reports, spec, acceptors).ids


class TestPaperExample:
    def test_section_331_worked_example(self):
        """The paper's example: responses from 4 of 5 servers:
        (1,3,v0→v1), (2,4,v1→v2), (3,4,v1→v3), (5,4,v1→v2).  Among the
        ballot-4 responses only s2 and s5 agree, so v1→v2 is forced."""
        highest = [
            report("s2", 4, "v1->v2"),
            report("s3", 4, "v1->v3"),
            report("s5", 4, "v1->v2"),
        ]
        assert forced(highest) == {"v1->v2"}

    def test_variation_no_agreeing_intersection_is_free(self):
        # Every response at the highest ballot disagrees: no fast quorum
        # can have chosen anything, so the leader is free.
        reports = [report(f"s{i}", 4, value) for i, value in zip((1, 2, 3, 5), "abcd")]
        assert forced(reports) == set()


class TestRecoveryRule:
    def test_no_votes_is_free(self):
        assert forced([report(f"s{i}", None, None) for i in (1, 2, 3)]) == set()

    def test_unanimous_highest_ballot_forced(self):
        assert forced([report(f"s{i}", 2, "v") for i in (1, 2, 3, 4)]) == {"v"}

    def test_fast_quorum_already_complete_is_forced(self):
        # 4 of the responders agree: that IS a fast quorum; must re-propose.
        reports = [report(f"s{i}", 1, "chosen") for i in (1, 2, 3, 4)]
        reports.append(report("s5", 1, "other"))
        assert forced(reports) == {"chosen"}

    def test_minority_vote_with_nonresponders_forced(self):
        # Only 3 respond; 2 agree at the highest ballot.  The fast quorum
        # {s1, s2, s4, s5} meets the responders in {s1, s2}, which both say
        # "v" — v may have been chosen, so it is forced.
        reports = [report("s1", 1, "v"), report("s2", 1, "v"), report("s3", None, None)]
        assert forced(reports) == {"v"}

    def test_older_ballot_shadowed_by_higher(self):
        # s1 voted at an older ballot; the highest-ballot members rule.
        reports = [report("s1", 1, "old")] + [report(f"s{i}", 5, "new") for i in (2, 3, 4)]
        assert forced(reports) == {"new"}

    def test_mixed_highest_votes_with_no_common_intersection(self):
        # At ballot 6, s2 and s3 say A, s4 and s5 say B; s1 voted earlier.
        # A fast quorum holding s1 cannot have chosen at 6, and the only
        # other one, {s2, s3, s4, s5}, disagrees: nothing is forced.
        reports = [report("s1", 1, "old")]
        reports += [report(f"s{i}", 6, value) for i, value in zip((2, 3, 4, 5), "AABB")]
        assert forced(reports) == set()

    def test_insufficient_responses_rejected(self):
        reports = [report("s1", 1, "v"), report("s2", 1, "v")]
        with pytest.raises(ValueError, match="classic quorum"):
            proved_safe(reports, SPEC, ACCEPTORS)

    def test_three_replica_group(self):
        spec3 = QuorumSpec.for_replication(3)  # classic 2, fast 3
        reports = [report("a", 2, "v"), report("b", None, None)]
        # b answered without voting at ballot 2, so no fast quorum chose
        # there; re-proposing the one reported value is safe and keeps it.
        assert forced(reports, spec3, ["a", "b", "c"]) == {"v"}

    def test_split_with_singleton_intersections_picks_deterministically(self):
        # Q = {s1, s2, s4}; s2 says A, s4 says B, s1 voted at an older
        # ballot.  The one fast quorum without s1, {s2, s3, s4, s5}, meets
        # Q in {s2, s4}, which disagree: nothing can have been chosen, and
        # repeated calls agree on that.
        reports = [report("s1", 1, "old"), report("s2", 6, "A"), report("s4", 6, "B")]
        first = proved_safe(reports, SPEC, ACCEPTORS)
        assert first.ids == set()
        assert proved_safe(reports, SPEC, ACCEPTORS).trace_equal(first)
