"""Paxos building blocks: ballots, quorums, cstructs, and the four variants.

MDCC composes the whole Paxos family (§3): Classic Paxos as the recovery
fallback, Multi-Paxos to reserve mastership over instance ranges, Fast
Paxos to bypass the master, and Generalized Paxos to let commutative
updates share a ballot.  This package holds the pieces the roles in
:mod:`repro.core` run on:

* :mod:`repro.paxos.ballot` — fast/classic ballot numbers and instance-range
  mastership metadata ``[StartInstance, EndInstance, Fast, Ballot]``.
* :mod:`repro.paxos.quorum` — classic/fast quorum sizing and the
  intersection requirements that make fast ballots safe.
* :mod:`repro.paxos.cstruct` — Generalized Paxos command structures with
  the ⊑ / ⊓ / ⊔ trace-lattice operations.
* :mod:`repro.paxos.multi` — mastership/lease bookkeeping for Multi-Paxos.
* :mod:`repro.paxos.generalized` — ProvedSafe over cstructs (Algorithm 2),
  which is also §3.3.1's Fast Paxos collision-recovery rule.
"""

from repro.paxos.ballot import Ballot, BallotRange, INITIAL_FAST_BALLOT
from repro.paxos.cstruct import CStruct, Command
from repro.paxos.quorum import QuorumSpec

__all__ = [
    "Ballot",
    "BallotRange",
    "CStruct",
    "Command",
    "INITIAL_FAST_BALLOT",
    "QuorumSpec",
]
