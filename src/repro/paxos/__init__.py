"""Paxos building blocks: ballots, quorums, cstructs, and the four variants.

MDCC composes the whole Paxos family (§3): Classic Paxos as the recovery
fallback, Multi-Paxos to reserve mastership over instance ranges, Fast
Paxos to bypass the master, and Generalized Paxos to let commutative
updates share a ballot.  This package implements each piece from scratch;
the system itself (:mod:`repro.core`) runs on ballot, quorum, cstruct,
multi and generalized — ``classic`` and ``fast`` are standalone references
that only their own tests import (``perf/entry.py`` forbids them), and
§3.3.1's worked example is checked against the ProvedSafe that runs in
``tests/test_paxos_generalized.py``:

* :mod:`repro.paxos.ballot` — fast/classic ballot numbers and instance-range
  mastership metadata ``[StartInstance, EndInstance, Fast, Ballot]``.
* :mod:`repro.paxos.quorum` — classic/fast quorum sizing and the
  intersection requirements that make fast ballots safe.
* :mod:`repro.paxos.cstruct` — Generalized Paxos command structures with
  the ⊑ / ⊓ / ⊔ trace-lattice operations.
* :mod:`repro.paxos.classic` — a standalone single-decree Classic Paxos
  (reference only).
* :mod:`repro.paxos.multi` — mastership/lease bookkeeping for Multi-Paxos.
* :mod:`repro.paxos.fast` — the single-value form of §3.3.1's recovery
  value-selection rule (reference only; the master uses ``generalized``).
* :mod:`repro.paxos.generalized` — ProvedSafe over cstructs (Algorithm 2).
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
