"""Classic (single-decree) Paxos over the simulated network.

This is the textbook §3.1.1 algorithm, implemented standalone: a proposer
establishes mastership with Phase 1, then drives a value through Phase 2,
tolerating lost messages, duplicate delivery and competing proposers.  MDCC
itself embeds a per-record variant of this machinery (in
:mod:`repro.core`); the standalone version validates the substrate, powers
tests, and serves as the reference the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.paxos.ballot import Ballot
from repro.paxos.quorum import QuorumSpec
from repro.storage.partition import stable_hash
from repro.sim.core import Future, Simulator
from repro.sim.network import Network
from repro.transport.base import Node
from repro.transport.simnet import SimTransport

__all__ = [
    "ClassicAcceptor",
    "ClassicProposer",
    "Phase1a",
    "Phase1b",
    "Phase2a",
    "Phase2b",
]


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Phase1a:
    ballot: Ballot


@dataclass(frozen=True)
class Phase1b:
    ballot: Ballot                      # the ballot being promised
    accepted_ballot: Optional[Ballot]   # highest ballot accepted so far
    accepted_value: Any                 # value accepted at that ballot


@dataclass(frozen=True)
class Phase2a:
    ballot: Ballot
    value: Any


@dataclass(frozen=True)
class Phase2b:
    ballot: Ballot
    value: Any


@dataclass(frozen=True)
class Nack:
    """Rejection carrying the promised ballot so proposers can leapfrog."""

    promised: Ballot


# ----------------------------------------------------------------------
# Acceptor
# ----------------------------------------------------------------------
class ClassicAcceptor(Node):
    """A Paxos acceptor: one promised ballot, one accepted (ballot, value)."""

    def __init__(self, sim: Simulator, network: Network, node_id: str, dc: str) -> None:
        super().__init__(SimTransport(sim, network), node_id, dc)
        self.promised: Optional[Ballot] = None
        self.accepted_ballot: Optional[Ballot] = None
        self.accepted_value: Any = None

    def handle_phase1a(self, message: Phase1a, src_id: str) -> None:
        if self.promised is None or message.ballot > self.promised:
            self.promised = message.ballot
            self.send(
                src_id,
                Phase1b(
                    ballot=message.ballot,
                    accepted_ballot=self.accepted_ballot,
                    accepted_value=self.accepted_value,
                ),
            )
        else:
            self.send(src_id, Nack(promised=self.promised))

    def handle_phase2a(self, message: Phase2a, src_id: str) -> None:
        # Accept unless we promised a strictly higher ballot.
        if self.promised is None or message.ballot >= self.promised:
            self.promised = message.ballot
            self.accepted_ballot = message.ballot
            self.accepted_value = message.value
            self.send(src_id, Phase2b(ballot=message.ballot, value=message.value))
        else:
            self.send(src_id, Nack(promised=self.promised))


# ----------------------------------------------------------------------
# Proposer
# ----------------------------------------------------------------------
@dataclass
class _Attempt:
    """Book-keeping for one ballot's progress."""

    ballot: Ballot
    phase1_replies: Dict[str, Phase1b] = field(default_factory=dict)
    phase2_replies: Dict[str, Phase2b] = field(default_factory=dict)
    phase2_sent: bool = False


class ClassicProposer(Node):
    """Drives a single consensus instance to a decision.

    ``propose(value)`` returns a future resolving with the *chosen* value —
    which may be a different proposer's value if one was already accepted
    (the must-re-propose rule of Phase 2).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        dc: str,
        acceptor_ids: Sequence[str],
        quorum: Optional[QuorumSpec] = None,
        retry_delay: float = 500.0,
    ) -> None:
        super().__init__(SimTransport(sim, network), node_id, dc)
        self.acceptor_ids: List[str] = list(acceptor_ids)
        self.quorum = quorum or QuorumSpec.for_replication(len(self.acceptor_ids))
        self.retry_delay = retry_delay
        self.decision: Future = sim.future()
        self._value: Any = None
        self._attempt: Optional[_Attempt] = None
        self._round = 0

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def propose(self, value: Any) -> Future:
        """Start Phase 1 for ``value``; resolve with the chosen value."""
        self._value = value
        self._start_ballot()
        return self.decision

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _start_ballot(self) -> None:
        if self.decision.done:
            return
        self._round += 1
        ballot = Ballot(round=self._round, fast=False, proposer=self.node_id)
        self._attempt = _Attempt(ballot=ballot)
        self.broadcast(self.acceptor_ids, Phase1a(ballot=ballot))
        self.set_timer(self.retry_delay + self._backoff(), self._retry, ballot)

    def _backoff(self) -> float:
        """Deterministic per-proposer stagger to break dueling livelock.

        Competing proposers that retry in lockstep can pre-empt each other
        forever; a stagger derived from the proposer id and attempt count
        de-synchronizes them without global randomness.
        """
        fingerprint = stable_hash(f"{self.node_id}:{self._round}") % 1000
        return self.retry_delay * (fingerprint / 1000.0)

    def _retry(self, ballot: Ballot) -> None:
        """Restart with a higher ballot if this one stalled."""
        if self.decision.done:
            return
        if self._attempt is not None and self._attempt.ballot == ballot:
            self._start_ballot()

    def handle_phase1b(self, message: Phase1b, src_id: str) -> None:
        attempt = self._attempt
        if attempt is None or message.ballot != attempt.ballot or attempt.phase2_sent:
            return
        attempt.phase1_replies[src_id] = message
        if len(attempt.phase1_replies) < self.quorum.classic_size:
            return
        # Mastership established: re-propose the highest accepted value if
        # any Phase1b carried one, else our own.
        carried = [
            reply
            for reply in attempt.phase1_replies.values()
            if reply.accepted_ballot is not None
        ]
        if carried:
            value = max(carried, key=lambda r: r.accepted_ballot).accepted_value
        else:
            value = self._value
        attempt.phase2_sent = True
        self.broadcast(self.acceptor_ids, Phase2a(ballot=attempt.ballot, value=value))

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def handle_phase2b(self, message: Phase2b, src_id: str) -> None:
        attempt = self._attempt
        if attempt is None or message.ballot != attempt.ballot:
            return
        attempt.phase2_replies[src_id] = message
        if len(attempt.phase2_replies) >= self.quorum.classic_size:
            self.decision.try_resolve(message.value)

    def handle_nack(self, message: Nack, src_id: str) -> None:
        # A competing proposer holds a higher ballot; leapfrog past it —
        # after a stagger, or dueling proposers livelock.
        if self.decision.done or self._attempt is None:
            return
        if message.promised > self._attempt.ballot:
            stalled = self._attempt.ballot
            self._round = max(self._round, message.promised.round)
            self.set_timer(self._backoff(), self._retry_if_stalled, stalled)

    def _retry_if_stalled(self, ballot: Ballot) -> None:
        if self.decision.done or self._attempt is None:
            return
        if self._attempt.ballot == ballot:
            self._start_ballot()
