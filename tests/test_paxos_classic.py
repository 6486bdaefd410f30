"""Single-decree Classic Paxos (§3.1.1) over the simulated WAN.

The acceptor and proposer below are a reference in the shape of the
textbook ``PREPARE`` / ``ACCEPT`` pair: they run on the simulator, network
and transport the system uses, and check that substrate under message
loss, DC failures and competing proposers.  The system's own classic path
(per-record Phase 1 / Phase 2 in :mod:`repro.core.master`) is checked by
``tests/test_classic_safety.py``.
"""

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.paxos.ballot import Ballot
from repro.paxos.quorum import QuorumSpec
from repro.sim.core import Simulator
from repro.sim.network import EC2_REGIONS, LatencyModel, Network
from repro.sim.rng import RngRegistry
from repro.storage.partition import stable_hash
from repro.transport.base import Node
from repro.transport.simnet import SimTransport


@dataclass(frozen=True)
class Prepare:
    ballot: Ballot


@dataclass(frozen=True)
class Promise:
    ballot: Ballot
    accepted: Optional[Tuple[Ballot, Any]]


@dataclass(frozen=True)
class Accept:
    ballot: Ballot
    value: Any


@dataclass(frozen=True)
class Accepted:
    ballot: Ballot
    value: Any


@dataclass(frozen=True)
class Nack:
    promised: Ballot


class ClassicAcceptor(Node):
    """One promised ballot and one accepted (ballot, value)."""

    def __init__(self, sim, network, node_id, dc):
        super().__init__(SimTransport(sim, network), node_id, dc)
        self.promised = None
        self.accepted = None

    @property
    def accepted_value(self):
        return self.accepted[1] if self.accepted else None

    def handle_prepare(self, message, src_id):
        if self.promised is None or message.ballot > self.promised:
            self.promised = message.ballot
            self.send(src_id, Promise(message.ballot, self.accepted))
        else:
            self.send(src_id, Nack(self.promised))

    def handle_accept(self, message, src_id):
        if self.promised is None or message.ballot >= self.promised:
            self.promised = message.ballot
            self.accepted = (message.ballot, message.value)
            self.send(src_id, Accepted(message.ballot, message.value))
        else:
            self.send(src_id, Nack(self.promised))


class ClassicProposer(Node):
    """Drives one instance; ``propose`` resolves with the chosen value,
    which is another proposer's if a quorum member already accepted it."""

    def __init__(self, sim, network, node_id, dc, acceptor_ids, retry_ms=500.0):
        super().__init__(SimTransport(sim, network), node_id, dc)
        self.acceptor_ids = list(acceptor_ids)
        self.quorum = QuorumSpec.for_replication(len(self.acceptor_ids)).classic_size
        self.retry_ms = retry_ms
        self.decision = sim.future()
        self.round = 0
        self.ballot = None

    def propose(self, value):
        self.value = value
        self._prepare()
        return self.decision

    def _prepare(self):
        self.round += 1
        self.ballot = Ballot(self.round, fast=False, proposer=self.node_id)
        self.promises, self.accepts, self.accept_sent = {}, set(), False
        self.broadcast(self.acceptor_ids, Prepare(self.ballot))
        self.set_timer(self.retry_ms + self._stagger(), self._retry, self.ballot)

    def _stagger(self):
        # Dueling proposers that retry in lockstep pre-empt each other
        # forever; a per-proposer, per-round offset breaks the tie.
        return self.retry_ms * (stable_hash(f"{self.node_id}:{self.round}") % 1000) / 1000

    def _retry(self, ballot):
        if not self.decision.done and ballot == self.ballot:
            self._prepare()

    def handle_promise(self, message, src_id):
        if message.ballot != self.ballot or self.accept_sent:
            return
        self.promises[src_id] = message.accepted
        if len(self.promises) < self.quorum:
            return
        carried = [accepted for accepted in self.promises.values() if accepted]
        value = max(carried, key=lambda accepted: accepted[0])[1] if carried else self.value
        self.accept_sent = True
        self.broadcast(self.acceptor_ids, Accept(self.ballot, value))

    def handle_accepted(self, message, src_id):
        if message.ballot != self.ballot:
            return
        self.accepts.add(src_id)
        if len(self.accepts) >= self.quorum:
            self.decision.try_resolve(message.value)

    def handle_nack(self, message, src_id):
        if not self.decision.done and message.promised > self.ballot:
            self.round = max(self.round, message.promised.round)
            self.set_timer(self._stagger(), self._retry, self.ballot)


def build_group(seed=1, n=5, jitter=0.0):
    sim = Simulator()
    registry = RngRegistry(seed=seed)
    model = LatencyModel(jitter_sigma=jitter, rng_registry=registry)
    network = Network(sim, latency_model=model, rng_registry=registry)
    acceptors = [
        ClassicAcceptor(sim, network, f"acc-{i}", EC2_REGIONS[i % len(EC2_REGIONS)])
        for i in range(n)
    ]
    return sim, network, acceptors


class TestSingleProposer:
    def test_value_chosen(self):
        sim, network, acceptors = build_group()
        proposer = ClassicProposer(
            sim, network, "prop", "us-west", [a.node_id for a in acceptors]
        )
        decision = proposer.propose("v1")
        result = sim.run_until(decision, limit=10_000)
        assert result == "v1"

    def test_two_round_trips_latency(self):
        # Classic Paxos needs Phase 1 + Phase 2: two round trips to a
        # classic quorum (the 3rd-nearest DC from us-west is ap-northeast).
        sim, network, acceptors = build_group()
        proposer = ClassicProposer(
            sim, network, "prop", "us-west", [a.node_id for a in acceptors]
        )
        decision = proposer.propose("v1")
        sim.run_until(decision, limit=10_000)
        # 2 RTTs of 120ms (+ 4 hops of 0.5ms overhead) ≈ 242ms.
        assert 200 <= sim.now <= 300

    def test_acceptors_converge_on_value(self):
        sim, network, acceptors = build_group()
        proposer = ClassicProposer(
            sim, network, "prop", "us-west", [a.node_id for a in acceptors]
        )
        sim.run_until(proposer.propose("v1"), limit=10_000)
        sim.run()  # drain in-flight messages
        accepted = [a.accepted_value for a in acceptors if a.accepted_value]
        assert len(accepted) == 5
        assert set(accepted) == {"v1"}

    def test_survives_minority_failure(self):
        sim, network, acceptors = build_group()
        network.fail_datacenter(acceptors[3].dc)  # one DC down
        proposer = ClassicProposer(
            sim, network, "prop", "us-west", [a.node_id for a in acceptors]
        )
        decision = proposer.propose("v1")
        assert sim.run_until(decision, limit=10_000) == "v1"

    def test_blocks_without_quorum(self):
        sim, network, acceptors = build_group()
        for acceptor in acceptors[2:]:
            network.fail_datacenter(acceptor.dc)
        proposer = ClassicProposer(
            sim, network, "prop", "us-west", [a.node_id for a in acceptors]
        )
        decision = proposer.propose("v1")
        sim.run(until=5_000)
        assert not decision.done

    def test_message_loss_retried(self):
        sim, network, acceptors = build_group(seed=5)
        network.set_drop_rate(0.2)
        proposer = ClassicProposer(
            sim, network, "prop", "us-west", [a.node_id for a in acceptors]
        )
        decision = proposer.propose("v1")
        assert sim.run_until(decision, limit=120_000) == "v1"


class TestCompetingProposers:
    def test_both_learn_same_value(self):
        sim, network, acceptors = build_group()
        ids = [a.node_id for a in acceptors]
        p1 = ClassicProposer(sim, network, "p1", "us-west", ids)
        p2 = ClassicProposer(sim, network, "p2", "eu-west", ids)
        d1 = p1.propose("west-value")
        d2 = p2.propose("europe-value")
        r1 = sim.run_until(d1, limit=60_000)
        r2 = sim.run_until(d2, limit=60_000)
        assert r1 == r2
        assert r1 in ("west-value", "europe-value")

    def test_chosen_value_stable_across_later_proposals(self):
        # Once chosen, a later proposer must learn the chosen value, not
        # overwrite it.
        sim, network, acceptors = build_group()
        ids = [a.node_id for a in acceptors]
        p1 = ClassicProposer(sim, network, "p1", "us-west", ids)
        first = sim.run_until(p1.propose("first"), limit=10_000)
        p2 = ClassicProposer(sim, network, "p2", "ap-southeast", ids)
        second = sim.run_until(p2.propose("second"), limit=60_000)
        assert first == "first"
        assert second == "first"

    def test_many_competing_proposers_agree(self):
        sim, network, acceptors = build_group(seed=9, jitter=0.1)
        ids = [a.node_id for a in acceptors]
        proposers = [
            ClassicProposer(sim, network, f"p{i}", EC2_REGIONS[i], ids)
            for i in range(5)
        ]
        decisions = [p.propose(f"value-{i}") for i, p in enumerate(proposers)]
        results = {sim.run_until(d, limit=300_000) for d in decisions}
        assert len(results) == 1
