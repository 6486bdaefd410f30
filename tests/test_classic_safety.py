"""Safety of classic rounds across instances, masters and configurations.

Each test pins one way two conflicting writes of the same version could
both be learned accepted — a lost update the ledger audit reports as a
replica value above the expected one:

* a master's Phase 2a reaching a replica that has left the ballot's
  classic range (γ instances later) and wiping the votes of the fast
  instance it is now in;
* a master promised a ballot below one the replica already accepted at
  (a stable Multi master never runs Phase 1, so its ballot is never
  granted as a range);
* a replica behind an option's read version, or behind the version the
  master knows committed, voting on it in a classic round — splitting
  the ballot's votes so that a later Phase 1 cannot tell which status it
  chose, or accepting a write whose slot is gone — and a master taking
  such an ACCEPTED vote for committed history;
* a joining data center reporting its votes in an instance that was open
  when it was admitted — cast without the votes the old configuration
  cast there — as if they were informed.
"""

import pytest

from repro.core.config import MDCCConfig
from repro.core.master import MasterRole
from repro.core.messages import (
    MPhase1a,
    MPhase1b,
    MPhase2a,
    MPhase2b,
    ProposeFast,
)
from repro.core.options import Option, OptionStatus, PhysicalUpdate, ReadValidation, RecordId
from repro.core.state import RecordState
from repro.db.cluster import ClusterSpec, build_cluster
from repro.paxos.ballot import Ballot, BallotRange
from repro.paxos.cstruct import CStruct
from repro.paxos.quorum import QuorumSpec
from repro.storage.record import Record
from repro.storage.schema import Constraint, TableSchema
from repro.workloads import MicroBenchmark
from repro.bench import run

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
RID = RecordId("items", "k")


def write(txid, vread, stock):
    return Option(
        txid=txid,
        record=RID,
        update=PhysicalUpdate(vread=vread, new_value={"stock": stock}),
        writeset=(RID,),
    )


def acceptor():
    """store-us-west-p0 of a fresh cluster holding items/k, its outbound
    messages captured instead of sent."""
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=1))
    cluster.register_table(ITEMS)
    cluster.load_record("items", "k", {"stock": 10})
    node = cluster.storage_nodes["store-us-west-p0"]
    node.sent = []
    node.send = lambda dst, message: node.sent.append((dst, message))
    return cluster, node


def last_sent(node, kind):
    return [message for _dst, message in node.sent if isinstance(message, kind)][-1]


def test_a_phase2a_for_a_closed_classic_range_leaves_the_fast_instance_alone():
    _cluster, node = acceptor()
    state = node.record_state(RID)
    version = state.version
    ballot = Ballot(3, fast=False, proposer="store-eu-west-p0")
    # γ = 1: the master's round owns exactly this instance ...
    state.mastership.grant(BallotRange(version, version, ballot))
    state.record.commit_value({"stock": 9}, option_id="t-classic:items/k")
    # ... and the next one is fast again, where this replica votes.
    chosen = write("t-fast", version + 1, 8)
    node.handle_propose_fast(ProposeFast(option=chosen, reply_to="app"), "app")
    late = MPhase2a(record=RID, ballot=ballot, cstruct=CStruct([write("t-late", version, 8)]))
    node.handle_m_phase2a(late, "store-eu-west-p0")
    assert last_sent(node, MPhase2b).accepted is False
    assert state.cstruct.command(chosen.option_id).status is OptionStatus.ACCEPTED
    # so a conflicting write of the same version is still refused
    rival = write("t-rival", version + 1, 7)
    node.handle_propose_fast(ProposeFast(option=rival, reply_to="app"), "app")
    assert state.cstruct.command(rival.option_id).status is OptionStatus.REJECTED


def test_no_promise_below_an_accepted_ballot():
    _cluster, node = acceptor()
    state = node.record_state(RID)
    stable = Ballot(1, fast=False, proposer="store-us-west-p0")
    lower = Ballot(1, fast=False, proposer="store-us-east-p0")
    # a stable Multi master skips Phase 1: accepted at, never granted
    node.handle_m_phase2a(
        MPhase2a(record=RID, ballot=stable, cstruct=CStruct([write("t1", state.version, 9)])),
        "store-us-west-p0",
    )
    assert last_sent(node, MPhase2b).accepted
    node.handle_m_phase1a(
        MPhase1a(record=RID, ballot=lower, grant=BallotRange(state.version, None, lower)),
        "store-us-east-p0",
    )
    nack = last_sent(node, MPhase1b)
    assert not nack.granted and nack.promised == stable
    node.handle_m_phase2a(
        MPhase2a(record=RID, ballot=lower, cstruct=CStruct([write("t2", state.version, 8)])),
        "store-us-east-p0",
    )
    assert last_sent(node, MPhase2b).accepted is False
    assert not state.cstruct.contains_id("t2:items/k")


def test_a_replica_behind_the_read_version_abstains_in_a_classic_round():
    record = Record("items", "k")
    record.commit_value({"stock": 10})
    state = RecordState(record=record, schema=ITEMS, spec=QuorumSpec.for_replication(5))
    version = state.version
    validation = Option(
        txid="t-read", record=RID, update=ReadValidation(vread=version + 1), writeset=(RID,)
    )
    ahead = CStruct([write("t-ahead", version + 1, 9), validation])
    statuses = [o.status for o in state.adopt(ahead, Ballot(2, fast=False, proposer="m"))]
    assert statuses == [OptionStatus.PENDING, OptionStatus.PENDING]
    # a read that looks current here, while the master knows a newer
    # version is committed elsewhere: this replica is the one behind
    current = CStruct([write("t-now", version, 9)])
    ballot = Ballot(2, fast=False, proposer="m")
    behind = state.adopt(current, ballot, committed_version=version + 1)
    assert behind.command("t-now:items/k").status is OptionStatus.PENDING
    adopted = state.adopt(current, ballot, committed_version=version)
    assert adopted.command("t-now:items/k").status is OptionStatus.ACCEPTED


def test_a_lagging_accept_of_a_superseded_write_is_not_committed_history():
    _cluster, node = acceptor()
    master = MasterRole(node, MDCCConfig())
    applied, stale = write("t-won", 8, 9), write("t-lost", 8, 7)
    newest = MPhase1b(
        record=RID,
        ballot=Ballot(4, fast=False, proposer="m"),
        granted=True,
        promised=Ballot(4, fast=False, proposer="m"),
        accepted_ballot=None,
        cstruct=None,
        committed_version=9,
        committed_value={"stock": 9},
        applied_ids=(applied.option_id,),
    )
    accepted = [o.with_status(OptionStatus.ACCEPTED) for o in (applied, stale)]
    normalized = master._normalize(RID, accepted, newest)
    assert normalized.command(applied.option_id).status is OptionStatus.ACCEPTED
    assert normalized.command(stale.option_id).status is OptionStatus.REJECTED


def test_a_joiners_votes_in_an_instance_open_at_admission_are_not_reported():
    cluster = build_cluster(
        ClusterSpec(
            datacenters=("us-west", "us-east", "eu-west"),
            partitions_per_table=1,
            seed=1,
            elastic=True,
        )
    )
    cluster.register_table(ITEMS)
    cluster.load_record("items", "k", {"stock": 10})
    version = cluster.storage_nodes["store-us-west-p0"].record_state(RID).version
    # chosen by the old configuration, its visibility never sent: the
    # votes go to a learner that is gone, as a dark coordinator's would
    chosen = write("t-open", version, 4)
    for replica in cluster.placement.replicas(RID):
        cluster.storage_nodes[replica].handle_propose_fast(
            ProposeFast(option=chosen, reply_to="gone"), "gone"
        )
    report = cluster.sim.run_until(
        cluster.reconfig.join("ap-southeast"), limit=cluster.sim.now + 240_000
    )
    assert report["ok"]
    joiner = cluster.storage_nodes["store-ap-southeast-p0"]
    joiner.sent = []
    joiner.send = lambda dst, message: joiner.sent.append((dst, message))
    epoch = cluster.placement.epoch
    # the joiner never saw `chosen`, so it accepts a rival of the same slot
    rival = write("t-rival", version, 3)
    joiner.handle_propose_fast(ProposeFast(option=rival, reply_to="gone", epoch=epoch), "gone")
    assert joiner.record_state(RID).cstruct.command(rival.option_id).accepted
    # ... which a recovering master must not mistake for an informed vote
    ballot = Ballot(9, fast=False, proposer="store-us-west-p0")
    phase1a = MPhase1a(record=RID, ballot=ballot, grant=BallotRange(version, None, ballot), epoch=epoch)
    joiner.handle_m_phase1a(phase1a, "store-us-west-p0")
    promise = last_sent(joiner, MPhase1b)
    assert promise.granted and promise.accepted_ballot is None and promise.cstruct is None
    # once it adopts a classic round's value, its votes count again
    joiner.handle_m_phase2a(
        MPhase2a(record=RID, ballot=ballot, cstruct=CStruct([chosen]), epoch=epoch),
        "store-us-west-p0",
    )
    joiner.handle_m_phase1a(phase1a, "store-us-west-p0")
    assert last_sent(joiner, MPhase1b).accepted_ballot == ballot


def test_a_master_refused_for_a_rivals_ballot_pauses_before_leapfrogging():
    """Liveness beside the fixes above: two masters of one record (a
    learner's timeout rotated to a failover candidate while the routed
    master lives) that re-ran Phase 1 on every refusal would pre-empt
    each other for good."""
    cluster, node = acceptor()
    master = node.master
    master._start_phase1(RID)
    ms = master._state(RID)
    rival = Ballot(7, fast=False, proposer="store-us-east-p0")
    refusal = MPhase1b(
        record=RID,
        ballot=ms.ballot,
        granted=False,
        promised=rival,
        accepted_ballot=None,
        cstruct=None,
        committed_version=1,
        committed_value={"stock": 10},
    )
    sent = len(node.sent)
    master.on_phase1b(refusal, "store-us-east-p0")
    assert ms.phase == "backoff" and len(node.sent) == sent
    cluster.sim.run(until=cluster.sim.now + 600)
    retry = last_sent(node, MPhase1a)
    assert retry.ballot > rival and ms.phase == "phase1"


@pytest.mark.parametrize("seed", [6, 12])
def test_gamma_one_under_contention_loses_no_update(seed):
    """γ = 1 flips hot records between fast and classic every instance —
    the schedule that exposed the first three holes above."""
    result = run(
        build_cluster(ClusterSpec(protocol="fast", seed=seed, gamma=1)),
        MicroBenchmark(num_items=200, min_stock=2_000, max_stock=4_000),
        num_clients=30,
        warmup_ms=5_000,
        measure_ms=30_000,
    )
    assert result.commits > 0
    assert result.audit_problems == []
    assert result.divergent_records == 0
