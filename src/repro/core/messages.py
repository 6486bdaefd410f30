"""Wire messages of the MDCC protocol.

Naming follows the paper's pseudocode: Propose, Phase1a/1b, Phase2a/2b,
Visibility, StartRecovery (Algorithms 1-3).  Fast-path proposals go
straight to the acceptors (ProposeFast); an acceptor whose record is in a
classic era relays the option to the record's master (ProposeClassic),
and only the ``multi`` configuration's coordinator sends ProposeClassic
itself.  All messages are immutable dataclasses.

The fast path travels one message per (transaction, replica set): a
transaction's options whose records share a replica set go out as one
ProposeFastBatch, are answered with one FastReplyBatch and made visible
with one VisibilityBatch; a lone option travels as the bare
ProposeFast / FastReply / Visibility.  Each option remains its own
record's Paxos instance — only the transport unit is grouped.

Epoch fencing (elastic membership): every message that creates or
carries a *quorum vote* — ProposeFast/FastReply (and their batches) on
the fast path,
MPhase1a/1b and MPhase2a/2b on the classic path — is stamped with the
sender's membership epoch.  Receivers drop messages from a stale epoch,
so no vote cast under one data-center configuration can count toward a
quorum tallied under another.  ``epoch`` defaults to 0, the permanent
epoch of a static cluster, making the checks no-ops there.

Visibility, CatchUp and repair traffic is deliberately *not* fenced:
applying committed state is version-guarded and idempotent, hence safe
at any epoch — and it is exactly how replicas that lived through a
reconfiguration converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.options import Option, OptionStatus, RecordId, Update
from repro.paxos.ballot import Ballot, BallotRange
from repro.paxos.cstruct import CStruct

__all__ = [
    "CatchUp",
    "FastReply",
    "FastReplyBatch",
    "MPhase1a",
    "MPhase1b",
    "MPhase2a",
    "MPhase2b",
    "MastershipTaken",
    "OptionOutcome",
    "ProposeClassic",
    "ProposeFast",
    "ProposeFastBatch",
    "RcApply",
    "RcCommitRequest",
    "RcDecision",
    "RcPrepare",
    "RcPrepareReply",
    "RcVote",
    "ReadReply",
    "ReadRequest",
    "RepairProbe",
    "RepairReply",
    "SnapshotAck",
    "SnapshotChunk",
    "SnapshotRequest",
    "StartRecovery",
    "StatusReply",
    "StatusRequest",
    "Visibility",
    "VisibilityBatch",
]


# ----------------------------------------------------------------------
# Fast path (Algorithm 3, Phase2bFast)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ProposeFast:
    """Coordinator → acceptors: propose an option in the current fast ballot."""

    option: Option
    reply_to: str  # learner node id (the coordinating app-server)
    epoch: int = 0  # sender's membership epoch (fenced by the acceptor)


@dataclass(frozen=True, slots=True)
class FastReply:
    """Acceptor → learner: the option's locally decided status (Phase2b)."""

    option_id: str
    txid: str
    status: OptionStatus
    epoch: int = 0  # acceptor's membership epoch (fenced by the learner)


def _one_txid(txids: Iterable[str]) -> str:
    """The transaction every item of a fast-path batch belongs to."""
    distinct = set(txids)
    if len(distinct) != 1:
        raise ValueError(
            f"a batch carries exactly one transaction's items, got {sorted(distinct)}"
        )
    return distinct.pop()


@dataclass(frozen=True, slots=True)
class ProposeFastBatch:
    """Coordinator → one replica set: every option of one transaction
    whose record that set replicates, in one message.

    Only the transport unit changes: each option is still its own
    record's Paxos instance (§3.1), and an acceptor decides, logs and
    epoch-fences it exactly as it would the :class:`ProposeFast` carrying
    it alone.  A transaction with one option for a replica set sends that
    bare :class:`ProposeFast` instead.
    """

    options: Tuple[Option, ...]
    reply_to: str  # learner node id (the coordinating app-server)
    epoch: int = 0  # sender's membership epoch (fenced per option)

    def __post_init__(self) -> None:
        _one_txid(option.txid for option in self.options)

    @property
    def txid(self) -> str:
        return self.options[0].txid


@dataclass(frozen=True, slots=True)
class FastReplyBatch:
    """Acceptor → learner: its votes on the options of one
    :class:`ProposeFastBatch`, each tallied as the lone :class:`FastReply`
    it stands for."""

    replies: Tuple[FastReply, ...]

    def __post_init__(self) -> None:
        _one_txid(reply.txid for reply in self.replies)

    @property
    def txid(self) -> str:
        return self.replies[0].txid


# ----------------------------------------------------------------------
# Classic path (master-routed)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ProposeClassic:
    """Coordinator (or forwarding acceptor) → master."""

    option: Option
    reply_to: str  # coordinator to notify with the OptionOutcome


@dataclass(frozen=True, slots=True)
class MPhase1a:
    """Master → acceptors: claim mastership of an instance range."""

    record: RecordId
    ballot: Ballot
    grant: BallotRange
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class MPhase1b:
    """Acceptor → master: promise + current accepted state.

    ``granted`` is False when the acceptor holds a higher promise (a nack);
    ``promised`` then carries that higher ballot so the master can leapfrog.
    """

    record: RecordId
    ballot: Ballot
    granted: bool
    promised: Ballot
    accepted_ballot: Optional[Ballot]
    cstruct: Optional[CStruct]
    committed_version: int
    committed_value: Optional[Dict[str, object]]
    #: option ids folded into committed_value (for safe CatchUp relays).
    applied_ids: Tuple[str, ...] = ()
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class MPhase2a:
    """Master → acceptors: adopt this cstruct at this ballot.

    ``post_grant`` optionally re-programs the record's mode after adoption:
    a classic range for the next γ instances after a physical collision, or
    a fresh fast ballot (with ``new_base`` demarcation values) after a
    commutative base refresh (§3.4.2).  ``committed_version`` is the newest
    committed version the master knows of: a replica behind it cannot
    judge a write's read version and abstains on it.
    """

    record: RecordId
    ballot: Ballot
    cstruct: CStruct
    post_grant: Optional[BallotRange] = None
    new_base: Optional[Dict[str, float]] = None
    epoch: int = 0
    committed_version: int = 0


@dataclass(frozen=True, slots=True)
class MPhase2b:
    """Acceptor → master: the adopted cstruct with locally decided statuses.

    A rejection (``accepted=False``) carries ``promised`` — the granted
    ballot that fenced the proposal — so a deposed master can tell a
    mastership migration (abdicate) from an ordinary competing recovery
    (leapfrog).
    """

    record: RecordId
    ballot: Ballot
    accepted: bool
    cstruct: Optional[CStruct]
    committed_version: int
    promised: Optional[Ballot] = None
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class OptionOutcome:
    """Master → coordinator: an option's quorum-decided status."""

    option_id: str
    txid: str
    record: RecordId
    status: OptionStatus


@dataclass(frozen=True, slots=True)
class StartRecovery:
    """Learner → master: fast ballot collided (or timed out); arbitrate.

    ``reason`` is "collision", "commutative-limit", "timeout" or
    "migration" — it picks the γ policy (physical collisions switch the
    record to classic for γ instances; commutative limit hits refresh the
    base and may re-open fast immediately, §3.4.2; mastership migrations
    take the ballot over and then restore the variant's steady-state mode,
    replying with :class:`MastershipTaken`).
    """

    record: RecordId
    reason: str
    option: Optional[Option] = None  # re-propose on behalf of this learner
    reply_to: str = ""


@dataclass(frozen=True, slots=True)
class MastershipTaken:
    """New master → placement manager: the Phase-1 takeover completed.

    Sent once the migration's classic round has decided, i.e. a classic
    quorum has granted the new master's ballot and adopted its cstruct.
    The placement directory flips at migration *start* (routing is just a
    hint; ballots arbitrate correctness) — this acknowledgement closes
    the manager's in-flight entry, and its absence triggers the takeover
    re-drive after ``takeover_timeout_ms``.
    """

    record: RecordId
    master_dc: str
    node_id: str


# ----------------------------------------------------------------------
# Visibility & catch-up
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Visibility:
    """Coordinator → acceptors: execute (✓) or discard (✗) an option.

    Carries the whole option so that replicas that never saw the proposal
    can still apply the committed update ("piggybacking notification of
    commit state", §1; lost-propose repair).
    """

    option: Option
    committed: bool


@dataclass(frozen=True, slots=True)
class VisibilityBatch:
    """Coordinator → acceptors: several visibilities in one message.

    The §7 future-work optimization — "batching techniques that reduce the
    message overhead".  A coordinator always sends a transaction's
    visibilities for one replica set as one batch; with a batching window
    (``MDCCConfig.visibility_batch_ms``) it also buffers them briefly —
    they are off the commit's critical path ("the Learned message ... can
    be asynchronous, but does not influence the correctness") — and ships
    one message per destination across transactions.  Semantics are
    identical to delivering each :class:`Visibility` in order.
    """

    visibilities: Tuple[Visibility, ...]

    def __post_init__(self) -> None:
        if not self.visibilities:
            raise ValueError("empty visibility batch")


@dataclass(frozen=True, slots=True)
class CatchUp:
    """Master/repair-agent → lagging acceptor: a record's committed state.

    ``applied_ids`` lists the option ids folded into ``value`` at the
    source replica.  The adopting replica marks them executed so that
    their visibilities — possibly still in flight towards it — are not
    applied a second time on top of the adopted state.
    """

    record: RecordId
    version: int
    value: Optional[Dict[str, object]]
    exists: bool
    applied_ids: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class RepairProbe:
    """Anti-entropy agent → acceptor: report committed state for repair."""

    record: RecordId
    request_id: int


@dataclass(frozen=True, slots=True)
class RepairReply:
    """Acceptor → anti-entropy agent: committed state + applied ids.

    Unlike a client :class:`ReadReply`, carries ``applied_ids`` so the
    agent can relay a CatchUp that lagging replicas can adopt without
    double-applying in-flight visibilities.
    """

    request_id: int
    record: RecordId
    exists: bool
    value: Optional[Dict[str, object]]
    version: int
    applied_ids: Tuple[str, ...]
    #: accepted-but-unexecuted options still parked in this replica's
    #: cstruct — a visibility this replica never received (e.g. dropped by
    #: a partition).  The agent re-drives or recovers them (§3.2.3).
    pending: Tuple["Option", ...] = ()


# ----------------------------------------------------------------------
# Snapshot bootstrap (elastic membership joins)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SnapshotRequest:
    """Reconfig manager → donor replica: stream your store to ``target``.

    The donor answers with a sequence of :class:`SnapshotChunk` messages
    sent directly to the joining storage node, cut at a WAL checkpoint
    (§3.2.3's "bulk-copy techniques to bring the data up-to-date more
    efficiently without involving the Paxos protocol").
    """

    request_id: int
    target: str    # the joining storage node the chunks go to
    reply_to: str  # the reconfig manager awaiting the SnapshotAck


@dataclass(frozen=True, slots=True)
class SnapshotChunk:
    """Donor replica → joining replica: a slice of committed records.

    ``records`` entries are ``(table, key, version, value_or_None,
    applied_ids)`` tuples — exactly the CatchUp payload, batched.  The
    final chunk (``last=True``) carries the donor's WAL checkpoint LSN:
    everything at or below the cut is covered by the snapshot; writes
    after it reach the joiner through the anti-entropy sweeps that gate
    admission.
    """

    request_id: int
    seq: int
    records: Tuple[Tuple[str, str, int, Optional[Dict[str, object]], Tuple[str, ...]], ...]
    last: bool
    wal_cut: int   # donor WAL checkpoint LSN (meaningful on the last chunk)
    reply_to: str  # manager to ack once the final chunk is adopted


@dataclass(frozen=True, slots=True)
class SnapshotAck:
    """Joining replica → reconfig manager: the stream has been adopted."""

    request_id: int
    node_id: str
    records_adopted: int
    wal_cut: int


# ----------------------------------------------------------------------
# Replicated Commit (Paxos across DCs over per-DC 2PC; see
# repro.protocols.replicatedcommit)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RcCommitRequest:
    """Client → each DC's 2PC coordinator: run your local 2PC round.

    Carries the full write-set so every data center can prepare (and
    later apply) without any cross-DC record fetch — the transaction's
    single client→DC wide-area hop.
    """

    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    reply_to: str  # the client tallying DC votes


@dataclass(frozen=True, slots=True)
class RcPrepare:
    """DC coordinator → local participant: lock + validate the
    participant's slice of the write-set, each record on its own."""

    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    reply_to: str  # the DC coordinator collecting local votes


@dataclass(frozen=True, slots=True)
class RcPrepareReply:
    """Participant → DC coordinator: the local 2PC vote on ``records``.

    ``vote`` holds iff every record prepared; ``reason`` names the first
    refusal from the protocol's abort vocabulary (``"prepared"`` on
    success) — surfaced in traces and the DC vote.
    """

    txid: str
    records: Tuple[RecordId, ...]
    vote: bool
    reason: str


@dataclass(frozen=True, slots=True)
class RcVote:
    """DC coordinator → client: this data center's Paxos accept/reject.

    The DC's 2PC outcome *is* its vote on the single Paxos value "did
    this transaction commit?"; a classic majority of DCs decides.
    """

    txid: str
    dc: str
    accept: bool
    voter: str  # coordinator node id (trace/debug attribution)


@dataclass(frozen=True, slots=True)
class RcDecision:
    """Client → every DC coordinator: the majority decision.

    Re-carries the write-set so a coordinator whose RcCommitRequest was
    lost to a partition can still relay applies once reachable again.
    """

    txid: str
    commit: bool
    updates: Tuple[Tuple[RecordId, Update], ...]


@dataclass(frozen=True, slots=True)
class RcApply:
    """DC coordinator → local participant: apply (or release) its slice
    of the write-set locally.

    Commit applies are version-guarded and idempotent per record, so
    relaying them is safe at any time — including re-deliveries after a
    heal.
    """

    txid: str
    updates: Tuple[Tuple[RecordId, Update], ...]
    commit: bool


# ----------------------------------------------------------------------
# Reads
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ReadRequest:
    table: str
    key: str
    request_id: int


@dataclass(frozen=True, slots=True)
class ReadReply:
    request_id: int
    table: str
    key: str
    exists: bool
    value: Optional[Dict[str, object]]
    version: int
    is_fast_era: bool
    master_hint: str


# ----------------------------------------------------------------------
# Dangling-transaction recovery (§3.2.3)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class StatusRequest:
    """Recovery agent → acceptors: what do you know about this tx's option?"""

    txid: str
    record: RecordId
    request_id: int


@dataclass(frozen=True, slots=True)
class StatusReply:
    """One acceptor's knowledge of one option of a transaction."""

    request_id: int
    txid: str
    record: RecordId
    known: bool
    status: Optional[OptionStatus]   # acceptor's local flag if known
    executed: bool                   # visibility already applied
    option: Optional[Option]         # the full option, for re-proposal
    writeset: Tuple[RecordId, ...]   # write-set keys carried by the option
