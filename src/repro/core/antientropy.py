"""Anti-entropy: background replica repair after failures.

The paper leaves post-outage repair to the future — "if the data center
comes up again, only records which have been updated during the failure
would still be impacted by the increased latency until the next update or
a background process brought them up-to-date" (§5.3.4), and §3.2.3
anticipates "bulk-copy techniques to bring the data up-to-date more
efficiently without involving the Paxos protocol".  This module is that
background process.

:class:`AntiEntropyAgent` sweeps records: it reads the committed snapshot
from every replica, finds the freshest version among the replies, and
sends :class:`~repro.core.messages.CatchUp` to replicas that are behind.
Safety is inherited from the catch-up rule — replicas only ever adopt a
*newer* committed version (``catch_up`` is a no-op for stale or duplicate
repair messages), and the repair payload is always a version some replica
already committed.  The sweep therefore never rolls back state and can be
run at any time, even during failures; replicas that are unreachable now
are simply repaired by a later sweep.

The catch-up is the bulk copy: it carries the freshest replica's applied
ids, which the lagging replica folds in and settles.  So a replica that
only lags gets that one message and nothing else — not a visibility, and
not a Paxos recovery, per transaction it missed.  The Paxos detour
(:class:`~repro.core.recovery.RecoveryAgent`) is kept for what no copy of
committed state can fix: replicas at the same version holding different
delta sets, and options whose outcome no replica has executed.

A sweep is complete when every replica replied or the per-record timeout
expired; repair proceeds with whatever arrived.  With fewer than a classic
quorum of replies the freshest version seen may itself be behind the
latest commit — the sweep still helps (it can only move replicas forward)
and a subsequent sweep finishes the job once more replicas answer.  A
catch-up that does not land (lost, or overtaken by the replica's own
progress) is repaired the same way by the next sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MDCCConfig
from repro.core.messages import CatchUp, RepairProbe, RepairReply, Visibility
from repro.core.options import RecordId
from repro.core.topology import ReplicaMap
from repro.metrics import CounterSet
from repro.transport.base import Future, Node, Transport

__all__ = ["AntiEntropyAgent", "SweepReport"]


@dataclass
class SweepReport:
    """What one sweep observed and repaired."""

    records_swept: int = 0
    replicas_repaired: int = 0
    records_with_lag: int = 0
    unreachable_replies: int = 0  # replicas that never answered the probe
    #: node ids that never answered at least one probe — lets callers
    #: (e.g. the reconfig manager's admission gate) tell a dark *joiner*
    #: from some other unreachable replica.
    unreachable_nodes: set = field(default_factory=set)
    #: visibilities re-driven for options executed elsewhere but left
    #: unsettled at some replica (the dropped-visibility case).
    visibilities_redriven: int = 0
    #: transactions handed to the recovery agent (§3.2.3): an option of
    #: theirs is unsettled somewhere and executed nowhere, or executed
    #: somewhere and unknown to a replica no catch-up brings it to.
    recoveries_triggered: int = 0

    def merge(self, other: "SweepReport") -> None:
        self.records_swept += other.records_swept
        self.replicas_repaired += other.replicas_repaired
        self.records_with_lag += other.records_with_lag
        self.unreachable_replies += other.unreachable_replies
        self.unreachable_nodes |= other.unreachable_nodes
        self.visibilities_redriven += other.visibilities_redriven
        self.recoveries_triggered += other.recoveries_triggered


@dataclass
class _Probe:
    record: RecordId
    expected: int
    replicas: Tuple[str, ...] = ()
    replies: Dict[str, RepairReply] = field(default_factory=dict)
    done: bool = False


class AntiEntropyAgent(Node):
    """A background repair process for one data center.

    One agent can sweep any number of records; deploy one per data center
    for locality (probes still cross the WAN — every replica must be
    read).  Typical use::

        agent = cluster.add_anti_entropy_agent("us-west")
        report = cluster.sim.run_until(agent.sweep("items", keys))
        agent.start_periodic("items", keys, interval_ms=30_000)
    """

    def __init__(
        self,
        transport: Transport,
        node_id: str,
        dc: str,
        placement: ReplicaMap,
        config: MDCCConfig,
        counters: Optional[CounterSet] = None,
        probe_timeout_ms: float = 1_500.0,
    ) -> None:
        super().__init__(transport, node_id, dc)
        self.placement = placement
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self.probe_timeout_ms = probe_timeout_ms
        self._request_seq = itertools.count(1)
        self._probes: Dict[int, _Probe] = {}
        self._probe_futures: Dict[int, Future] = {}
        self._periodic_timer = None
        self._periodic_args: Optional[Tuple[str, List[str], float]] = None
        #: optional §3.2.3 recovery agent for dangling pending options.
        self._recovery = None

    def attach_recovery(self, recovery_agent) -> None:
        """Escalate what no catch-up or re-drive settles to
        ``recovery_agent``.

        Without one, sweeps re-drive only visibilities whose commit is
        proven by another replica's applied set; options that are
        unsettled everywhere (a coordinator died before ANY replica
        executed) stay parked until some recovery agent reconstructs the
        transaction."""
        self._recovery = recovery_agent

    # ------------------------------------------------------------------
    # One-shot sweep
    # ------------------------------------------------------------------
    def sweep(self, table: str, keys: Sequence[str]) -> Future:
        """Probe and repair every (table, key); resolves with a
        :class:`SweepReport`."""
        report = SweepReport()
        aggregate = self.future()
        pending = [len(keys)]
        if not keys:
            aggregate.resolve(report)
            return aggregate

        def on_record_done(fut: Future) -> None:
            report.merge(fut.result())
            pending[0] -= 1
            if pending[0] == 0:
                self.counters.increment("antientropy.sweeps")
                aggregate.resolve(report)

        for key in keys:
            self._sweep_record(RecordId(table, key)).add_done_callback(
                on_record_done
            )
        return aggregate

    def _sweep_record(self, record: RecordId) -> Future:
        request_id = next(self._request_seq)
        # Repair scope: joining (not-yet-admitted) replicas are swept too —
        # this is how a bootstrapping DC catches up through writes that
        # landed after its snapshot cut, before it enters any quorum.
        replicas = self.placement.replicas_for_repair(record)
        probe = _Probe(
            record=record, expected=len(replicas), replicas=tuple(replicas)
        )
        future = self.future()
        self._probes[request_id] = probe
        self._probe_futures[request_id] = future
        for replica in replicas:
            self.send(replica, RepairProbe(record=record, request_id=request_id))
        self.set_timer(self.probe_timeout_ms, self._finish_probe, request_id)
        return future

    def handle_repair_reply(self, message: RepairReply, src_id: str) -> None:
        probe = self._probes.get(message.request_id)
        if probe is None or probe.done:
            return
        probe.replies[src_id] = message
        if len(probe.replies) >= probe.expected:
            self._finish_probe(message.request_id)

    def _finish_probe(self, request_id: int) -> None:
        probe = self._probes.pop(request_id, None)
        future = self._probe_futures.pop(request_id, None)
        if probe is None or probe.done or future is None:
            return
        probe.done = True
        report = SweepReport(records_swept=1)
        report.unreachable_replies = probe.expected - len(probe.replies)
        report.unreachable_nodes = set(probe.replicas) - set(probe.replies)
        if probe.replies:
            freshest = max(probe.replies.values(), key=lambda r: r.version)
            behind = [
                node_id
                for node_id, reply in probe.replies.items()
                if reply.version < freshest.version
            ]
            if behind:
                report.records_with_lag = 1
                report.replicas_repaired = len(behind)
                repair = CatchUp(
                    record=probe.record,
                    version=freshest.version,
                    value=freshest.value,
                    exists=freshest.exists,
                    applied_ids=freshest.applied_ids,
                )
                for node_id in behind:
                    self.send(node_id, repair)
                self.counters.increment(
                    "antientropy.repairs", amount=len(behind)
                )
            self._repair_pending(probe, report, behind, freshest.applied_ids)
        future.resolve(report)

    def _repair_pending(
        self,
        probe: _Probe,
        report: SweepReport,
        behind: List[str],
        carried: Tuple[str, ...],
    ) -> None:
        """Settle what this round's catch-up cannot (§3.2.3's promise).

        Each replica in ``behind`` is sent a :class:`CatchUp` this round;
        adopting it marks every id in ``carried`` (the freshest reply's
        applied ids) executed there and settles it.  So for those
        replicas the ids the catch-up carries count as known, and only
        the rest is repaired here.  A replica that decided an option but
        never saw its visibility keeps it unsettled forever — blocking
        validSingle when accepted, holding its WAL entry either way, and
        for deltas silently diverging from peers *at the same version*
        (which no catch-up fixes).  Three cases, each for an id the
        round's catch-up (if any) does not carry:

        * unsettled here, executed at any peer → the commit decision is
          proven; re-drive ``Visibility(committed=True)`` to the stuck
          replica directly.
        * unsettled here, executed nowhere → the outcome is unknown; hand
          the txid to the attached recovery agent, which reconstructs the
          transaction from a quorum and drives it to a definitive outcome.
        * executed at a peer but *wholly unknown* here (a lossy network
          ate the propose itself, not just the visibility) → there is no
          local option to re-drive, so escalate to the recovery agent the
          same way: its closing ``Visibility`` broadcast carries the full
          option payload, which the unaware replica executes on arrival
          (and peers that already applied it deduplicate).  Without this
          case a replica can sit at the *same version* as its peers with a
          different delta set, invisible to every other repair path.
        """
        applied_anywhere: set = set()
        for reply in probe.replies.values():
            applied_anywhere.update(reply.applied_ids)
        # node -> the ids its catch-up this round settles there.
        covers = dict.fromkeys(behind, frozenset(carried)) if behind else {}
        escalated: set = set()
        for node_id, reply in probe.replies.items():
            covered = covers.get(node_id, ())
            for option in reply.unsettled:
                if option.option_id in covered:
                    continue
                if option.option_id in applied_anywhere:
                    self.send(node_id, Visibility(option=option, committed=True))
                    report.visibilities_redriven += 1
                    self.counters.increment("antientropy.visibility_redriven")
                elif self._recovery is not None and option.txid not in escalated:
                    # recover() dedups an in-flight recovery and restarts
                    # one that gave up, so re-escalating each sweep is safe
                    # — and necessary: permanent suppression would strand
                    # the record if an earlier attempt ran out of retries.
                    escalated.add(option.txid)
                    self._recovery.recover(option.txid, probe.record)
                    report.recoveries_triggered += 1
                    self.counters.increment("antientropy.recoveries_triggered")
        if self._recovery is None:
            return
        # Case three: ids applied at some peer that this replica has
        # neither applied nor holds unsettled, nor gets from the catch-up.
        # Only the txid is derivable (option ids are "txid:record" and
        # peers do not ship payloads of already-applied options), hence
        # the recovery detour.
        suffix = f":{probe.record}"
        for node_id, reply in probe.replies.items():
            known = set(reply.applied_ids)
            known.update(option.option_id for option in reply.unsettled)
            known.update(covers.get(node_id, ()))
            for option_id in sorted(applied_anywhere - known):
                if not option_id.endswith(suffix):
                    continue
                txid = option_id[: -len(suffix)]
                if txid in escalated:
                    continue
                escalated.add(txid)
                self._recovery.recover(txid, probe.record)
                report.recoveries_triggered += 1
                self.counters.increment("antientropy.recoveries_triggered")

    # ------------------------------------------------------------------
    # Periodic operation
    # ------------------------------------------------------------------
    def start_periodic(
        self, table: str, keys: Sequence[str], interval_ms: float
    ) -> None:
        """Sweep (table, keys) every ``interval_ms`` until :meth:`stop`."""
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.stop()
        self._periodic_args = (table, list(keys), interval_ms)
        self._periodic_timer = self.set_timer(interval_ms, self._periodic_tick)

    def stop(self) -> None:
        if self._periodic_timer is not None:
            self._periodic_timer.cancel()
            self._periodic_timer = None
        self._periodic_args = None

    def _periodic_tick(self) -> None:
        if self._periodic_args is None:
            return
        table, keys, interval_ms = self._periodic_args
        self.sweep(table, keys)
        self._periodic_timer = self.set_timer(interval_ms, self._periodic_tick)
