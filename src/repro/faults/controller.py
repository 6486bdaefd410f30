"""The chaos controller: interprets a :class:`FaultSchedule` over a cluster.

The controller is the bridge between declarative fault timelines and the
substrate.  At :meth:`install` time it schedules one transport timer per
fault event; at fire time it drives the fault API of ``cluster.network``
— the simulated :class:`~repro.sim.network.Network` (outages, N-way
partitions, link policies, node crashes), or over TCP
:class:`~repro.transport.tcp.ClusterLinks`, which has the link-policy
and drop-rate verbs only — or runs the two protocol-level faults that
need more than the network:

* **master crash** — resolve the master storage node of a workload record
  and fail it; re-election happens through the normal coordinator failover
  path (escalation to the next master candidate, Phase-1 takeover).
* **coordinator crash mid-commit** — run a probe transaction through a
  coordinator whose ``_finish`` is swallowed (options proposed and
  possibly learned, visibilities never sent), then dispatch two racing
  :class:`~repro.core.recovery.RecoveryAgent` instances from different
  data centers and record their verdicts.  Probe records live in a
  dedicated ``chaos_probe`` table so workload ledgers stay exact.

Every effective network transition is captured through the network's
subscriber hook into :attr:`log` — one merged, deterministic event log the
scenario result serializes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.coordinator import MDCCCoordinator
from repro.core.options import RecordId
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.core import SimulationError
from repro.sim.network import LinkPolicy
from repro.storage.schema import TableSchema

__all__ = ["ChaosController", "CHAOS_TABLE"]

#: Probe records for coordinator-crash faults live in their own table so
#: the workload's update ledger never sees out-of-band writes.
CHAOS_TABLE = "chaos_probe"

class _DanglingCoordinator(MDCCCoordinator):
    """A coordinator that dies right before sending visibilities.

    Options are proposed (and possibly learned) but no Visibility ever
    goes out — the §3.2.3 dangling-transaction scenario.  ``tx.finished``
    is set so the learn-timeout loop stops retrying, mirroring a process
    that is simply gone.
    """

    def _finish(self, tx) -> None:
        tx.finished = True


class ChaosController:
    """Drives one :class:`FaultSchedule` against one cluster.

    Args:
        cluster: the deployment under test.
        schedule: the fault timeline.
        workload_source: ``() -> (table, keys)`` resolved lazily at event
            time (workload tables are populated after the controller is
            built) — used by ``crash-master`` to pick a victim record.
    """

    def __init__(
        self,
        cluster,
        schedule: FaultSchedule,
        workload_source: Optional[Callable[[], Tuple[str, List[str]]]] = None,
    ) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self._workload_source = workload_source
        #: merged event log: controller actions + network transitions.
        self.log: List[Dict[str, object]] = []
        #: one entry per recovery-agent verdict on a dangling transaction.
        self.recovery_outcomes: List[Dict[str, object]] = []
        #: probe key -> expectation record (initial/written values, verdicts).
        self.probe_expectations: Dict[str, Dict[str, object]] = {}
        self._crashed_nodes: List[str] = []
        self._probe_seq = 0
        self._installed = False
        cluster.network.subscribe(self._on_network_event)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every fault event and pre-load probe records."""
        if self._installed:
            raise RuntimeError("ChaosController.install() called twice")
        self._installed = True
        crashes = self.schedule.count("crash-coordinator")
        if crashes and self.cluster.descriptor.supports_recovery:
            self.cluster.register_table(TableSchema(CHAOS_TABLE))
            for index in range(crashes):
                self.cluster.load_record(
                    CHAOS_TABLE, self._probe_key(index), {"value": 0}
                )
        transport = self.cluster.transport
        for event in self.schedule.sorted_events():
            transport.schedule(event.at_ms - transport.now, self._apply, event)

    @staticmethod
    def _probe_key(index: int) -> str:
        return f"probe:{index:03d}"

    @property
    def probe_keys(self) -> List[str]:
        return sorted(self.probe_expectations)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        params = event.params_dict
        handler = getattr(self, "_do_" + event.action.replace("-", "_"), None)
        if handler is None:  # pragma: no cover - schedule builder guards this
            raise ValueError(f"unknown fault action {event.action!r}")
        handler(params)

    def _record(self, action: str, **details: object) -> None:
        self.log.append(
            {"t_ms": round(self.cluster.transport.now, 3), "event": action, **details}
        )

    def _on_network_event(self, now: float, event: str, details: Dict[str, object]) -> None:
        self.log.append({"t_ms": round(now, 3), "event": event, **details})

    def _do_fail_dc(self, params: Dict[str, object]) -> None:
        self.cluster.network.fail_datacenter(params["dc"])

    def _do_recover_dc(self, params: Dict[str, object]) -> None:
        self.cluster.network.recover_datacenter(params["dc"])

    def _do_partition_pair(self, params: Dict[str, object]) -> None:
        self.cluster.network.partition(*params["pair"])

    def _do_heal_pair(self, params: Dict[str, object]) -> None:
        self.cluster.network.heal_partition(*params["pair"])

    def _do_partition_groups(self, params: Dict[str, object]) -> None:
        self.cluster.network.partition_groups(params["groups"])

    def _do_clear_groups(self, params: Dict[str, object]) -> None:
        self.cluster.network.clear_partition_groups()

    def _do_degrade_link(self, params: Dict[str, object]) -> None:
        self.cluster.network.set_link_policy(
            *params["pair"],
            LinkPolicy(
                extra_latency_ms=params.get("extra_latency_ms", 0.0),
                jitter_sigma=params.get("jitter_sigma", 0.0),
                drop_rate=params.get("drop_rate", 0.0),
            ),
        )

    def _do_restore_link(self, params: Dict[str, object]) -> None:
        self.cluster.network.clear_link_policy(*params["pair"])

    def _do_drop_rate(self, params: Dict[str, object]) -> None:
        self.cluster.network.set_drop_rate(params["rate"])
        self._record("drop-rate", rate=params["rate"])

    # ------------------------------------------------------------------
    # Membership events (elastic clusters)
    # ------------------------------------------------------------------
    def _do_decommission_dc(self, params: Dict[str, object]) -> None:
        from repro.reconfig.directory import MembershipError

        manager = self.cluster.reconfig
        if manager is None:
            self._record(
                "decommission-skipped", dc=params["dc"], reason="not-elastic"
            )
            return
        try:
            future = manager.decommission(params["dc"])
        except (MembershipError, SimulationError) as exc:
            # A mis-scripted schedule (retiring a non-member, or the last
            # DC) must not crash the scenario mid-run.
            self._record(
                "decommission-failed", dc=params["dc"], reason=str(exc)
            )
            return
        future.add_done_callback(
            lambda fut: self._record("dc-decommissioned", **fut.result())
        )

    def _do_join_dc(self, params: Dict[str, object]) -> None:
        from repro.reconfig.directory import MembershipError

        manager = self.cluster.reconfig
        if manager is None:
            self._record("join-skipped", dc=params["dc"], reason="not-elastic")
            return
        try:
            future = manager.join(
                params["dc"],
                like=params.get("like"),
                donor_dc=params.get("donor"),
            )
        except (MembershipError, SimulationError) as exc:
            # Beyond membership validation, join wires the new DC into the
            # network, which rejects bad templates (a `like` clone that
            # leaves links uncovered, a node-id collision) with
            # SimulationError — record those as join-failed too.
            self._record("join-failed", dc=params["dc"], reason=str(exc))
            return
        future.add_done_callback(self._on_join_done)

    def _on_join_done(self, future) -> None:
        report = future.result()
        # An aborted bootstrap/catch-up resolves with ok=False — log it
        # as a failure, not a join.
        event = "dc-joined" if report.get("ok") else "dc-join-failed"
        self._record(event, **report)

    # ------------------------------------------------------------------
    # Master crash
    # ------------------------------------------------------------------
    def _do_crash_master(self, params: Dict[str, object]) -> None:
        dc = params.get("dc")
        target = self._find_master_node(dc)
        if target is None:
            self._record("crash-master-skipped", dc=dc, reason="no-target")
            return
        record, node_id = target
        self._crashed_nodes.append(node_id)
        self.cluster.network.fail_node(node_id)
        self._record(
            "master-crashed",
            node_id=node_id,
            record=f"{record.table}/{record.key}",
            dc=dc,
        )

    def _find_master_node(self, dc: Optional[str]) -> Optional[Tuple[RecordId, str]]:
        if self._workload_source is None:
            return None
        table, keys = self._workload_source()
        placement = self.cluster.placement
        for key in keys:
            record = RecordId(table, key)
            if dc is None or placement.master_dc(record) == dc:
                return record, placement.master_node(record)
        return None

    def _do_restore_masters(self, params: Dict[str, object]) -> None:
        for node_id in self._crashed_nodes:
            self.cluster.network.recover_node(node_id)
        self._crashed_nodes = []

    # ------------------------------------------------------------------
    # Coordinator crash mid-commit
    # ------------------------------------------------------------------
    def _do_crash_coordinator(self, params: Dict[str, object]) -> None:
        if not self.cluster.descriptor.supports_recovery:
            self._record(
                "coordinator-crash-skipped",
                reason=f"no recovery agent for protocol {self.cluster.protocol}",
            )
            return
        index = self._probe_seq
        self._probe_seq += 1
        key = self._probe_key(index)
        txid = f"chaos-dangling-{index}"
        written = {"value": index + 1}
        self.probe_expectations[key] = {
            "txid": txid,
            "initial": {"value": 0},
            "written": written,
            "verdicts": [],
        }
        datacenters = self.cluster.placement.datacenters
        home = datacenters[index % len(datacenters)]
        coordinator = _DanglingCoordinator(
            self.cluster.transport,
            f"chaos-crash-{index}",
            home,
            placement=self.cluster.placement,
            config=self.cluster.config,
            counters=self.cluster.counters,
        )
        record = RecordId(CHAOS_TABLE, key)
        self._record("coordinator-crash", txid=txid, key=key, dc=home)

        def dangling_commit():
            tx = self.cluster.begin(coordinator)
            yield tx.read(CHAOS_TABLE, key)
            tx.write(CHAOS_TABLE, key, written)
            tx.commit(txid=txid)
            # The coordinator "crashes" here: _finish never runs, so the
            # learned options are never driven to visibility.

        self.cluster.transport.spawn(dangling_commit(), name=f"chaos-dangling-{index}")
        recover_after = params.get("recover_after_ms", 6_000.0)
        self.cluster.transport.schedule(
            recover_after, self._dispatch_recovery, index, txid, record, home
        )

    def _dispatch_recovery(
        self, index: int, txid: str, record: RecordId, home: str
    ) -> None:
        """Two recovery agents in different DCs race on the same txid."""
        datacenters = self.cluster.placement.datacenters
        agent_dcs = (
            datacenters[(datacenters.index(home) + 1) % len(datacenters)],
            datacenters[(datacenters.index(home) + 3) % len(datacenters)],
        )
        self._record("recovery-dispatched", txid=txid, agents=agent_dcs)
        for agent_dc in agent_dcs:
            agent = self.cluster.add_recovery_agent(
                agent_dc, name=f"chaos-recovery-{index}-{agent_dc}"
            )
            future = agent.recover(txid, record)
            future.add_done_callback(
                lambda fut, dc=agent_dc: self._on_recovered(txid, record, dc, fut)
            )

    def _on_recovered(self, txid: str, record: RecordId, agent_dc: str, future) -> None:
        committed = bool(future.result())
        outcome = {
            "txid": txid,
            "agent_dc": agent_dc,
            "committed": committed,
            "t_ms": round(self.cluster.transport.now, 3),
        }
        self.recovery_outcomes.append(outcome)
        self.probe_expectations[record.key]["verdicts"].append(committed)
        self._record("recovery-decided", **outcome)

    # ------------------------------------------------------------------
    # Teardown and verdicts
    # ------------------------------------------------------------------
    def heal_all(self) -> None:
        """Lift every standing fault (scheduled or leftover)."""
        self.cluster.network.heal_all()
        self._crashed_nodes = []

    def probe_problems(self) -> List[str]:
        """Dangling-transaction verdicts that violate convergence.

        Checks that (a) racing recovery agents agreed per transaction,
        (b) every dispatched recovery decided, and (c) each probe record's
        committed value matches the verdict on every replica."""
        problems: List[str] = []
        for key in self.probe_keys:
            expectation = self.probe_expectations[key]
            verdicts = expectation["verdicts"]
            if not verdicts:
                problems.append(f"{key}: no recovery verdict arrived")
                continue
            if len(set(verdicts)) > 1:
                problems.append(f"{key}: racing recovery agents disagreed")
                continue
            expected = (
                expectation["written"] if verdicts[0] else expectation["initial"]
            )
            for node_id, snapshot in self.cluster.committed_snapshots(
                CHAOS_TABLE, key
            ).items():
                actual = snapshot.value if snapshot.exists else None
                if actual != expected:
                    problems.append(
                        f"{key} @ {node_id}: expected {expected}, found {actual}"
                    )
        return problems

    def log_as_rows(self) -> List[Dict[str, object]]:
        """The merged event log, already JSON-friendly."""
        return list(self.log)
