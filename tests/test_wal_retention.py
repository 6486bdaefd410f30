"""The storage WAL keeps an entry only while its outcome is in flight.

An MDCC entry waits on option ids and is dropped once its ``RecordState``
settles them (executed, or finally rejected); a 2PC / Replicated Commit
entry waits on its txid until the decision is applied on that node.  So
what a storage node holds in its log is bounded by in-flight work, not
by how long the run has been going:

* after a fault-free run has settled, no node retains an entry;
* the peak retained over a 4x longer measure window stays where the 1x
  window put it, while appends grow with the window;
* after a DC outage heals and anti-entropy has repaired it, no node
  retains an entry either: every option a replica decided reaches an
  outcome there, also one it rejected locally or dropped unsettled.
"""

import pytest

from repro.bench import run
from repro.core.messages import (
    ProposeFast,
    RcApply,
    RcPrepare,
    Visibility,
)
from repro.core.options import Option, PhysicalUpdate, RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.faults import named_schedule
from repro.protocols.twopc import DecisionMessage, PrepareRequest
from repro.storage.schema import Constraint, TableSchema
from repro.workloads.micro import MicroBenchmark

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
STOCK = {"min_stock": 500, "max_stock": 1_000}
#: the peak may wobble with what happens to be in flight at the busiest
#: instant, not with run length.
PEAK_SLACK = 1.25


def _micro_run(protocol, measure_ms):
    """A micro run on ``protocol``, settled; (appends, peak retained,
    retained afterwards) summed over the storage nodes."""
    cluster = build_cluster(ClusterSpec(protocol=protocol, seed=7))
    nodes = list(cluster.storage_nodes.values())
    peak = [0]

    def watch(wal):
        append = wal.append

        def watched(*args, **kwargs):
            entry = append(*args, **kwargs)
            peak[0] = max(peak[0], sum(node.wal.retained for node in nodes))
            return entry

        wal.append = watched

    for node in nodes:
        watch(node.wal)
    bench = MicroBenchmark(num_items=500, **STOCK)
    stats, _pool = bench.run(
        cluster, num_clients=20, warmup_ms=2_000.0, measure_ms=measure_ms
    )
    assert stats.commits > 0
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    return (
        sum(len(node.wal) for node in nodes),
        peak[0],
        sum(node.wal.retained for node in nodes),
    )


@pytest.mark.parametrize("protocol", ["mdcc", "fast", "multi", "2pc", "repcommit"])
def test_retention_is_bounded_by_in_flight_work(protocol):
    short_appends, short_peak, short_left = _micro_run(protocol, 2_500.0)
    long_appends, long_peak, long_left = _micro_run(protocol, 10_000.0)
    assert short_left == long_left == 0
    assert long_appends > 2 * short_appends
    assert 0 < short_peak < short_appends / 10
    assert long_peak <= short_peak * PEAK_SLACK


def _outage_run(protocol):
    schedule = named_schedule("dc-outage", start_ms=2_000.0, duration_ms=20_000.0)
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, seed=7, master_policy=schedule.master_policy)
    )
    bench = MicroBenchmark(num_items=200, **STOCK)
    result = run(
        cluster, bench, schedule, num_clients=10, warmup_ms=2_000.0, measure_ms=20_000.0
    )
    assert result.clean and result.commits > 0
    return cluster, result


@pytest.mark.parametrize("protocol", ["mdcc", "fast", "multi"])
def test_after_an_outage_heals_only_open_outcomes_are_kept(protocol):
    cluster, _result = _outage_run(protocol)
    appended = sum(len(node.wal) for node in cluster.storage_nodes.values())
    retained = sum(node.wal.retained for node in cluster.storage_nodes.values())
    assert appended > 0
    assert retained == 0


def test_outage_lag_is_repaired_by_catch_up_without_recovery():
    """On mdcc the outage leaves lag only: the sweeps' CatchUps settle it,
    and not one transaction goes through Paxos recovery."""
    _cluster, result = _outage_run("mdcc")
    assert result.counters.get("antientropy.repairs", 0) > 0
    assert result.counters.get("antientropy.recoveries_triggered", 0) == 0
    assert result.counters.get("recovery.started", 0) == 0


# ----------------------------------------------------------------------
# Handler level: where an outcome settles, its entries go
# ----------------------------------------------------------------------
def _cluster(protocol):
    cluster = build_cluster(
        ClusterSpec(protocol=protocol, partitions_per_table=1, seed=3)
    )
    cluster.register_table(ITEMS)
    cluster.load_record("items", "i", {"stock": 10})
    return cluster


def _replica(cluster, record):
    node = cluster.storage_nodes[cluster.placement.replica_in(record, "us-west")]
    node.send = lambda dst, message: None
    return node


def _write(txid, record, vread, stock):
    return Option(
        txid=txid,
        record=record,
        update=PhysicalUpdate(vread=vread, new_value={"stock": stock}),
        writeset=(record,),
    )


def test_mdcc_learned_option_is_logged_until_its_visibility():
    cluster = _cluster("mdcc")
    record = RecordId("items", "i")
    node = _replica(cluster, record)
    option = _write("t1", record, 1, 9)
    node.handle_propose_fast(ProposeFast(option=option, reply_to="app"), "app")
    (learned,) = list(node.wal)
    assert learned.kind == "option-learned"
    assert learned.payload == node._option_log[option.option_id]
    assert learned.waits_on == (option.option_id,)
    node.handle_visibility(Visibility(option=option, committed=True), "app")
    assert (len(node.wal), node.wal.retained) == (2, 0)
    # A late duplicate proposal of a settled option is logged, not kept.
    node.handle_propose_fast(ProposeFast(option=option, reply_to="app"), "app")
    assert (len(node.wal), node.wal.retained) == (3, 0)


def test_mdcc_deferred_visibility_is_kept_until_drained():
    cluster = _cluster("mdcc")
    record = RecordId("items", "i")
    node = _replica(cluster, record)
    first, second = _write("t1", record, 1, 9), _write("t2", record, 2, 8)
    node.handle_visibility(Visibility(option=second, committed=True), "app")
    (deferred,) = list(node.wal)
    assert (deferred.kind, deferred.waits_on) == ("visibility", (second.option_id,))
    node.handle_visibility(Visibility(option=first, committed=True), "app")
    assert node.store.read("items", "i").version == 3
    assert node.wal.retained == 0


def test_mdcc_abort_visibility_settles_a_rejected_option():
    cluster = _cluster("mdcc")
    record = RecordId("items", "i")
    node = _replica(cluster, record)
    option = _write("t1", record, 1, 9)
    node.handle_propose_fast(ProposeFast(option=option, reply_to="app"), "app")
    node.handle_visibility(Visibility(option=option, committed=False), "app")
    assert node.wal.retained == 0


def test_2pc_prepare_waits_on_its_txid_until_the_decision_applies():
    cluster = _cluster("2pc")
    record = RecordId("items", "i")
    node = _replica(cluster, record)
    update = PhysicalUpdate(vread=1, new_value={"stock": 9})
    node.handle_prepare_request(PrepareRequest(txid="t1", updates=((record, update),)), "c")
    assert [(e.kind, e.waits_on) for e in node.wal] == [("2pc-prepare", ("t1",))]
    decision = DecisionMessage(txid="t1", updates=((record, update),), commit=True)
    node.handle_decision_message(decision, "c")
    assert (len(node.wal), node.wal.retained) == (2, 0)
    # A prepare the decision overtook is logged but waits on nothing.
    node.handle_prepare_request(PrepareRequest(txid="t1", updates=((record, update),)), "c")
    assert (len(node.wal), node.wal.retained) == (3, 0)


def test_repcommit_buffered_apply_keeps_its_txid_open_until_it_lands():
    cluster = _cluster("repcommit")
    record = RecordId("items", "i")
    node = _replica(cluster, record)
    later = PhysicalUpdate(vread=2, new_value={"stock": 5})
    earlier = PhysicalUpdate(vread=1, new_value={"stock": 7})
    node.handle_rc_prepare(
        RcPrepare(txid="t2", updates=((record, later),), reply_to="x"), "x"
    )
    node.handle_rc_apply(RcApply(txid="t2", updates=((record, later),), commit=True), "x")
    # Parked ahead of its predecessor: t2's outcome is not in the store.
    assert {e.kind for e in node.wal} == {"rc-prepare", "rc-apply"}
    node.handle_rc_apply(RcApply(txid="t1", updates=((record, earlier),), commit=True), "x")
    assert node.store.read("items", "i").version == 3
    assert node.wal.retained == 0
