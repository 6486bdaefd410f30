"""What a replica pays per record: only the protocol state it holds.

* a ``RecordState`` for a record that holds no protocol state yet — its
  ids, rejections, deferred visibilities and demarcation bases all
  empty — is a handful of slots pointing at shared empty containers;
* an executed option id is stored once per replica: in
  ``Record.applied_ids`` when it was folded into the value, otherwise
  (a read validation, a superseded physical write) in the state's own
  no-op set — never in both.
"""

import gc
import tracemalloc

from repro.core.options import RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema
from repro.workloads.micro import MicroBenchmark

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})
COLD_RECORDS = 10_000
#: bytes per cold ``record_state()``: 1,382 when every container was
#: created up front, about 222 with shared empties.
COLD_BUDGET_BYTES = 320


def test_a_cold_record_state_costs_only_its_slots():
    cluster = build_cluster(ClusterSpec(protocol="mdcc", partitions_per_table=1, seed=1))
    cluster.register_table(ITEMS)
    node = cluster.storage_nodes[sorted(cluster.storage_nodes)[0]]
    records = [RecordId("items", f"k{i}") for i in range(COLD_RECORDS)]
    for record in records:
        cluster.load_record(record.table, record.key, {"stock": 10})
    node.record_state(RecordId("items", "warm-up"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for record in records:
            node.record_state(record)
        spent = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert spent / COLD_RECORDS <= COLD_BUDGET_BYTES


def _id_sets(state):
    """Every set of option ids a replica keeps for one record, by name —
    except final rejections, which name no applied option."""
    sets = {"applied_ids": state.record.applied_ids}
    for name in type(state).__slots__:
        value = getattr(state, name)
        if name != "rejected" and isinstance(value, (set, frozenset)):
            sets[name] = value
    return sets


def test_a_settled_run_stores_each_applied_option_once_per_replica():
    cluster = build_cluster(ClusterSpec(protocol="mdcc", seed=7))
    bench = MicroBenchmark(num_items=500, min_stock=500, max_stock=1_000)
    stats, _pool = bench.run(cluster, num_clients=20, warmup_ms=5_000.0, measure_ms=10_000.0)
    assert stats.commits > 0
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    stored = 0
    pairs = set()
    for node in cluster.storage_nodes.values():
        for state in node._states.values():
            for ids in _id_sets(state).values():
                stored += len(ids)
                pairs.update((node.node_id, option_id) for option_id in ids)
    options = {option_id for _node, option_id in pairs}
    replication = cluster.placement.replication
    # Fault-free and settled: every applied option is executed at every
    # replica of its record, and stored there exactly once.
    assert stored == len(pairs) == replication * len(options) > 0
