"""Property-style tests for concurrent dangling-transaction recovery.

§3.2.3's claim — "the recovery is deterministic and idempotent: several
agents may recover the same transaction concurrently" — must hold not
just on a quiet network but under message loss and racing starts.  Each
seed drives a different interleaving (latency jitter, agent start skew,
drop patterns); the invariant is always the same: every agent that
decides reaches the SAME verdict, and the database converges to exactly
that verdict on every replica.
"""

import pytest

from repro.core.coordinator import MDCCCoordinator
from repro.core.options import RecordId
from repro.db.cluster import ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema

ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


class CrashingCoordinator(MDCCCoordinator):
    """Dies right before visibility: options learned, nothing executed."""

    def _finish(self, tx):
        tx.finished = True


def dangle_transaction(cluster, txid: str, dc: str = "us-west"):
    """Leave ``txid`` dangling on items/a and items/b; returns the records."""
    cluster.register_table(ITEMS)
    cluster.load_record("items", "a", {"stock": 10})
    cluster.load_record("items", "b", {"stock": 20})
    crasher = CrashingCoordinator(
        cluster.transport,
        f"crasher-{txid}",
        dc,
        placement=cluster.placement,
        config=cluster.config,
        counters=cluster.counters,
    )
    tx = cluster.begin(crasher)
    cluster.sim.run_until(tx.read("items", "a"), limit=cluster.sim.now + 20_000)
    cluster.sim.run_until(tx.read("items", "b"), limit=cluster.sim.now + 20_000)
    tx.write("items", "a", {"stock": 11})
    tx.write("items", "b", {"stock": 21})
    tx.commit(txid=txid)
    cluster.sim.run(until=cluster.sim.now + 10_000)
    return RecordId("items", "a"), RecordId("items", "b")


def assert_converged(cluster, committed: bool):
    expected_a = {"stock": 11} if committed else {"stock": 10}
    expected_b = {"stock": 21} if committed else {"stock": 20}
    for key, expected in (("a", expected_a), ("b", expected_b)):
        for node_id, snapshot in cluster.committed_snapshots("items", key).items():
            assert snapshot.value == expected, (
                f"items/{key} @ {node_id}: expected {expected}, "
                f"found {snapshot.value}"
            )


@pytest.mark.parametrize("seed", range(8))
def test_two_racing_agents_converge(seed):
    """Two agents starting from different DCs with seed-dependent skew
    must agree, and the replicas must hold exactly the agreed outcome."""
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=100 + seed))
    record_a, _record_b = dangle_transaction(cluster, f"race-{seed}")

    skew = cluster.rng.stream("test.race").uniform(0.0, 500.0)
    agents = [
        cluster.add_recovery_agent("us-east"),
        cluster.add_recovery_agent("ap-northeast"),
    ]
    futures = [agents[0].recover(f"race-{seed}", record_a)]
    cluster.sim.run(until=cluster.sim.now + skew)
    futures.append(agents[1].recover(f"race-{seed}", record_a))

    results = [
        cluster.sim.run_until(future, limit=cluster.sim.now + 600_000)
        for future in futures
    ]
    cluster.sim.run(until=cluster.sim.now + 10_000)

    assert results[0] == results[1]
    assert_converged(cluster, results[0])


@pytest.mark.parametrize("seed", range(4))
def test_racing_agents_converge_under_message_loss(seed):
    """Same race with 15% random loss: retries and duplicate recovery
    rounds must still collapse to one visible outcome.  The loss can also
    eat the *winning* visibility at some replica, so the post-heal repair
    (an anti-entropy sweep, as in every chaos scenario) runs before the
    convergence check — the verdict itself must never be ambiguous."""
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=200 + seed))
    record_a, _record_b = dangle_transaction(cluster, f"lossy-{seed}")

    cluster.network.set_drop_rate(0.15)
    agents = [
        cluster.add_recovery_agent("us-east"),
        cluster.add_recovery_agent("eu-west"),
    ]
    futures = [
        agent.recover(f"lossy-{seed}", record_a) for agent in agents
    ]
    results = [
        cluster.sim.run_until(future, limit=cluster.sim.now + 2_000_000)
        for future in futures
    ]
    cluster.network.set_drop_rate(0.0)
    cluster.sim.run(until=cluster.sim.now + 20_000)

    sweeper = cluster.add_anti_entropy_agent("us-west")
    sweeper.attach_recovery(agents[0])
    for _ in range(2):
        cluster.sim.run_until(
            sweeper.sweep("items", ["a", "b"]), limit=cluster.sim.now + 120_000
        )
        cluster.sim.run(until=cluster.sim.now + 10_000)

    assert results[0] == results[1]
    assert_converged(cluster, results[0])


def test_agent_rejoining_after_decision_sees_cached_outcome():
    """A third agent recovering long after the verdict must re-derive the
    SAME outcome from durable acceptor state, not flip it."""
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=33))
    record_a, _record_b = dangle_transaction(cluster, "late")

    first = cluster.add_recovery_agent("us-east")
    verdict = cluster.sim.run_until(
        first.recover("late", record_a), limit=cluster.sim.now + 600_000
    )
    cluster.sim.run(until=cluster.sim.now + 10_000)

    late = cluster.add_recovery_agent("ap-southeast")
    verdict_late = cluster.sim.run_until(
        late.recover("late", record_a), limit=cluster.sim.now + 600_000
    )
    cluster.sim.run(until=cluster.sim.now + 10_000)

    assert verdict_late == verdict
    assert_converged(cluster, verdict)
