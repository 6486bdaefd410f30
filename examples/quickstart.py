#!/usr/bin/env python
"""Quickstart: commit a geo-replicated transaction in one round trip.

Builds a five-data-center MDCC deployment (the paper's EC2 regions), runs
a handful of transactions from an app server in US-West, and shows the
two headline behaviours of the protocol:

* a multi-record transaction commits in ~one wide-area round trip via
  fast ballots (no master in the critical path), and
* a conflicting write-write transaction is detected and aborted.

Run it:

    python examples/quickstart.py
"""

from repro import ClusterSpec, Constraint, TableSchema, build_cluster


def main() -> None:
    # One full replica per data center; the "items" table carries a value
    # constraint: stock must never drop below zero (§3.4.2).
    cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=42))
    cluster.register_table(
        TableSchema("items", constraints={"stock": Constraint(minimum=0)})
    )
    for key, stock in [("apple", 10), ("banana", 8), ("cherry", 5)]:
        cluster.load_record("items", key, {"stock": stock})

    sim = cluster.sim
    client = cluster.add_client("us-west")

    # ------------------------------------------------------------------
    # 1. A multi-record buy: decrement stock on three records atomically.
    # ------------------------------------------------------------------
    tx = cluster.begin(client)
    for key in ("apple", "banana", "cherry"):
        sim.run_until(tx.read("items", key))
    tx.decrement("items", "apple", "stock", 2)
    tx.decrement("items", "banana", "stock", 1)
    tx.decrement("items", "cherry", "stock", 1)
    outcome = sim.run_until(tx.commit())

    print("--- multi-record buy ---")
    print(f"committed:  {outcome.committed}")
    print(f"latency:    {outcome.latency_ms:.1f} ms (simulated)")
    print(f"fast path:  {outcome.fast_path}  (no master round trip)")

    # All five replicas converge once visibility messages settle.
    sim.run(until=sim.now + 2_000)
    print("replicas (apple.stock):")
    for node_id, snapshot in sorted(cluster.committed_snapshots("items", "apple").items()):
        print(f"  {node_id:>22}: {snapshot.value['stock']}")

    # ------------------------------------------------------------------
    # 2. A write-write conflict: two clients race on the same record with
    #    version-guarded physical writes. MDCC detects the conflict; at
    #    most one commits (no lost updates, §4.1).
    # ------------------------------------------------------------------
    west = cluster.begin(cluster.add_client("us-west"))
    east = cluster.begin(cluster.add_client("us-east"))
    sim.run_until(west.read("items", "apple"))
    sim.run_until(east.read("items", "apple"))
    # Both try a full-record overwrite based on the version they read.
    west.write("items", "apple", {"stock": 100})
    east.write("items", "apple", {"stock": 200})
    fut_west, fut_east = west.commit(), east.commit()
    sim.run_until(fut_west)
    sim.run_until(fut_east)

    print("\n--- racing physical writes (same record, same read version) ---")
    print(f"west committed: {fut_west.result().committed}")
    print(f"east committed: {fut_east.result().committed}")
    assert fut_west.result().committed != fut_east.result().committed or (
        not fut_west.result().committed
    ), "at most one racing write may commit"

    # ------------------------------------------------------------------
    # 3. Commutative decrements do NOT conflict: both commit.
    # ------------------------------------------------------------------
    tx_a = cluster.begin(cluster.add_client("eu-west"))
    tx_b = cluster.begin(cluster.add_client("ap-northeast"))
    tx_a.decrement("items", "banana", "stock", 1)
    tx_b.decrement("items", "banana", "stock", 2)
    fut_a, fut_b = tx_a.commit(), tx_b.commit()
    sim.run_until(fut_a)
    sim.run_until(fut_b)

    print("\n--- concurrent commutative decrements ---")
    print(f"eu-west committed:      {fut_a.result().committed}")
    print(f"ap-northeast committed: {fut_b.result().committed}")
    sim.run(until=sim.now + 2_000)
    print(f"banana.stock now: {cluster.read_committed('items', 'banana').value['stock']}")


if __name__ == "__main__":
    main()
