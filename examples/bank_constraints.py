#!/usr/bin/env python
"""Value constraints under concurrency: quorum demarcation in action.

The paper's motivating constraint is "the stock of an item must be greater
than zero" (§3.4.2).  This example uses the same machinery for a tiny bank:
geo-distributed clients concurrently debit accounts whose balances must
never go negative.

Two demonstrations:

1. **A simultaneous burst** of 25 debits against one account.  With the
   quorum demarcation limit L = (N - Q_f)/N * X, storage nodes stop
   accepting early, leaving slack — safe but conservative.  Without it,
   more debits slip through before the base refreshes.

2. **The paper's Figure 2, live**: rounds of 8 simultaneous debits of 1
   against an account holding only 4, under link jitter strong enough to
   shuffle per-node arrival orders.  With demarcation the constraint
   holds in every round; with plain per-node escrow 5 debits each reach
   a fast quorum and the bank is overdrawn — replica balances go
   negative.

Run it:

    python examples/bank_constraints.py
"""

from repro import ClusterSpec, Constraint, TableSchema, build_cluster

SCHEMA = TableSchema("accounts", constraints={"balance": Constraint(minimum=0)})


def burst_demo(demarcation: bool, balance: int = 8, n_clients: int = 25) -> dict:
    """25 clients debit the same account at the same instant."""
    cluster = build_cluster(
        ClusterSpec(partitions_per_table=1, seed=7, demarcation=demarcation)
    )
    cluster.register_table(SCHEMA)
    cluster.load_record("accounts", "acct:burst", {"balance": balance})
    datacenters = cluster.placement.datacenters

    futures = []
    for i in range(n_clients):
        client = cluster.add_client(datacenters[i % len(datacenters)])
        tx = cluster.begin(client)
        tx.decrement("accounts", "acct:burst", "balance", 1)
        futures.append(tx.commit())
    cluster.sim.run(until=60_000)

    committed = sum(1 for f in futures if f.done and f.result().committed)
    floor = min(
        snap.value["balance"]
        for snap in cluster.committed_snapshots("accounts", "acct:burst").values()
    )
    return {"committed": committed, "floor": floor, "balance": balance}


def figure2_demo(demarcation: bool, rounds: int = 10) -> dict:
    """The paper's Figure 2 made live: rounds of 8 simultaneous debits of
    1 against an account holding only 4, under strong link jitter so nodes
    see the options in different orders."""
    committed_total = 0
    overdrawn_rounds = 0
    worst_floor = 0
    for seed in range(rounds):
        cluster = build_cluster(
            ClusterSpec(partitions_per_table=1, seed=seed, demarcation=demarcation),
            jitter_sigma=0.25,
        )
        cluster.register_table(SCHEMA)
        cluster.load_record("accounts", "acct:scarce", {"balance": 4})
        datacenters = cluster.placement.datacenters
        futures = []
        for i in range(8):
            tx = cluster.begin(cluster.add_client(datacenters[i % len(datacenters)]))
            tx.decrement("accounts", "acct:scarce", "balance", 1)
            futures.append(tx.commit())
        cluster.sim.run(until=45_000)
        committed = sum(1 for f in futures if f.done and f.result().committed)
        floor = min(
            snap.value["balance"]
            for snap in cluster.committed_snapshots(
                "accounts", "acct:scarce"
            ).values()
        )
        committed_total += committed
        overdrawn_rounds += committed > 4
        worst_floor = min(worst_floor, floor)
    return {
        "committed": committed_total,
        "overdrawn_rounds": overdrawn_rounds,
        "worst_floor": worst_floor,
        "rounds": rounds,
    }


def main() -> None:
    print("=== 1. burst: 25 simultaneous debits of 1, opening balance 8 ===")
    for label, on in (("demarcation ON ", True), ("demarcation OFF", False)):
        r = burst_demo(on)
        print(
            f"  {label}: committed={r['committed']}/{r['balance']} "
            f"lowest replica balance={r['floor']}"
        )
    print(
        "  -> demarcation stops early (slack keeps every interleaving safe);\n"
        "     a classic round then refreshes the base so the rest can sell.\n"
    )

    print(
        "=== 2. Figure 2 live: rounds of 8 simultaneous debits of 1 on "
        "balance 4, jittery links ==="
    )
    for label, on in (("demarcation ON ", True), ("demarcation OFF", False)):
        r = figure2_demo(on)
        verdict = (
            "constraint held in every round"
            if r["overdrawn_rounds"] == 0
            else (
                f"OVERDRAWN in {r['overdrawn_rounds']}/{r['rounds']} rounds "
                f"(worst replica balance {r['worst_floor']})"
            )
        )
        print(f"  {label}: committed={r['committed']:3d} total  -> {verdict}")
    print(
        "\n  -> local escrow alone is unsafe under quorum replication: with\n"
        "     shuffled arrival orders every option can be among the first 4\n"
        "     somewhere, so 5 debits each reach a fast quorum against a\n"
        "     balance of 4 (the paper's Figure 2).  The demarcation limit\n"
        "     L = (N - Q_f)/N * X closes exactly this hole."
    )


if __name__ == "__main__":
    main()
