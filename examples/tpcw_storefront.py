#!/usr/bin/env python
"""A TPC-W storefront across five data centers, protocol by protocol.

Runs the paper's evaluation workload (§5.2) — the database part of TPC-W's
14 web interactions under the write-heavy ordering mix — against three
deployments of the same store:

* **MDCC**   — strongly consistent, one wide-area round trip,
* **2PC**    — strongly consistent, two round trips to all replicas,
* **QW-4**   — eventually consistent quorum writes (no transactions).

and prints the Figure-3-style latency comparison plus the per-interaction
commit mix.  QW-4's speed comes at a price the audit makes visible: without
transactions the stock constraint can be violated.

Run it (about a minute of host time):

    python examples/tpcw_storefront.py
"""

from repro.api import ClusterSpec, ScenarioSpec, run_scenario

PROTOCOLS = ("mdcc", "2pc", "qw4")


def main() -> None:
    results = {}
    for protocol in PROTOCOLS:
        results[protocol] = run_scenario(
            ScenarioSpec(
                cluster=ClusterSpec(protocol=protocol, seed=11),
                workload="tpcw",
                clients=25,
                items=1_000,
                warmup_s=5.0,
                measure_s=30.0,
            )
        )

    print("=== write-transaction response times (simulated ms) ===")
    print(f"{'protocol':>10} {'median':>8} {'p90':>8} {'p99':>8} "
          f"{'commits':>8} {'aborts':>7} {'tps':>7}")
    for protocol in PROTOCOLS:
        r = results[protocol]
        print(
            f"{protocol:>10} {r.median_ms:8.1f} {r.p90_ms:8.1f} {r.p99_ms:8.1f} "
            f"{r.commits:8d} {r.aborts:7d} {r.throughput_tps:7.1f}"
        )

    print("\n=== consistency audit (stock >= 0, no lost updates) ===")
    for protocol in PROTOCOLS:
        r = results[protocol]
        ok = not r.audit_problems and r.constraint_violations == 0
        verdict = "clean" if ok else (
            f"{len(r.audit_problems)} lost-update problem(s), "
            f"{r.constraint_violations} constraint violation(s)"
        )
        print(f"{protocol:>10}: {verdict}")

    print("\n=== MDCC per-interaction commits (write interactions) ===")
    mdcc = results["mdcc"]
    for name in sorted(mdcc.stats.counters.as_dict()):
        if name.startswith("wi.") and name.endswith(".commits"):
            interaction = name[3:-8]
            commits = mdcc.stats.counters.get(name)
            aborts = mdcc.stats.counters.get(f"wi.{interaction}.aborts")
            print(f"{interaction:>24}: {commits:6d} committed, {aborts:4d} aborted")

    mdcc_median = results["mdcc"].median_ms
    twopc_median = results["2pc"].median_ms
    print(
        f"\nMDCC median is {twopc_median / mdcc_median:.1f}x faster than 2PC "
        "(the paper reports >= 2x: one round trip instead of two, quorum "
        "instead of all-replica waits)."
    )


if __name__ == "__main__":
    main()
