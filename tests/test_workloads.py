"""Tests for the workload generators (micro + TPC-W) and client pool."""

import pytest

from repro.db.cluster import ClusterSpec, build_cluster
from repro.workloads.generator import ClientPool, WorkloadStats
from repro.workloads.micro import MicroBenchmark
from repro.workloads.tpcw import TPCW_MIX, TPCWBenchmark, WRITE_INTERACTIONS


class TestMicroConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBenchmark(num_items=2, items_per_tx=3)
        with pytest.raises(ValueError):
            MicroBenchmark(hotspot_fraction=0.0)
        with pytest.raises(ValueError):
            MicroBenchmark(hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            MicroBenchmark(locality=-0.1)

    def test_populate_loads_items(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=41))
        bench = MicroBenchmark(num_items=20)
        bench.populate(cluster)
        snap = cluster.read_committed("items", "item:000000")
        assert snap.exists
        assert 10 <= snap.value["stock"] <= 30

    def test_hotspot_selection_is_skewed(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=42))
        bench = MicroBenchmark(num_items=1000, hotspot_fraction=0.02)
        bench.populate(cluster)
        rng = cluster.rng.stream("test.pick")
        hot_count = max(1, int(1000 * 0.02))
        hits = sum(
            1
            for _ in range(2000)
            if int(bench._pick_one(rng, "us-west").split(":")[1]) < hot_count
        )
        # 90% of accesses should land in the hot set.
        assert 0.85 <= hits / 2000 <= 0.95

    def test_uniform_selection_without_hotspot(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=43))
        bench = MicroBenchmark(num_items=100)
        bench.populate(cluster)
        rng = cluster.rng.stream("test.pick")
        seen = {bench._pick_one(rng, "us-west") for _ in range(2000)}
        assert len(seen) > 80  # nearly all items touched

    def test_locality_selection_prefers_local_masters(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=44))
        bench = MicroBenchmark(num_items=500, locality=1.0)
        bench.populate(cluster)
        rng = cluster.rng.stream("test.pick")
        from repro.core.options import RecordId

        for _ in range(100):
            key = bench._pick_one(rng, "us-west")
            assert cluster.placement.master_dc(RecordId("items", key)) == "us-west"

    def test_distinct_items_per_transaction(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=45))
        bench = MicroBenchmark(num_items=10)
        bench.populate(cluster)
        rng = cluster.rng.stream("test.pick")
        for _ in range(50):
            keys = bench._pick_keys(rng, "us-west")
            assert len(keys) == len(set(keys)) == 3


class TestMicroRun:
    def test_short_run_produces_stats(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=46))
        bench = MicroBenchmark(num_items=200, min_stock=500, max_stock=1000)
        stats, pool = bench.run(
            cluster, num_clients=10, warmup_ms=2_000, measure_ms=8_000
        )
        assert stats.commits > 0
        assert len(stats.write_latencies) == stats.commits
        assert stats.throughput_tps() > 0
        assert bench.audit(cluster) == []

    def test_stress_audit_all_variants(self):
        """Regression for three protocol bugs found during development:
        non-incremental adoption, live-option pruning, poisoned catch-up.
        High contention (20 clients on 50 items) must yield a clean
        lost-update audit and converged replicas for every variant."""
        from repro.db.checkers import check_replica_convergence

        for protocol in ("mdcc", "fast", "multi"):
            cluster = build_cluster(ClusterSpec(protocol=protocol, partitions_per_table=1, seed=47))
            bench = MicroBenchmark(num_items=50, min_stock=1000, max_stock=2000)
            stats, pool = bench.run(
                cluster, num_clients=20, warmup_ms=1_000, measure_ms=8_000
            )
            pool.drain(30_000)
            assert bench.audit(cluster) == [], protocol
            assert check_replica_convergence(cluster, "items", bench.keys) == [], protocol
            assert stats.commits > 0, protocol

    def test_commutative_beats_physical_under_contention(self):
        """The paper's core claim at workload level: on a hot table,
        commutative MDCC commits far more than Fast (physical writes)."""
        results = {}
        for protocol in ("mdcc", "fast"):
            cluster = build_cluster(ClusterSpec(protocol=protocol, partitions_per_table=1, seed=48))
            bench = MicroBenchmark(num_items=50, min_stock=5000, max_stock=9000)
            stats, _pool = bench.run(
                cluster, num_clients=15, warmup_ms=1_000, measure_ms=8_000
            )
            results[protocol] = stats.commits
        assert results["mdcc"] > 2 * results["fast"]


class TestTPCW:
    def test_mix_sums_to_one(self):
        total = sum(TPCW_MIX.values())
        assert total == pytest.approx(100.0, abs=0.5)

    def test_fourteen_interactions(self):
        assert len(TPCW_MIX) == 14
        assert WRITE_INTERACTIONS <= set(TPCW_MIX)

    def test_interaction_selection_follows_mix(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=49))
        bench = TPCWBenchmark(num_items=100)
        rng = cluster.rng.stream("test.mix")
        counts = {}
        for _ in range(5000):
            name = bench.pick_interaction(rng)
            counts[name] = counts.get(name, 0) + 1
        # The two most frequent interactions of the ordering mix.
        assert counts["search_request"] > counts["buy_confirm"]
        assert counts["shopping_cart"] > counts["best_sellers"]

    def test_populate_creates_items_and_customers(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=50))
        bench = TPCWBenchmark(num_items=50)
        bench.populate(cluster)
        item = cluster.read_committed("item", "item:000000")
        assert item.exists and 10 <= item.value["i_stock"] <= 30
        customer = cluster.read_committed("customer", "cust:000000")
        assert customer.exists

    def test_every_interaction_runs(self):
        """Each of the 14 WIs executes end-to-end without error."""
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=51))
        bench = TPCWBenchmark(num_items=50)
        bench.populate(cluster)
        client = cluster.add_client("us-west")
        rng = cluster.rng.stream("test.wi")
        from repro.workloads.tpcw import _Session

        for name in sorted(TPCW_MIX):
            session = _Session(client.node_id)
            handler = getattr(bench, f"_wi_{name}")

            def run_one():
                result = yield from handler(cluster, client, session, rng)
                return result

            process = cluster.sim.spawn(run_one())
            committed, is_write = cluster.sim.run_until(
                process.completion, limit=cluster.sim.now + 300_000
            )
            assert isinstance(committed, bool), name
            if is_write:
                # Writes only come from the five write interactions (a
                # write WI may degrade to read-only, e.g. empty cart).
                assert name in WRITE_INTERACTIONS, name

    def test_short_tpcw_run(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=52))
        bench = TPCWBenchmark(num_items=200, min_stock=1000, max_stock=2000)
        stats, pool = bench.run(
            cluster, num_clients=10, warmup_ms=2_000, measure_ms=10_000
        )
        assert stats.commits > 0
        assert stats.counters.get("read_commits") > 0
        # Write latencies exist and the audit is clean.
        assert len(stats.write_latencies) > 0
        assert bench.ledger.audit(cluster) == []

    def test_buy_confirm_respects_stock(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=53))
        bench = TPCWBenchmark(num_items=30, min_stock=1, max_stock=2)
        stats, pool = bench.run(
            cluster, num_clients=10, warmup_ms=1_000, measure_ms=10_000
        )
        pool.drain(30_000)
        from repro.db.checkers import check_constraints

        assert check_constraints(cluster, "item", bench.item_keys) == []


class TestClientPool:
    def test_closed_loop_counts_only_measurement_window(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=54))
        bench = MicroBenchmark(num_items=100, min_stock=500, max_stock=900)
        bench.populate(cluster)

        pool = ClientPool(
            cluster, num_clients=5, transaction_factory=bench.transaction(cluster)
        )
        stats = pool.run(warmup_ms=5_000, measure_ms=5_000)
        # Rough sanity: a ~200ms transaction loop yields ~25 tx per client
        # per 5s; warm-up transactions must not be counted.
        per_client = stats.commits / 5
        assert 5 <= per_client <= 40

    def test_stats_latency_series_populated(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=55))
        bench = MicroBenchmark(num_items=100, min_stock=500, max_stock=900)
        bench.populate(cluster)
        pool = ClientPool(
            cluster, num_clients=3, transaction_factory=bench.transaction(cluster)
        )
        stats = pool.run(warmup_ms=1_000, measure_ms=5_000)
        assert len(stats.latency_series) == stats.commits

    def test_client_dcs_override(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=56))
        bench = MicroBenchmark(num_items=50)
        bench.populate(cluster)
        pool = ClientPool(
            cluster,
            num_clients=4,
            transaction_factory=bench.transaction(cluster),
            client_dcs=["us-west"],
        )
        assert all(c.dc == "us-west" for c in pool.clients)

    def test_throughput_requires_window(self):
        stats = WorkloadStats()
        with pytest.raises(ValueError):
            stats.throughput_tps()


class TestGeoShift:
    def test_sun_rotates_in_order(self):
        from repro.workloads.geoshift import GeoShiftBenchmark

        bench = GeoShiftBenchmark(
            num_items=10, phase_ms=1_000.0, rotation=("a", "b", "c")
        )
        assert bench.active_dc(0.0) == "a"
        assert bench.active_dc(999.9) == "a"
        assert bench.active_dc(1_000.0) == "b"
        assert bench.active_dc(2_500.0) == "c"
        assert bench.active_dc(3_000.0) == "a"  # wraps around

    def test_admission_gates_offpeak_clients(self):
        from repro.workloads.geoshift import GeoShiftBenchmark

        bench = GeoShiftBenchmark(
            num_items=10,
            phase_ms=1_000.0,
            rotation=("a", "b"),
            offpeak_activity=0.0,
            offpeak_pause_ms=250.0,
        )

        class FakeClient:
            dc = "a"

        class NeverRandom:
            @staticmethod
            def random():
                return 1.0

        assert bench.admission(FakeClient, NeverRandom, now=0.0) == 0
        assert bench.admission(FakeClient, NeverRandom, now=1_500.0) == 250.0

    def test_run_commits_and_audits_clean(self):
        from repro.workloads.geoshift import GeoShiftBenchmark

        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=9))
        bench = GeoShiftBenchmark(num_items=60, phase_ms=2_000.0)
        stats, _pool = bench.run(
            cluster, num_clients=10, warmup_ms=1_000, measure_ms=6_000
        )
        assert stats.commits > 0
        assert bench.audit(cluster) == []

    def test_validates_parameters(self):
        from repro.workloads.geoshift import GeoShiftBenchmark

        with pytest.raises(ValueError):
            GeoShiftBenchmark(num_items=2, items_per_tx=3)
        with pytest.raises(ValueError):
            GeoShiftBenchmark(phase_ms=0)
        with pytest.raises(ValueError):
            GeoShiftBenchmark(offpeak_activity=1.5)
