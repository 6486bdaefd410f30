"""Tests for fast/classic mode policies (§3.3.2 + the §5.3.2 future work)."""

import pytest

from repro.core.config import MDCCConfig
from repro.core.fastpolicy import (
    AdaptiveGammaPolicy,
    StaticGammaPolicy,
    make_policy,
)
from repro.core.options import RecordId

R1 = RecordId("items", "a")
R2 = RecordId("items", "b")


class TestStaticPolicy:
    def test_fixed_horizon(self):
        policy = StaticGammaPolicy(gamma=100)
        assert policy.classic_horizon(R1, "collision", now=0.0) == 100
        assert policy.classic_horizon(R1, "collision", now=1e6) == 100


class TestAdaptivePolicy:
    def test_first_collision_starts_at_minimum(self):
        policy = AdaptiveGammaPolicy(gamma_min=8, gamma_max=64, window_ms=1_000)
        assert policy.classic_horizon(R1, "collision", now=100.0) == 8

    def test_rapid_collisions_double_horizon(self):
        policy = AdaptiveGammaPolicy(gamma_min=8, gamma_max=64, window_ms=1_000)
        horizons = [
            policy.classic_horizon(R1, "collision", now=float(t))
            for t in (0, 100, 200, 300, 400)
        ]
        assert horizons == [8, 16, 32, 64, 64]  # capped at gamma_max

    def test_quiet_gap_resets_horizon(self):
        policy = AdaptiveGammaPolicy(gamma_min=8, gamma_max=64, window_ms=1_000)
        policy.classic_horizon(R1, "collision", now=0.0)
        policy.classic_horizon(R1, "collision", now=100.0)  # 16
        assert policy.classic_horizon(R1, "collision", now=10_000.0) == 8

    def test_records_tracked_independently(self):
        policy = AdaptiveGammaPolicy(gamma_min=8, gamma_max=64, window_ms=1_000)
        policy.classic_horizon(R1, "collision", now=0.0)
        policy.classic_horizon(R1, "collision", now=10.0)
        assert policy.current_horizon(R1) == 16
        assert policy.current_horizon(R2) == 8
        assert policy.classic_horizon(R2, "collision", now=20.0) == 8

    def test_boundary_exactly_at_window_counts_as_contended(self):
        policy = AdaptiveGammaPolicy(gamma_min=4, gamma_max=64, window_ms=1_000)
        policy.classic_horizon(R1, "collision", now=0.0)
        assert policy.classic_horizon(R1, "collision", now=1_000.0) == 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveGammaPolicy(gamma_min=0)
        with pytest.raises(ValueError):
            AdaptiveGammaPolicy(gamma_min=10, gamma_max=5)
        with pytest.raises(ValueError):
            AdaptiveGammaPolicy(window_ms=0)


class TestConfigIntegration:
    def test_make_policy_static_default(self):
        policy = make_policy(MDCCConfig())
        assert isinstance(policy, StaticGammaPolicy)
        assert policy.gamma == 100

    def test_make_policy_adaptive(self):
        policy = make_policy(MDCCConfig(gamma_policy="adaptive"))
        assert isinstance(policy, AdaptiveGammaPolicy)
        assert policy.gamma_min == 8
        assert policy.gamma_max == 1_024
        assert policy.window_ms == 5_000.0

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            MDCCConfig(gamma_policy="oracle")


class TestAdaptiveEndToEnd:
    def test_adaptive_cluster_runs_contended_workload(self):
        """Smoke: the adaptive policy plugs into the full protocol stack
        and keeps its guarantees under contention."""
        from repro.api import ClusterSpec, ScenarioSpec, run_scenario

        result = run_scenario(
            ScenarioSpec(
                cluster=ClusterSpec(seed=33, gamma_policy="adaptive"),
                clients=15,
                items=50,
                warmup_s=2.0,
                measure_s=10.0,
            )
        )
        assert result.commits > 0
        assert result.audit_problems == []
        assert result.constraint_violations == 0
