"""Tests for the multi-device cluster layer (repro.cluster)."""

import math

import numpy as np
import pytest

from repro.cluster import (
    ClusterScorer,
    ClusterSpec,
    InterconnectSpec,
    SimulatedCluster,
    VariedEvaluator,
    build_frequency_tables,
    cached_reclaim,
    device_request_fingerprint,
    reclaim_slack,
    search_cluster_frequencies,
)
from repro.cluster.cli import main as cluster_main
from repro.cluster.spec import DeviceOverride, DeviceVariation
from repro.dvfs.ga import GaConfig
from repro.errors import ConfigurationError, StrategyError
from repro.npu.execution import GroundTruthEvaluator
from repro.serve.store import StrategyStore
from repro.units import gbps_to_bytes_per_us
from repro.workloads import generate


@pytest.fixture(scope="module")
def tiny_trace():
    """A small GPT-3 iteration; cluster runs replay it N times."""
    return generate("gpt3", scale=0.01)


@pytest.fixture(scope="module")
def small_cluster():
    return SimulatedCluster(ClusterSpec(n_devices=4, seed=0))


@pytest.fixture(scope="module")
def small_tables(small_cluster, tiny_trace):
    return build_frequency_tables(small_cluster, tiny_trace)


class TestClusterSpec:
    def test_profiles_are_deterministic(self):
        spec = ClusterSpec(n_devices=8, seed=3)
        assert spec.device_profiles() == spec.device_profiles()
        assert (
            spec.device_profiles()
            == ClusterSpec(n_devices=8, seed=3).device_profiles()
        )

    def test_different_seeds_differ(self):
        a = ClusterSpec(n_devices=8, seed=0).device_profiles()
        b = ClusterSpec(n_devices=8, seed=1).device_profiles()
        assert a != b

    def test_growing_the_cluster_preserves_prefix(self):
        """Profile i depends only on (seed, i): 2 draws per device."""
        small = ClusterSpec(n_devices=4, seed=0).device_profiles()
        grown = ClusterSpec(n_devices=8, seed=0).device_profiles()
        assert grown[:4] == small

    def test_draw_clamps_respected(self):
        variation = DeviceVariation(
            speed_sigma=10.0,
            max_speed_spread=0.05,
            ambient_sigma_celsius=100.0,
            max_ambient_spread_celsius=3.0,
        )
        for profile in ClusterSpec(
            n_devices=32, variation=variation, seed=0
        ).device_profiles():
            assert 0.95 <= profile.duration_scale <= 1.05
            assert -3.0 <= profile.ambient_offset_celsius <= 3.0

    def test_no_variation_means_identical_devices(self):
        profiles = ClusterSpec(
            n_devices=4, variation=DeviceVariation.none(), seed=0
        ).device_profiles()
        assert all(p.duration_scale == 1.0 for p in profiles)
        assert all(p.ambient_offset_celsius == 0.0 for p in profiles)

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(
                n_devices=2, overrides=(DeviceOverride(device_id=5),)
            )

    def test_duplicate_override_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(
                n_devices=4,
                overrides=(
                    DeviceOverride(device_id=1),
                    DeviceOverride(device_id=1),
                ),
            )

    def test_with_degraded_device_replaces_existing_override(self):
        spec = ClusterSpec(n_devices=4).with_degraded_device(2, 1.2)
        spec = spec.with_degraded_device(2, 1.5)
        assert len(spec.overrides) == 1
        assert spec.overrides[0].extra_duration_scale == 1.5
        profile = spec.device_profiles()[2]
        assert profile.degraded
        assert profile.total_duration_scale == pytest.approx(
            profile.duration_scale * 1.5
        )


class TestCollective:
    def test_ring_allreduce_law(self):
        spec = InterconnectSpec(link_bandwidth_gbps=50.0, link_latency_us=12.0)
        payload, n = 64 * 2**20, 8
        expected = (
            2 * (n - 1) / n * payload / gbps_to_bytes_per_us(50.0)
            + 2 * (n - 1) * 12.0
        )
        assert spec.allreduce_us(payload, n) == pytest.approx(expected)

    def test_single_device_is_free(self):
        assert InterconnectSpec().allreduce_us(2**30, 1) == 0.0

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(link_bandwidth_gbps=0.0)


class TestVariedEvaluator:
    def test_scales_duration_only(self, npu_spec, small_bert_trace):
        inner = GroundTruthEvaluator(npu_spec)
        varied = VariedEvaluator(inner, 1.07)
        spec = small_bert_trace.entries[0].spec
        base = inner.evaluate(spec, 1800.0)
        scaled = varied.evaluate(spec, 1800.0)
        assert scaled.duration_us == pytest.approx(base.duration_us * 1.07)
        assert varied.soc_power(base, 5.0) == inner.soc_power(base, 5.0)
        assert varied.idle_soc_power(1800.0, 0.0) == inner.idle_soc_power(
            1800.0, 0.0
        )


class TestBarrierSemantics:
    def test_step_is_straggler_plus_allreduce(
        self, small_cluster, tiny_trace
    ):
        result = small_cluster.run_step(tiny_trace)
        arrivals = [d.compute_us for d in result.devices]
        assert result.compute_us == max(arrivals)
        assert result.straggler_id == arrivals.index(max(arrivals))
        assert result.step_us == pytest.approx(
            max(arrivals) + small_cluster.spec.allreduce_us
        )

    def test_straggler_never_waits(self, small_cluster, tiny_trace):
        result = small_cluster.run_step(tiny_trace)
        straggler = result.devices[result.straggler_id]
        assert straggler.wait_us == 0.0
        for outcome in result.devices:
            assert outcome.wait_us == pytest.approx(
                result.compute_us - outcome.compute_us
            )

    def test_barrier_wait_costs_energy(self, small_cluster, tiny_trace):
        result = small_cluster.run_step(tiny_trace)
        for outcome in result.devices:
            assert outcome.idle_soc_energy_j > 0.0
            assert (
                outcome.total_soc_energy_j
                > outcome.soc_energy_j
            )

    def test_strategy_count_mismatch_rejected(
        self, small_cluster, tiny_trace, small_tables
    ):
        plan = reclaim_slack(small_tables, tiny_trace.name)
        with pytest.raises(ConfigurationError):
            small_cluster.run_step(tiny_trace, plan.strategies[:2])


class TestSlackReclamation:
    def test_zero_regression_and_energy_savings(
        self, small_cluster, tiny_trace, small_tables
    ):
        spec = small_cluster.spec
        baseline = small_cluster.run_step(tiny_trace)
        plan = reclaim_slack(
            small_tables, tiny_trace.name, allreduce_us=spec.allreduce_us
        )
        reclaimed = small_cluster.run_step(
            tiny_trace,
            plan.strategies,
            target_compute_us=plan.target_compute_us,
        )
        report = reclaimed.report(baseline)
        assert report.step_time_regression <= 0.005
        assert report.soc_energy_savings > 0.0
        assert reclaimed.incidents == ()

    def test_straggler_keeps_max_frequency(self, small_tables, tiny_trace):
        plan = reclaim_slack(small_tables, tiny_trace.name)
        grid_max = small_tables[0].freqs_mhz[-1]
        assert plan.frequencies_mhz[plan.straggler_id] == grid_max
        assert min(plan.frequencies_mhz) < grid_max

    def test_slack_margin_downclocks_deeper(self, small_tables, tiny_trace):
        tight = reclaim_slack(small_tables, tiny_trace.name)
        loose = reclaim_slack(
            small_tables, tiny_trace.name, slack_margin=0.05
        )
        assert sum(loose.frequencies_mhz) <= sum(tight.frequencies_mhz)
        assert loose.target_compute_us > tight.target_compute_us

    def test_infeasible_barrier_raises(self, small_tables):
        with pytest.raises(StrategyError):
            small_tables[0].lowest_index_meeting(1.0)


class TestClusterScorer:
    def test_baseline_individual_scores_two(self, small_cluster, small_tables):
        scorer = ClusterScorer(
            small_tables, small_cluster.spec.allreduce_us
        )
        baseline = np.full(
            (1, scorer.stage_count), scorer.frequency_count - 1
        )
        assert scorer.score(baseline)[0] == pytest.approx(2.0)

    def test_ga_never_loses_to_uniform_max(
        self, small_cluster, small_tables, tiny_trace
    ):
        plan, result, breakdown = search_cluster_frequencies(
            small_tables,
            tiny_trace.name,
            allreduce_us=small_cluster.spec.allreduce_us,
            config=GaConfig(population_size=16, iterations=20, seed=0),
        )
        scorer = ClusterScorer(
            small_tables, small_cluster.spec.allreduce_us
        )
        assert breakdown.feasible
        assert result.best_score >= 2.0
        assert breakdown.fleet_soc_energy_j <= scorer.baseline_energy_j


class TestDeterminismAndCaching:
    def test_tables_identical_across_worker_counts(
        self, small_cluster, tiny_trace, small_tables
    ):
        pooled = build_frequency_tables(
            small_cluster, tiny_trace, workers=2
        )
        assert pooled == small_tables

    def test_cached_reclaim_round_trip(
        self, small_cluster, tiny_trace, small_tables, tmp_path
    ):
        store = StrategyStore(tmp_path)
        cold = cached_reclaim(small_cluster, tiny_trace, store)
        warm = cached_reclaim(small_cluster, tiny_trace, store)
        assert cold.computed and cold.hit_count == 0
        assert not warm.computed
        assert warm.hit_count == small_cluster.spec.n_devices
        direct = reclaim_slack(
            small_tables,
            tiny_trace.name,
            allreduce_us=small_cluster.spec.allreduce_us,
        )
        assert warm.strategy.strategy_json() == direct.strategy_json()

    def test_degraded_device_changes_only_its_fingerprint(
        self, small_cluster, tiny_trace
    ):
        spec = small_cluster.spec
        degraded = spec.with_degraded_device(1, 1.3)
        healthy = {
            p.device_id: device_request_fingerprint(tiny_trace, spec, p)
            for p in spec.device_profiles()
        }
        after = {
            p.device_id: device_request_fingerprint(tiny_trace, degraded, p)
            for p in degraded.device_profiles()
        }
        assert healthy[1] != after[1]
        for device_id in (0, 2, 3):
            # Same profile hash; only the shared config hash differs via
            # nothing — overrides are not part of the config hash.
            assert healthy[device_id] == after[device_id]


class TestFaultStory:
    def test_degradation_retargets_and_logs(self, tiny_trace):
        spec = ClusterSpec(n_devices=4, seed=0)
        cluster = SimulatedCluster(spec)
        plan = reclaim_slack(
            build_frequency_tables(cluster, tiny_trace),
            tiny_trace.name,
            allreduce_us=spec.allreduce_us,
        )
        baseline = cluster.run_step(tiny_trace)
        victim = (baseline.straggler_id + 1) % spec.n_devices
        degraded = SimulatedCluster(
            spec.with_degraded_device(victim, 1.4, reason="test")
        )
        stale = degraded.run_step(
            tiny_trace,
            plan.strategies,
            target_compute_us=plan.target_compute_us,
        )
        overruns = [
            i for i in stale.incidents if i.kind == "barrier_overrun"
        ]
        assert overruns
        assert any(f"device {victim} " in i.detail for i in overruns)
        assert len(degraded.incident_log) >= len(overruns)
        events = degraded.devices[victim].injector.events
        assert any(e.kind == "degraded" for e in events)
        new_plan = reclaim_slack(
            build_frequency_tables(degraded, tiny_trace),
            tiny_trace.name,
            allreduce_us=spec.allreduce_us,
        )
        assert new_plan.straggler_id == victim
        retargeted = degraded.run_step(
            tiny_trace,
            new_plan.strategies,
            target_compute_us=new_plan.target_compute_us,
        )
        assert retargeted.incidents == ()


class TestWiring:
    def test_cluster_result_render(self, small_cluster, tiny_trace):
        baseline = small_cluster.run_step(tiny_trace)
        report = small_cluster.run_step(tiny_trace).report(baseline)
        text = report.render()
        assert small_cluster.spec.name in text
        assert tiny_trace.name in text
        assert "straggler" in text
        assert math.isclose(report.step_time_regression, 0.0, abs_tol=1e-9)

    def test_cli_smoke(self, capsys):
        exit_code = cluster_main(
            ["gpt3", "--scale", "0.005", "--devices", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "slack reclamation" in out

    def test_cli_unknown_workload_fails_cleanly(self, capsys):
        exit_code = cluster_main(["nonsense", "--devices", "2"])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err
