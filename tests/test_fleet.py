"""Tests for the vectorized fleet layer (repro.fleet).

The numerical ground truth (fleet vs looped cluster at N <= 16) lives
in ``tests/test_fleet_equivalence.py``; this module covers the fleet's
own machinery: the hierarchical collective properties, seeded churn
determinism, the vectorized reclamation pass, the store round-trip,
the straggler top-k reporting and the CLI.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    InterconnectSpec,
    SimulatedCluster,
    build_frequency_tables,
    reclaim_slack,
)
from repro.cluster.serve import fleet_cached_reclaim, fleet_config_hash
from repro.cluster.spec import ClusterSpec, DeviceOverride
from repro.errors import ConfigurationError
from repro.npu.faults import FaultConfig
from repro.fleet import (
    ChurnConfig,
    FleetSimulator,
    FleetSpec,
    FleetTopology,
    auto_retarget,
    descending_top_k,
    draw_churn,
    plan_strategy_json,
    reclaim_fleet_slack,
    straggler_summary,
)
from repro.fleet.cli import main as fleet_main
from repro.fleet.reference import compare_with_cluster
from repro.serve.store import StrategyStore
from repro.workloads import generate


@pytest.fixture(scope="module")
def tiny_trace():
    """A small GPT-3 iteration; fleet steps replay it N times."""
    return generate("gpt3", scale=0.01)


@pytest.fixture(scope="module")
def small_fleet(tiny_trace):
    return FleetSimulator(FleetSpec(n_devices=8, seed=0), tiny_trace)


class TestTopology:
    def test_rack_sizes_chunk_in_id_order(self):
        topology = FleetTopology(devices_per_rack=4)
        assert topology.rack_sizes(10) == (4, 4, 2)
        assert topology.rack_sizes(4) == (4,)
        assert topology.rack_sizes(0) == ()

    def test_rejects_empty_racks(self):
        with pytest.raises(ConfigurationError):
            FleetTopology(devices_per_rack=0)

    def test_single_rack_degenerates_to_ring_law(self):
        topology = FleetTopology(devices_per_rack=16)
        payload = 64 * 2**20
        cost = topology.breakdown(payload, topology.rack_sizes(16))
        ring = topology.intra.allreduce_us(payload, 16)
        assert cost.hierarchical_us == ring
        assert cost.chosen_us == ring

    def test_one_device_is_free(self):
        topology = FleetTopology()
        assert topology.allreduce_us(64 * 2**20, (1,)) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        devices=st.integers(min_value=2, max_value=4096),
        per_rack=st.integers(min_value=1, max_value=64),
        payload_mb=st.floats(min_value=0.1, max_value=1024.0),
        intra_gbps=st.floats(min_value=1.0, max_value=400.0),
        inter_gbps=st.floats(min_value=0.5, max_value=400.0),
        intra_lat=st.floats(min_value=0.0, max_value=100.0),
        inter_lat=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_never_slower_than_flat_ring(
        self,
        devices,
        per_rack,
        payload_mb,
        intra_gbps,
        inter_gbps,
        intra_lat,
        inter_lat,
    ):
        """Algorithm selection: the chosen schedule never loses to the
        flat ring over inter-rack-grade links, at any topology shape."""
        topology = FleetTopology(
            devices_per_rack=per_rack,
            intra=InterconnectSpec(
                link_bandwidth_gbps=intra_gbps, link_latency_us=intra_lat
            ),
            inter=InterconnectSpec(
                link_bandwidth_gbps=inter_gbps, link_latency_us=inter_lat
            ),
        )
        cost = topology.breakdown(
            payload_mb * 2**20, topology.rack_sizes(devices)
        )
        assert cost.chosen_us <= cost.flat_ring_us

    def test_hierarchical_wins_at_default_grades(self):
        """With fast intra links and a slow inter fabric, the tree beats
        the flat ring once the fleet spans multiple racks."""
        topology = FleetTopology()
        payload = 64 * 2**20
        cost = topology.breakdown(payload, topology.rack_sizes(512))
        assert cost.algorithm == "hierarchical"
        assert cost.hierarchical_us < cost.flat_ring_us

    def test_tree_hops_grow_logarithmically(self):
        topology = FleetTopology(devices_per_rack=16)
        payload = 64 * 2**20
        costs = [
            topology.breakdown(
                payload, topology.rack_sizes(16 * racks)
            ).hierarchical_us
            for racks in (2, 4, 8, 16)
        ]
        intra = topology.intra.allreduce_us(payload, 16)
        tree = [c - intra for c in costs]
        # Doubling the rack count adds one reduce + one broadcast hop.
        steps = [tree[i + 1] - tree[i] for i in range(len(tree) - 1)]
        assert all(math.isclose(s, steps[0]) for s in steps)


class TestFleetSpec:
    def test_capacity_includes_spares(self):
        spec = FleetSpec(n_devices=8, churn=ChurnConfig(max_joins=4))
        assert spec.capacity == 12
        assert len(spec.device_profiles()) == 12

    def test_spares_never_perturb_the_initial_fleet(self):
        base = FleetSpec(n_devices=8, seed=3).device_profiles()
        spare = FleetSpec(
            n_devices=8, seed=3, churn=ChurnConfig(max_joins=4)
        ).device_profiles()
        assert spare[:8] == base

    def test_profiles_match_the_cluster_reference(self):
        fleet = FleetSpec(n_devices=8, seed=5)
        cluster = ClusterSpec(n_devices=8, seed=5)
        assert fleet.device_profiles()[:8] == cluster.device_profiles()

    def test_from_cluster_round_trip(self):
        cluster = ClusterSpec(n_devices=4, seed=7)
        fleet = FleetSpec.from_cluster(cluster)
        assert fleet.cluster_spec() == cluster

    def test_rejects_min_active_beyond_fleet(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(n_devices=2, churn=ChurnConfig(min_active=3))

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(n_devices=0)

    def test_rejects_fault_overrides_the_fleet_ignores(self):
        healthy = DeviceOverride(
            device_id=1, extra_duration_scale=1.2, fault=FaultConfig.none()
        )
        FleetSpec(n_devices=4, overrides=(healthy,))
        faulty = replace(healthy, fault=FaultConfig(setfreq_drop_rate=0.5))
        with pytest.raises(ConfigurationError, match="device 1"):
            FleetSpec(n_devices=4, overrides=(faulty,))


class TestDurationTable:
    def test_bitwise_against_looped_probes(self, tiny_trace):
        """The stacked duration table is the per-device probe loop."""
        spec = FleetSpec(n_devices=4, seed=0)
        sim = FleetSimulator(spec, tiny_trace)
        table = sim.duration_table()
        cluster = SimulatedCluster(spec.cluster_spec())
        tables = build_frequency_tables(cluster, tiny_trace)
        for i, device in enumerate(tables):
            for j in range(len(device.freqs_mhz)):
                assert table[i, j] == device.duration_us[j]

    def test_durations_built_once_and_solutions_only_when_used(
        self, tiny_trace, monkeypatch
    ):
        """Regression for two cost traps: a reclaim that recomputed the
        duration table on every call, and a reclaim that built a full
        affine solution for every grid frequency."""
        import repro.fleet.simulator as fleet_simulator

        durations_calls = []
        solution_freqs = []
        real_durations = fleet_simulator.batched_const_durations
        real_solutions = fleet_simulator.batched_const_solutions

        def counted_durations(compiled, freq_mhz, *args):
            durations_calls.append(freq_mhz)
            return real_durations(compiled, freq_mhz, *args)

        def counted_solutions(compiled, freq_mhz, *args):
            solution_freqs.append(freq_mhz)
            return real_solutions(compiled, freq_mhz, *args)

        monkeypatch.setattr(
            fleet_simulator, "batched_const_durations", counted_durations
        )
        monkeypatch.setattr(
            fleet_simulator, "batched_const_solutions", counted_solutions
        )
        sim = FleetSimulator(FleetSpec(n_devices=8, seed=0), tiny_trace)
        plan = reclaim_fleet_slack(sim)
        assert durations_calls
        assert solution_freqs == []  # the first reclaim builds none
        built = len(durations_calls)
        reclaim_fleet_slack(sim)
        assert len(durations_calls) == built  # the second computes nothing
        sim.step(plan, target_compute_us=plan.target_compute_us)
        used = set(np.unique(plan.freq_mhz[plan.covered]).tolist())
        assert sorted(solution_freqs) == sorted(used)
        table = sim.duration_table()
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


class TestChurn:
    def test_draws_are_deterministic(self):
        config = ChurnConfig(join_rate=1.0, leave_rate=1.0, fail_rate=0.5)
        assert draw_churn(config, 0, 3) == draw_churn(config, 0, 3)

    def test_steps_draw_independent_streams(self):
        config = ChurnConfig(join_rate=5.0, leave_rate=5.0, fail_rate=5.0)
        draws = {draw_churn(config, 0, step) for step in range(8)}
        assert len(draws) > 1

    def test_no_rates_no_draws(self):
        draw = draw_churn(ChurnConfig.none(), 0, 1)
        assert (draw.joins, draw.leaves, draw.fails) == (0, 0, 0)

    def test_replay_identical(self, tiny_trace):
        spec = FleetSpec(
            n_devices=8,
            seed=2,
            churn=ChurnConfig(
                join_rate=1.0, leave_rate=1.0, fail_rate=0.5, max_joins=4
            ),
        )

        def run():
            sim = FleetSimulator(spec, tiny_trace)
            results = sim.run_steps(None, steps=4)
            return (
                sim.events,
                tuple(r.fleet_soc_energy_j for r in results),
                tuple(tuple(r.device_ids) for r in results),
            )

        assert run() == run()

    def test_min_active_floor_holds(self, tiny_trace):
        spec = FleetSpec(
            n_devices=2,
            seed=0,
            churn=ChurnConfig(leave_rate=10.0, min_active=2),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=4)
        assert sim.n_active == 2
        assert all(e.kind == "churn_skipped" for e in sim.events)

    def test_join_exhaustion_is_logged(self, tiny_trace):
        spec = FleetSpec(
            n_devices=2,
            seed=0,
            churn=ChurnConfig(join_rate=10.0, max_joins=1),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=3)
        kinds = [e.kind for e in sim.events]
        assert kinds.count("join") == 1
        assert "join_exhausted" in kinds
        assert sim.n_active == 3

    def test_joined_board_starts_at_its_own_ambient(self, tiny_trace):
        spec = FleetSpec(
            n_devices=2,
            seed=0,
            churn=ChurnConfig(join_rate=10.0, max_joins=1),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.step()  # warms devices 0 and 1 above ambient
        events = sim.advance_churn(1)
        joined = [e.device_id for e in events if e.kind == "join"]
        assert joined == [2]
        base = spec.npu.thermal.ambient_celsius
        profile = spec.device_profiles()[2]
        assert sim.celsius[2] == base + profile.ambient_offset_celsius

    def test_reset_restores_initial_membership(self, tiny_trace):
        spec = FleetSpec(
            n_devices=4,
            seed=1,
            churn=ChurnConfig(leave_rate=5.0, min_active=1),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=3)
        sim.reset()
        fresh = FleetSimulator(spec, tiny_trace)
        assert sim.n_active == 4
        assert sim.events == ()
        assert np.array_equal(sim.celsius, fresh.celsius)
        assert np.array_equal(sim.active_ids, fresh.active_ids)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(join_rate=-1.0)
        with pytest.raises(ConfigurationError):
            ChurnConfig(min_active=0)


class TestReclaim:
    def test_matches_the_looped_cluster_plan(self, small_fleet, tiny_trace):
        spec = small_fleet.spec
        cluster = SimulatedCluster(spec.cluster_spec())
        tables = build_frequency_tables(cluster, tiny_trace)
        reference = reclaim_slack(
            tables, tiny_trace.name, allreduce_us=cluster.spec.allreduce_us
        )
        plan = reclaim_fleet_slack(small_fleet)
        assert plan.target_compute_us == reference.target_compute_us
        assert plan.straggler_id == reference.straggler_id
        assert (
            tuple(plan.freq_mhz[: spec.n_devices])
            == reference.frequencies_mhz
        )
        assert plan_strategy_json(plan) == reference.strategy_json()

    def test_straggler_keeps_max_frequency(self, small_fleet):
        plan = reclaim_fleet_slack(small_fleet)
        grid_max = small_fleet.spec.npu.frequencies.points[-1]
        assert plan.freq_mhz[plan.straggler_id] == grid_max

    def test_some_device_downclocks(self, small_fleet):
        plan = reclaim_fleet_slack(small_fleet)
        grid_max = small_fleet.spec.npu.frequencies.points[-1]
        covered = plan.freq_mhz[plan.covered]
        assert (covered < grid_max).any()

    def test_rejects_negative_margin(self, small_fleet):
        with pytest.raises(ConfigurationError):
            reclaim_fleet_slack(small_fleet, slack_margin=-0.1)

    def test_replan_covers_only_survivors(self, tiny_trace):
        spec = FleetSpec(
            n_devices=8,
            seed=0,
            churn=ChurnConfig(fail_rate=2.0, min_active=2),
        )
        sim = FleetSimulator(spec, tiny_trace)
        sim.run_steps(None, steps=3, replan=auto_retarget())
        failed = {e.device_id for e in sim.events if e.kind == "fail"}
        assert failed  # seed 0 does fail someone in three steps
        plan = reclaim_fleet_slack(sim)
        assert not any(plan.covered[list(failed)])
        assert plan.n_devices == sim.n_active

    def test_reclaimed_step_saves_energy_at_same_step_time(
        self, small_fleet
    ):
        small_fleet.reset()
        baseline = small_fleet.step()
        small_fleet.reset()
        plan = reclaim_fleet_slack(small_fleet)
        reclaimed = small_fleet.step(
            plan, target_compute_us=plan.target_compute_us
        )
        assert reclaimed.step_us == baseline.step_us
        assert reclaimed.fleet_soc_energy_j < baseline.fleet_soc_energy_j
        assert reclaimed.overrun_count == 0

    def test_stale_plan_overruns_after_degradation(self, tiny_trace):
        spec = FleetSpec(n_devices=8, seed=0)
        plan = reclaim_fleet_slack(FleetSimulator(spec, tiny_trace))
        victim = (plan.straggler_id + 1) % 8
        degraded = FleetSimulator(
            spec.with_degraded_device(victim, 1.3), tiny_trace
        )
        stale = degraded.step(
            plan, target_compute_us=plan.target_compute_us
        )
        assert stale.overrun_count >= 1
        assert victim in stale.overrun_device_ids
        retargeted = reclaim_fleet_slack(degraded)
        assert retargeted.straggler_id == victim
        fresh = degraded.step(
            retargeted, target_compute_us=retargeted.target_compute_us
        )
        assert fresh.overrun_count == 0


class TestStore:
    def test_cold_then_warm_is_byte_identical(self, tmp_path, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=4, seed=0), tiny_trace)
        store = StrategyStore(tmp_path)
        cold = fleet_cached_reclaim(sim, store)
        warm = fleet_cached_reclaim(sim, store)
        assert cold.computed and not warm.computed
        assert cold.hit_count == 0 and warm.hit_count == 4
        assert plan_strategy_json(cold.plan) == plan_strategy_json(warm.plan)
        assert cold.plan.target_compute_us == warm.plan.target_compute_us
        assert np.array_equal(cold.plan.freq_index, warm.plan.freq_index)

    def test_membership_change_invalidates_the_cache(
        self, tmp_path, tiny_trace
    ):
        spec = FleetSpec(
            n_devices=4, seed=0, churn=ChurnConfig(leave_rate=10.0)
        )
        sim = FleetSimulator(spec, tiny_trace)
        store = StrategyStore(tmp_path)
        before = tuple(int(i) for i in sim.active_ids)
        fleet_cached_reclaim(sim, store)
        sim.advance_churn(1)
        after = tuple(int(i) for i in sim.active_ids)
        assert after != before
        again = fleet_cached_reclaim(sim, store)
        assert again.computed
        assert fleet_config_hash(spec, before) != fleet_config_hash(
            spec, after
        )


class TestReporting:
    def test_top_k_rows_plus_remainder(self, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=32, seed=0), tiny_trace)
        result = sim.step()
        rows = result.device_rows(top_k=8)
        assert len(rows) == 9
        assert rows[0]["device"] == result.straggler_id
        assert rows[0]["straggler"] == "*"
        assert rows[-1]["device"] == "(+24 faster)"
        total = sum(r["soc_j"] for r in rows)
        assert total == pytest.approx(result.fleet_soc_energy_j, abs=0.5)

    def test_small_fleet_needs_no_remainder(self, small_fleet):
        small_fleet.reset()
        rows = small_fleet.step().device_rows(top_k=8)
        assert len(rows) == 8
        assert all(isinstance(r["device"], int) for r in rows)

    def test_cluster_rows_share_the_shape(self, tiny_trace):
        cluster = SimulatedCluster(ClusterSpec(n_devices=4, seed=0))
        result = cluster.run_step(tiny_trace)
        rows = result.device_rows(top_k=2)
        assert len(rows) == 3
        assert rows[0]["straggler"] == "*"
        assert rows[-1]["device"] == "(+2 faster)"
        assert set(rows[0]) == set(rows[-1])

    def test_report_render_mentions_straggler(self, small_fleet):
        small_fleet.reset()
        baseline = small_fleet.step()
        small_fleet.reset()
        report = small_fleet.step().report(baseline)
        text = report.render()
        assert "straggler" in text
        assert small_fleet.spec.name in text

    def test_straggler_summary_aggregates(self, small_fleet):
        small_fleet.reset()
        results = small_fleet.run_steps(None, steps=3)
        summary = straggler_summary(results)
        assert summary["steps"] == 3
        assert summary["devices_last"] == 8
        assert summary["overruns"] == 0


class TestDescendingTopK:
    """The O(N) top-k selection must match the old full argsort exactly."""

    @staticmethod
    def reference(values, k):
        # The path device_rows used before the argpartition rewrite.
        return np.argsort(-values, kind="stable")[:k]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 3, 8, 50, 200, 500])
    def test_matches_stable_argsort_prefix(self, seed, k):
        values = np.random.default_rng(seed).normal(size=200)
        assert np.array_equal(
            descending_top_k(values, k), self.reference(values, k)
        )

    @pytest.mark.parametrize(
        "values",
        [
            [5.0, 5.0, 5.0, 5.0],
            [9.0, 8.0, 8.0, 8.0, 7.0],
            [1.0, 2.0, 2.0, 2.0, 2.0, 3.0],
            [0.0],
            [3.0, 3.0],
        ],
    )
    def test_tie_positions_resolve_like_stable_sort(self, values):
        arr = np.asarray(values)
        for k in range(len(values) + 2):
            assert np.array_equal(
                descending_top_k(arr, k), self.reference(arr, k)
            )

    @given(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=1, max_size=40
        ),
        st.integers(min_value=0, max_value=45),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equals_old_path(self, values, k):
        arr = np.asarray(values, dtype=float)
        assert np.array_equal(
            descending_top_k(arr, k), self.reference(arr, k)
        )

    def test_device_rows_match_the_old_argsort_path(self, tiny_trace):
        sim = FleetSimulator(FleetSpec(n_devices=64, seed=4), tiny_trace)
        result = sim.step()
        for top_k in (1, 8, 32):
            rows = result.device_rows(top_k)
            order = self.reference(result.arrival_us, top_k)
            expected = []
            for pos in order:
                device = int(result.device_ids[pos])
                expected.append(
                    {
                        "device": device,
                        "compute_ms": round(
                            float(result.arrival_us[pos]) / 1000.0, 3
                        ),
                        "wait_ms": round(
                            float(result.wait_us[pos]) / 1000.0, 3
                        ),
                        "idle_mhz": round(float(result.freq_mhz[pos])),
                        "soc_j": round(
                            float(result.total_soc_energy_j[pos]), 3
                        ),
                        "aicore_j": round(
                            float(result.total_aicore_energy_j[pos]), 3
                        ),
                        "straggler": (
                            "*" if device == result.straggler_id else ""
                        ),
                    }
                )
            assert rows[: len(order)] == expected


class TestComparisonHarness:
    def test_rejects_churned_specs(self, tiny_trace):
        spec = FleetSpec(
            n_devices=4, seed=0, churn=ChurnConfig(leave_rate=1.0)
        )
        with pytest.raises(ConfigurationError):
            compare_with_cluster(spec, tiny_trace)

    def test_rejects_multi_rack_fleets(self, tiny_trace):
        spec = FleetSpec(
            n_devices=8, topology=FleetTopology(devices_per_rack=4)
        )
        with pytest.raises(ConfigurationError):
            compare_with_cluster(spec, tiny_trace)


class TestCli:
    def test_run_smoke(self, capsys):
        exit_code = fleet_main(
            ["run", "gpt3", "--scale", "0.005", "--devices", "4"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "straggler" in out
        assert "fleet SoC energy" in out

    def test_bench_smoke_writes_artifact(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        exit_code = fleet_main(
            [
                "bench",
                "gpt3",
                "--scale",
                "0.005",
                "--devices",
                "32",
                "--steps",
                "2",
                "--rounds",
                "1",
                "--reference-devices",
                "2",
                "--output",
                str(output),
                "--assert-equivalence",
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["meta"]["devices"] == 32
        assert payload["benchmarks"]["baseline_steps_per_s"] > 0
        assert payload["equivalence"]["ok"] is True

    def test_bench_floor_violation_fails(self, capsys, tmp_path):
        exit_code = fleet_main(
            [
                "bench",
                "gpt3",
                "--scale",
                "0.005",
                "--devices",
                "4",
                "--steps",
                "1",
                "--rounds",
                "1",
                "--reference-devices",
                "2",
                "--assert-steps-per-sec",
                "1e12",
            ]
        )
        assert exit_code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_bench_rejects_empty_sharded_workers(self, capsys):
        # An empty list would measure no sharded row, then either crash
        # sizing the scale run or report byte identity over zero rows.
        with pytest.raises(SystemExit) as exc:
            fleet_main(
                ["bench", "gpt3", "--devices", "16", "--sharded-workers"]
            )
        assert exc.value.code == 2
        assert "--sharded-workers" in capsys.readouterr().err

    def test_unknown_workload_fails_cleanly(self, capsys):
        exit_code = fleet_main(["run", "nonsense", "--devices", "2"])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err
