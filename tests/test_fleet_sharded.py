"""Tests for the sharded multi-process fleet engine (repro.fleet.sharded).

The contract under test is strict: the sharded engine must be
*byte-identical* to the single-process fleet — durations, waits,
frequencies, memberships, straggler selection, churn histories and
reclaimed strategies — at every worker count, with energies and
temperatures inside the standard 1e-9 equivalence bar.  Failure
handling is typed: a killed worker raises
:class:`~repro.errors.FleetWorkerError` promptly (no hang) and nothing
partial reaches the strategy store.
"""

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster.serve import fleet_cached_reclaim
from repro.errors import ConfigurationError, FleetWorkerError, ReproError
from repro.fleet import (
    ChurnConfig,
    FleetSimulator,
    FleetSpec,
    ShardedFleetSimulator,
    auto_retarget,
    make_fleet_simulator,
    plan_strategy_json,
    reclaim_fleet_slack,
    shard_bounds,
)
from repro.fleet.reference import compare_with_sharded
from repro.serve.store import StrategyStore
from repro.workloads import generate


@pytest.fixture(scope="module")
def tiny_trace():
    return generate("gpt3", scale=0.01)


def churned_spec(n_devices: int, seed: int) -> FleetSpec:
    return FleetSpec(
        n_devices=n_devices,
        seed=seed,
        churn=ChurnConfig(
            join_rate=0.3, leave_rate=0.2, fail_rate=0.1, max_joins=4
        ),
    )


class TestShardBounds:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_contiguous_disjoint_cover(self, n, workers):
        spans = [shard_bounds(n, workers, i) for i in range(workers)]
        assert spans[0][0] == 0
        assert spans[-1][1] == n
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo  # contiguous, no gaps, no overlap

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in
                 (shard_bounds(1000, 3, i) for i in range(3))]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) <= 1


class TestFactory:
    def test_workers_one_is_the_plain_engine(self, tiny_trace):
        sim = make_fleet_simulator(
            FleetSpec(n_devices=4), tiny_trace, workers=1
        )
        assert type(sim) is FleetSimulator
        assert sim.workers == 1

    def test_workers_two_is_sharded(self, tiny_trace):
        sim = make_fleet_simulator(
            FleetSpec(n_devices=4), tiny_trace, workers=2
        )
        try:
            assert isinstance(sim, ShardedFleetSimulator)
            assert sim.workers == 2
        finally:
            sim.close()

    def test_rejects_zero_workers(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            ShardedFleetSimulator(
                FleetSpec(n_devices=4), tiny_trace, workers=0
            )


class TestByteIdentity:
    """The tentpole bar: sharded == single-process, bit for bit."""

    @pytest.mark.parametrize("n_devices", [16, 64, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_across_sizes_and_workers(
        self, tiny_trace, n_devices, workers
    ):
        comparison = compare_with_sharded(
            churned_spec(n_devices, seed=0),
            tiny_trace,
            steps=3,
            workers=workers,
        )
        assert comparison.durations_bitwise
        assert comparison.plans_byte_identical
        assert comparison.straggler_rows_identical
        assert comparison.events_equal
        assert comparison.overruns_equal
        assert comparison.ok()

    @pytest.mark.parametrize("seed", [3, 7])
    def test_identical_across_churn_seeds(self, tiny_trace, seed):
        comparison = compare_with_sharded(
            churned_spec(64, seed=seed), tiny_trace, steps=4, workers=2
        )
        assert comparison.byte_identical
        assert comparison.ok()

    def test_more_workers_than_devices(self, tiny_trace):
        comparison = compare_with_sharded(
            FleetSpec(n_devices=2, seed=0), tiny_trace, steps=2, workers=4
        )
        assert comparison.byte_identical
        assert comparison.ok()

    @pytest.mark.parametrize(
        "workers, seed, replan",
        [(2, 1, None), (1, 1, None), (1, 6, auto_retarget())],
        ids=["workers=2", "in-process", "in-process-replan"],
    )
    def test_batching_does_not_change_results(
        self, tiny_trace, workers, seed, replan
    ):
        """A step() loop and batched run_steps produce the same bits."""
        spec = churned_spec(32, seed=seed)
        looped = make_fleet_simulator(
            spec, tiny_trace, workers=workers, max_batch=1
        )
        batched = make_fleet_simulator(
            spec, tiny_trace, workers=workers, max_batch=8
        )
        try:
            plan = reclaim_fleet_slack(looped) if replan else None
            target = plan.target_compute_us if plan else None
            a = []
            for index in range(6):
                events = looped.advance_churn(index) if index else ()
                changed = any(
                    e.kind in ("join", "leave", "fail") for e in events
                )
                if replan and changed:
                    plan = replan(looped)
                    target = plan.target_compute_us
                a.append(looped.step(plan, target, events=events))
            plan = reclaim_fleet_slack(batched) if replan else None
            b = batched.run_steps(
                plan,
                steps=6,
                target_compute_us=plan.target_compute_us if plan else None,
                replan=replan,
            )
        finally:
            for sim in (looped, batched):
                if isinstance(sim, ShardedFleetSimulator):
                    sim.close()
        assert len(a) == len(b)
        if replan:
            assert any(x.events for x in a)  # churn forced replans
        for x, y in zip(a, b):
            assert np.array_equal(x.device_ids, y.device_ids)
            assert np.array_equal(x.arrival_us, y.arrival_us)
            assert np.array_equal(x.freq_mhz, y.freq_mhz)
            assert np.array_equal(x.end_celsius, y.end_celsius)
            assert np.array_equal(x.soc_energy_j, y.soc_energy_j)
            assert np.array_equal(
                x.idle_soc_energy_j, y.idle_soc_energy_j
            )
            assert x.fleet_soc_energy_j == y.fleet_soc_energy_j
            assert x.events == y.events

    def test_reclaim_dispatch_is_byte_identical(self, tiny_trace):
        spec = FleetSpec(n_devices=32, seed=2)
        single = FleetSimulator(spec, tiny_trace)
        reference = reclaim_fleet_slack(single, slack_margin=0.01)
        with ShardedFleetSimulator(spec, tiny_trace, workers=3) as sim:
            plan = reclaim_fleet_slack(sim, slack_margin=0.01)
        assert plan_strategy_json(plan) == plan_strategy_json(reference)
        assert plan.target_compute_us == reference.target_compute_us
        assert plan.straggler_id == reference.straggler_id
        assert np.array_equal(plan.freq_index, reference.freq_index)
        assert np.array_equal(plan.predicted_us, reference.predicted_us)


class TestLifecycle:
    def test_context_manager_closes(self, tiny_trace):
        with ShardedFleetSimulator(
            FleetSpec(n_devices=8), tiny_trace, workers=2
        ) as sim:
            sim.step()
        with pytest.raises(FleetWorkerError):
            sim.step()

    def test_close_is_idempotent(self, tiny_trace):
        sim = ShardedFleetSimulator(
            FleetSpec(n_devices=8), tiny_trace, workers=2
        )
        sim.step()
        sim.close()
        sim.close()

    def test_reset_replays_identically(self, tiny_trace):
        with ShardedFleetSimulator(
            churned_spec(16, seed=0), tiny_trace, workers=2
        ) as sim:
            first = sim.run_steps(None, steps=4)
            sim.reset()
            second = sim.run_steps(None, steps=4)
        for x, y in zip(first, second):
            assert np.array_equal(x.arrival_us, y.arrival_us)
            assert np.array_equal(x.end_celsius, y.end_celsius)
            assert x.events == y.events


class TestWorkerFailure:
    def test_killed_worker_raises_typed_error_fast(self, tiny_trace):
        with ShardedFleetSimulator(
            FleetSpec(n_devices=16), tiny_trace, workers=2, timeout_s=30.0
        ) as sim:
            sim.step()
            victim = sim._procs[-1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            start = time.monotonic()
            with pytest.raises(FleetWorkerError):
                sim.step()
            # Detected by liveness polling, not by the reply deadline.
            assert time.monotonic() - start < 10.0
            # The engine is latched broken: every later call is an
            # immediate typed error, never a hang.
            with pytest.raises(FleetWorkerError):
                sim.step()
            with pytest.raises(FleetWorkerError):
                reclaim_fleet_slack(sim)

    def test_killed_worker_commits_nothing_to_the_store(
        self, tiny_trace, tmp_path
    ):
        store = StrategyStore(tmp_path / "store")
        with ShardedFleetSimulator(
            FleetSpec(n_devices=16), tiny_trace, workers=2, timeout_s=30.0
        ) as sim:
            os.kill(sim._procs[0].pid, signal.SIGKILL)
            sim._procs[0].join(timeout=5.0)
            with pytest.raises(FleetWorkerError):
                fleet_cached_reclaim(sim, store)
        records = glob.glob(str(tmp_path / "store" / "**" / "*.json*"),
                            recursive=True)
        assert records == []

    def test_typed_error_is_a_repro_error(self):
        assert issubclass(FleetWorkerError, ReproError)


class TestStoreIntegration:
    def test_fleet_cached_reclaim_through_sharded_engine(
        self, tiny_trace, tmp_path
    ):
        spec = FleetSpec(n_devices=8, seed=0)
        store = StrategyStore(tmp_path / "store")
        reference = fleet_cached_reclaim(
            FleetSimulator(spec, tiny_trace), StrategyStore(tmp_path / "ref")
        )
        with ShardedFleetSimulator(spec, tiny_trace, workers=2) as sim:
            miss = fleet_cached_reclaim(sim, store)
            hit = fleet_cached_reclaim(sim, store)
        assert miss.hit_count == 0
        assert hit.hit_count == spec.n_devices
        assert plan_strategy_json(miss.plan) == plan_strategy_json(
            reference.plan
        )
        assert plan_strategy_json(hit.plan) == plan_strategy_json(
            miss.plan
        )


class TestRunSteps:
    def test_replan_after_churn_matches_single_process(self, tiny_trace):
        spec = churned_spec(24, seed=5)
        single = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(single)
        ref = single.run_steps(
            plan,
            steps=5,
            target_compute_us=plan.target_compute_us,
            replan=auto_retarget(0.0),
        )
        with ShardedFleetSimulator(spec, tiny_trace, workers=2) as sim:
            shard_plan = reclaim_fleet_slack(sim)
            got = sim.run_steps(
                shard_plan,
                steps=5,
                target_compute_us=shard_plan.target_compute_us,
                replan=auto_retarget(0.0),
            )
        for x, y in zip(got, ref):
            assert np.array_equal(x.device_ids, y.device_ids)
            assert np.array_equal(x.arrival_us, y.arrival_us)
            assert np.array_equal(x.freq_mhz, y.freq_mhz)
            assert x.straggler_id == y.straggler_id
            assert x.overrun_count == y.overrun_count
            assert x.events == y.events

    def test_rejects_zero_steps(self, tiny_trace):
        with ShardedFleetSimulator(
            FleetSpec(n_devices=4), tiny_trace, workers=2
        ) as sim:
            with pytest.raises(ConfigurationError):
                sim.run_steps(steps=0)

    def test_overrun_totals_accumulate_like_single_process(
        self, tiny_trace
    ):
        spec = FleetSpec(n_devices=12, seed=0)
        single = FleetSimulator(spec, tiny_trace)
        plan = reclaim_fleet_slack(single)
        tight = plan.target_compute_us / 2.0
        single.run_steps(plan, steps=3, target_compute_us=tight)
        with ShardedFleetSimulator(spec, tiny_trace, workers=2) as sim:
            shard_plan = reclaim_fleet_slack(sim)
            sim.run_steps(shard_plan, steps=3, target_compute_us=tight)
            assert sim.overrun_total == single.overrun_total
