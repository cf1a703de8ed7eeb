"""Equivalence harnesses for the vectorized fleet.

Two legs, one discipline:

* :func:`compare_with_cluster` — the fleet versus the looped
  :class:`~repro.cluster.simulator.SimulatedCluster` at N <= 16, the
  ground-truth semantics check (same seeded profiles, same engine
  physics, same barrier).  Energies and temperatures agree to rounding
  (<= 1e-9) because the fleet kernel collapses the barrier-wait idle
  integration to its affine form.
* :func:`compare_with_sharded` — the multi-process
  :class:`~repro.fleet.sharded.ShardedFleetSimulator` versus the
  in-process fleet at any N and worker count, churn included.  Both run
  the same barrier-step kernel, so every observable — durations, waits,
  frequencies, straggler selection, churn histories, reclaimed
  strategies, energies and temperatures — must be bitwise identical.

The CLI bench, the ``ext_fleet_scale`` experiment and the equivalence
tests all consume these harnesses, so the acceptance bars are measured
the same way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.dvfs import build_frequency_tables, reclaim_slack
from repro.cluster.simulator import ClusterStepResult, SimulatedCluster
from repro.errors import ConfigurationError
from repro.fleet.dvfs import (
    auto_retarget,
    plan_strategy_json,
    reclaim_fleet_slack,
)
from repro.fleet.sharded import ShardedFleetSimulator
from repro.fleet.simulator import FleetPlan, FleetSimulator, FleetStepResult
from repro.fleet.spec import FleetSpec
from repro.workloads.trace import Trace

#: The acceptance bar on every relative error the harness measures.
EQUIVALENCE_TOLERANCE = 1e-9


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = np.maximum(np.abs(ref), 1e-12)
    return float(np.max(np.abs(got - ref) / scale)) if got.size else 0.0


@dataclass(frozen=True)
class ReferenceComparison:
    """Worst-case divergence between fleet and cluster simulations."""

    n_devices: int
    steps: int
    #: Reclamation byte-identity: same frequencies, same barrier
    #: target, identical serialized per-device strategies.
    plans_byte_identical: bool
    #: Per-device arrivals bitwise identical (max |rel| over steps).
    max_rel_duration: float
    max_rel_energy: float
    max_rel_celsius: float
    max_rel_fleet_total: float
    overruns_equal: bool

    @property
    def max_rel_err(self) -> float:
        """The single worst relative error across every observable."""
        return max(
            self.max_rel_duration,
            self.max_rel_energy,
            self.max_rel_celsius,
            self.max_rel_fleet_total,
        )

    def ok(self, tolerance: float = EQUIVALENCE_TOLERANCE) -> bool:
        """Whether every observable is within ``tolerance``."""
        return (
            self.plans_byte_identical
            and self.overruns_equal
            and self.max_rel_err <= tolerance
        )


def _compare_steps(
    fleet_steps: list[FleetStepResult],
    cluster_steps: list[ClusterStepResult],
) -> tuple[float, float, float, float]:
    rel_dur = rel_energy = rel_celsius = rel_total = 0.0
    for fleet, cluster in zip(fleet_steps, cluster_steps):
        ref_dur = [d.compute_us for d in cluster.devices]
        rel_dur = max(
            rel_dur,
            _rel(fleet.arrival_us, ref_dur),
            _rel(fleet.wait_us, [d.wait_us for d in cluster.devices]),
            _rel([fleet.compute_us], [cluster.compute_us]),
            _rel([fleet.collective_us], [cluster.allreduce_us]),
        )
        rel_energy = max(
            rel_energy,
            _rel(
                fleet.aicore_energy_j,
                [d.aicore_energy_j for d in cluster.devices],
            ),
            _rel(
                fleet.soc_energy_j,
                [d.soc_energy_j for d in cluster.devices],
            ),
            _rel(
                fleet.idle_aicore_energy_j,
                [d.idle_aicore_energy_j for d in cluster.devices],
            ),
            _rel(
                fleet.idle_soc_energy_j,
                [d.idle_soc_energy_j for d in cluster.devices],
            ),
        )
        rel_celsius = max(
            rel_celsius,
            _rel(
                fleet.end_celsius,
                [d.end_celsius for d in cluster.devices],
            ),
        )
        rel_total = max(
            rel_total,
            _rel(
                [fleet.fleet_soc_energy_j], [cluster.fleet_soc_energy_j]
            ),
            _rel(
                [fleet.fleet_aicore_energy_j],
                [cluster.fleet_aicore_energy_j],
            ),
        )
    return rel_dur, rel_energy, rel_celsius, rel_total


def compare_with_cluster(
    spec: FleetSpec,
    trace: Trace,
    steps: int = 2,
    slack_margin: float = 0.0,
) -> ReferenceComparison:
    """Run fleet and cluster side by side; report the worst divergence.

    Both simulators execute ``steps`` baseline steps and ``steps``
    reclaimed steps (thermal state carried within each phase), plus an
    overrun-watchdog cross-check under a deliberately tight target.
    The fleet must be churn-free and single-rack — otherwise the looped
    cluster is not its reference semantics.

    Raises:
        ConfigurationError: on a churned or multi-rack fleet.
    """
    if spec.churn.any_active:
        raise ConfigurationError(
            "the looped cluster has no churn; compare a churn-free spec"
        )
    if len(spec.topology.rack_sizes(spec.n_devices)) > 1:
        raise ConfigurationError(
            "the looped cluster is a single ring; compare a fleet that "
            "fits one rack"
        )
    cluster = SimulatedCluster(spec.cluster_spec())
    sim = FleetSimulator(spec, trace)

    fleet_base = sim.run_steps(None, steps=steps)
    cluster_base = cluster.run_steps(trace, None, steps=steps)

    tables = build_frequency_tables(cluster, trace)
    cluster_plan = reclaim_slack(
        tables,
        trace.name,
        allreduce_us=cluster.spec.allreduce_us,
        slack_margin=slack_margin,
    )
    fleet_plan = reclaim_fleet_slack(sim, slack_margin=slack_margin)
    plans_identical = (
        plan_strategy_json(fleet_plan) == cluster_plan.strategy_json()
        and fleet_plan.target_compute_us == cluster_plan.target_compute_us
        and fleet_plan.straggler_id == cluster_plan.straggler_id
    )

    sim.reset()
    fleet_rec = sim.run_steps(
        fleet_plan,
        steps=steps,
        target_compute_us=fleet_plan.target_compute_us,
    )
    fresh = SimulatedCluster(spec.cluster_spec())
    cluster_rec = fresh.run_steps(
        trace,
        cluster_plan.strategies,
        steps=steps,
        target_compute_us=cluster_plan.target_compute_us,
    )

    # Watchdog cross-check: an impossibly tight barrier must trip the
    # same per-device overruns in both simulators.
    tight = fleet_plan.target_compute_us / 2.0
    sim.reset()
    fleet_tight = sim.step(fleet_plan, target_compute_us=tight)
    tight_cluster = SimulatedCluster(spec.cluster_spec())
    cluster_tight = tight_cluster.run_step(
        trace, cluster_plan.strategies, target_compute_us=tight
    )
    overruns_equal = (
        sum(r.overrun_count for r in fleet_rec)
        == sum(len(r.incidents) for r in cluster_rec)
        and fleet_tight.overrun_count == len(cluster_tight.incidents)
    )

    rels = [
        _compare_steps(fleet_base, cluster_base),
        _compare_steps(fleet_rec, cluster_rec),
    ]
    return ReferenceComparison(
        n_devices=spec.n_devices,
        steps=steps,
        plans_byte_identical=plans_identical,
        max_rel_duration=max(r[0] for r in rels),
        max_rel_energy=max(r[1] for r in rels),
        max_rel_celsius=max(r[2] for r in rels),
        max_rel_fleet_total=max(r[3] for r in rels),
        overruns_equal=overruns_equal,
    )


@dataclass(frozen=True)
class ShardedComparison:
    """Divergence between the sharded and in-process fleet engines."""

    n_devices: int
    steps: int
    workers: int
    #: Arrivals, waits, frequencies, memberships, barrier maxima and
    #: straggler ids bitwise equal on every compared step.
    durations_bitwise: bool
    #: Reclaimed plans byte-identical: serialized strategies, barrier
    #: target, straggler, frequency indices, predicted arrivals.
    plans_byte_identical: bool
    #: ``device_rows()`` straggler tables identical on every step.
    straggler_rows_identical: bool
    #: Identical churn event histories (replay determinism).
    events_equal: bool
    overruns_equal: bool
    max_rel_energy: float
    max_rel_celsius: float

    @property
    def byte_identical(self) -> bool:
        """The bitwise contract: durations, plans, straggler rows, churn
        histories, energies and temperatures."""
        return (
            self.durations_bitwise
            and self.plans_byte_identical
            and self.straggler_rows_identical
            and self.events_equal
            and self.max_rel_energy == 0.0
            and self.max_rel_celsius == 0.0
        )

    def ok(self) -> bool:
        """The bitwise contract holds and overruns match."""
        return self.byte_identical and self.overruns_equal


def _plans_identical(got: FleetPlan, ref: FleetPlan) -> bool:
    return (
        plan_strategy_json(got) == plan_strategy_json(ref)
        and got.target_compute_us == ref.target_compute_us
        and got.straggler_id == ref.straggler_id
        and got.freqs_mhz == ref.freqs_mhz
        and np.array_equal(got.freq_index, ref.freq_index)
        and np.array_equal(got.predicted_us, ref.predicted_us)
        and np.array_equal(got.covered, ref.covered)
    )


def compare_with_sharded(
    spec: FleetSpec,
    trace: Trace,
    steps: int = 3,
    workers: int = 2,
    slack_margin: float = 0.0,
) -> ShardedComparison:
    """Run sharded and in-process fleets in lockstep; report drift.

    Both engines reclaim on the initial membership (plan byte-identity),
    then run ``steps`` baseline steps and ``steps`` reclaimed steps with
    the spec's churn live and re-targeting after membership changes —
    each engine replanning through its own reclamation path — plus a
    deliberately tight barrier for the overrun watchdog.
    """
    single = FleetSimulator(spec, trace)
    with ShardedFleetSimulator(spec, trace, workers=workers) as sharded:
        plan_single = reclaim_fleet_slack(single, slack_margin=slack_margin)
        plan_sharded = reclaim_fleet_slack(
            sharded, slack_margin=slack_margin
        )
        plans_identical = _plans_identical(plan_sharded, plan_single)

        base_single = single.run_steps(None, steps=steps)
        base_sharded = sharded.run_steps(None, steps=steps)

        single.reset()
        sharded.reset()
        replan = auto_retarget(slack_margin)
        rec_single = single.run_steps(
            plan_single,
            steps=steps,
            target_compute_us=plan_single.target_compute_us,
            replan=replan,
        )
        rec_sharded = sharded.run_steps(
            plan_sharded,
            steps=steps,
            target_compute_us=plan_sharded.target_compute_us,
            replan=replan,
        )

        single.reset()
        sharded.reset()
        tight = plan_single.target_compute_us / 2.0
        tight_single = single.step(plan_single, target_compute_us=tight)
        tight_sharded = sharded.step(plan_sharded, target_compute_us=tight)

    pairs = list(zip(base_sharded, base_single)) + list(
        zip(rec_sharded, rec_single)
    )
    pairs.append((tight_sharded, tight_single))
    durations_bitwise = all(
        np.array_equal(got.device_ids, ref.device_ids)
        and np.array_equal(got.arrival_us, ref.arrival_us)
        and np.array_equal(got.wait_us, ref.wait_us)
        and np.array_equal(got.freq_mhz, ref.freq_mhz)
        and got.compute_us == ref.compute_us
        and got.collective_us == ref.collective_us
        and got.straggler_id == ref.straggler_id
        for got, ref in pairs
    )
    straggler_rows_identical = all(
        got.device_rows() == ref.device_rows() for got, ref in pairs
    )
    events_equal = all(
        got.events == ref.events for got, ref in pairs
    )
    overruns_equal = all(
        got.overrun_count == ref.overrun_count
        and got.overrun_device_ids == ref.overrun_device_ids
        for got, ref in pairs
    )
    max_rel_energy = max(
        max(
            _rel(got.aicore_energy_j, ref.aicore_energy_j),
            _rel(got.soc_energy_j, ref.soc_energy_j),
            _rel(got.idle_aicore_energy_j, ref.idle_aicore_energy_j),
            _rel(got.idle_soc_energy_j, ref.idle_soc_energy_j),
        )
        for got, ref in pairs
    )
    max_rel_celsius = max(
        _rel(got.end_celsius, ref.end_celsius) for got, ref in pairs
    )
    return ShardedComparison(
        n_devices=spec.n_devices,
        steps=steps,
        workers=workers,
        durations_bitwise=durations_bitwise,
        plans_byte_identical=plans_identical,
        straggler_rows_identical=straggler_rows_identical,
        events_equal=events_equal,
        overruns_equal=overruns_equal,
        max_rel_energy=max_rel_energy,
        max_rel_celsius=max_rel_celsius,
    )
