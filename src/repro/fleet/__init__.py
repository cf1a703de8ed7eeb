"""Vectorized 10k-device fleet simulation with elastic membership.

The cluster package (:mod:`repro.cluster`) loops Python device objects
around the engine — exact, but O(N) interpreter work per step.  This
package is the same physics at fleet scale: every device's compiled
constant-frequency affine solution (``E = E0 + E1 * delta0``) is
stacked into ``(devices,)`` NumPy arrays, so the barrier step, the
idle-priced waits, slack reclamation and delta0 re-targeting are single
vectorized passes.

* :mod:`repro.fleet.spec` — the fleet description, composing the
  cluster's seeded per-device variation with rack structure and churn;
* :mod:`repro.fleet.topology` — hierarchical collectives: intra-rack
  ring + inter-rack tree, with flat-ring algorithm selection;
* :mod:`repro.fleet.churn` — seeded join/leave/fail dynamics with
  replay-identical histories and deterministic re-sharding;
* :mod:`repro.fleet.simulator` — the fleet engine and its one
  barrier-step kernel (epoch-cached steps and slack reclamation over a
  ``[lo, hi)`` slice of the fleet), run in process over the whole
  fleet and equivalence-tested (<= 1e-9) against the looped
  :class:`~repro.cluster.simulator.SimulatedCluster` at small N;
* :mod:`repro.fleet.dvfs` — slack reclamation through the engine,
  producing byte-identical per-device constant strategies;
* :mod:`repro.fleet.sharded` — the same engine with its kernel run
  over contiguous device shards in persistent worker processes sharing
  one memory segment (``--workers`` on the CLI), bitwise identical to
  the in-process engine and the path to 100k devices.

Run ``python -m repro.fleet run`` for a demo and
``python -m repro.fleet bench`` for the scaling benchmark
(``BENCH_fleet.json``).
"""

from repro.fleet.churn import ChurnConfig, FleetEvent, draw_churn
from repro.fleet.dvfs import (
    auto_retarget,
    plan_strategies,
    plan_strategy_json,
    reclaim_fleet_slack,
)
from repro.fleet.sharded import (
    ShardedFleetSimulator,
    make_fleet_simulator,
    shard_bounds,
)
from repro.fleet.simulator import (
    FleetPlan,
    FleetSimulator,
    FleetStepResult,
    descending_top_k,
    straggler_summary,
)
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import CollectiveCost, FleetTopology

__all__ = [
    "ChurnConfig",
    "CollectiveCost",
    "FleetEvent",
    "FleetPlan",
    "FleetSimulator",
    "FleetSpec",
    "FleetStepResult",
    "FleetTopology",
    "ShardedFleetSimulator",
    "auto_retarget",
    "descending_top_k",
    "draw_churn",
    "make_fleet_simulator",
    "plan_strategies",
    "plan_strategy_json",
    "reclaim_fleet_slack",
    "shard_bounds",
    "straggler_summary",
]
