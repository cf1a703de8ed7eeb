"""fleet_churn: a churned 2,000-device fleet stepping under a reclaimed plan.

The default in-process engine (``make_fleet_simulator(..., workers=1)``)
runs gpt3 x0.02 under a slack-reclaimed plan with seeded join/leave/fail
churn.  A step whose churn changed the membership replans through the
benchmark's own ``auto_retarget``-style callback.  The loop is the one
``FleetSimulator.run_steps`` runs (churn before every step but the
first, replan on a membership change, then the barrier step), written
out so each step can be timed; the check replays a prefix through
``run_steps`` itself and requires identical energies.

The churn rates make about one step in 25 replan, so warm steps and
replans each take a sizeable share of host time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import repro.fleet.dvfs as fleet_dvfs
from repro.fleet import (
    ChurnConfig,
    FleetSimulator,
    FleetSpec,
    auto_retarget,
    make_fleet_simulator,
)
from repro.fleet.reference import EQUIVALENCE_TOLERANCE, compare_with_cluster
from repro.workloads import generate

from spans import ID, PARENT
from stats import (
    Samples,
    latency_line,
    percentile,
    reference_seconds,
    slowdown,
)

DEVICES = 2000
SCALE = 0.02
CHURN = ChurnConfig(
    join_rate=0.02,
    leave_rate=0.01,
    fail_rate=0.01,
    max_joins=256,
    min_active=DEVICES // 2,
)
SLACK_MARGIN = 0.0
MEMBERSHIP = ("join", "leave", "fail")
#: Steps whose energies define ``fleet.soc_j_per_step`` and the saving
#: (a fixed prefix, so both are the same for every run of a seed).
ENERGY_STEPS = 300
#: Devices in the looped-cluster equivalence check (one rack).
REFERENCE_DEVICES = 8
#: The highest percentiles a run's steps and replanned steps support.
TAIL = 99
SLOW_TAIL = 90
#: Steps between host-speed reference samples (see ``stats``).
REFERENCE_EVERY = 50


def prepare(seed: int, seconds: float) -> dict:
    """The fleet description and a freshly generated trace."""
    return {
        "seed": seed,
        "spec": FleetSpec(n_devices=DEVICES, seed=seed, churn=CHURN),
        "trace": generate("gpt3", scale=SCALE, seed=seed),
    }


def _compile(spec: FleetSpec, trace) -> FleetSimulator:
    sim = make_fleet_simulator(spec, trace, workers=1)
    sim.solution(spec.npu.max_frequency_mhz)
    sim.duration_table()
    return sim


def setup(inputs: dict, scratch) -> dict:
    """Compile the fleet and reclaim its initial plan."""
    start = time.perf_counter()
    sim = _compile(inputs["spec"], inputs["trace"])
    compile_s = time.perf_counter() - start
    plan = fleet_dvfs.reclaim_fleet_slack(sim, SLACK_MARGIN)
    return dict(inputs, sim=sim, plan=plan, compile_s=compile_s)


def install(tracer) -> None:
    """Wrap the step kernel, churn and the reclaim the replan calls."""
    tracer.wrap(FleetSimulator, "step", "fleet.step")
    tracer.wrap(FleetSimulator, "advance_churn", "fleet.churn")
    tracer.wrap(fleet_dvfs, "reclaim_fleet_slack", "fleet.reclaim")


def _replan(sim: FleetSimulator):
    return fleet_dvfs.reclaim_fleet_slack(sim, SLACK_MARGIN)


def measure(state: dict, seconds: float, tracer=None) -> Samples:
    """Step until the time is up; each step is one timed operation."""
    sim, plan = state["sim"], state["plan"]
    target = plan.target_compute_us
    samples = Samples()
    energies = []
    replans = churn_events = overruns = 0
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline:
        if step % REFERENCE_EVERY == 0:
            samples.reference.append(reference_seconds())
        samples.attempted += 1
        start = time.perf_counter()
        with tracer.span("fleet.step_op", rid=step) if tracer else (
            nullcontext()
        ):
            events = sim.advance_churn(step) if step else ()
            changed = any(e.kind in MEMBERSHIP for e in events)
            if changed:
                plan = _replan(sim)
                target = plan.target_compute_us
            result = sim.step(plan, target, events=events)
        samples.latencies.append(time.perf_counter() - start)
        samples.slow.append(changed)
        energies.append(result.fleet_soc_energy_j)
        replans += changed
        churn_events += len(events)
        overruns += result.overrun_count
        step += 1
    samples.busy_seconds = sum(samples.latencies)
    samples.extra = {
        "energies": energies,
        "replans": replans,
        "churn_events": churn_events,
        "overruns": overruns,
    }
    return samples


def check(state: dict, samples: Samples) -> list[str]:
    """Replay through ``run_steps``, price the baseline, compare with cluster."""
    problems = []
    energies = samples.extra["energies"]
    if len(energies) < ENERGY_STEPS:
        return [f"only {len(energies)} of {ENERGY_STEPS} steps completed"]
    spec = state["spec"]
    trace = generate("gpt3", scale=SCALE, seed=state["seed"])
    sim = _compile(spec, trace)
    plan = fleet_dvfs.reclaim_fleet_slack(sim, SLACK_MARGIN)
    replay = sim.run_steps(
        plan,
        steps=ENERGY_STEPS,
        target_compute_us=plan.target_compute_us,
        replan=auto_retarget(SLACK_MARGIN),
    )
    replayed = [r.fleet_soc_energy_j for r in replay]
    if replayed != energies[:ENERGY_STEPS]:
        problems.append("fleet energies differ when replayed with run_steps")
    sim.reset()
    baseline = sim.run_steps(None, steps=ENERGY_STEPS)
    base_j = float(np.sum([r.fleet_soc_energy_j for r in baseline]))
    samples.extra["saved_pct"] = 100.0 * (
        1.0 - float(np.sum(energies[:ENERGY_STEPS])) / base_j
    )
    reference = FleetSpec(n_devices=REFERENCE_DEVICES, seed=state["seed"])
    comparison = compare_with_cluster(reference, trace, steps=2)
    if not comparison.ok(EQUIVALENCE_TOLERANCE):
        problems.append(
            f"fleet diverges from the looped cluster: max rel error "
            f"{comparison.max_rel_err:.3g}, plans identical "
            f"{comparison.plans_byte_identical}"
        )
    return problems


def teardown(state: dict) -> None:
    """Nothing to release: the in-process engine owns no workers."""


def end_to_end(state: dict, samples: Samples) -> dict:
    """Step latencies, replanned-step latencies, steps/s and the saving."""
    slow = samples.slow_latencies()
    print(latency_line("fleet step", samples.latencies, TAIL))
    print(latency_line("fleet replanned step", slow, SLOW_TAIL))
    factor = slowdown(samples.reference)
    return {
        "p50_ms": 1e3 * percentile(samples.latencies, 50) / factor,
        "slow_p50_ms": 1e3 * percentile(slow, 50) / factor,
        "ops_per_s": factor * len(samples.latencies) / samples.busy_seconds,
        "sim_saved_pct": samples.extra["saved_pct"],
    }


def counters(state: dict, samples: Samples) -> dict:
    """Churn, replans, overruns, compile time and energy per step."""
    extra = samples.extra
    return {
        "fleet.compile_ms": 1e3 * state["compile_s"],
        "fleet.replans": extra["replans"],
        "fleet.churn_events": extra["churn_events"],
        "fleet.overruns": extra["overruns"],
        "fleet.soc_j_per_step": float(
            np.mean(extra["energies"][:ENERGY_STEPS])
        ),
    }


def stage_roots(state: dict, tracer) -> dict:
    """Step roots split by whether the step replanned."""
    roots = tracer.by_name("fleet.step_op")
    replanned = {s[PARENT] for s in tracer.by_name("fleet.reclaim")}
    return {
        "fleet warm step": [r for r in roots if r[ID] not in replanned],
        "fleet replanned step": [r for r in roots if r[ID] in replanned],
    }
