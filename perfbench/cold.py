"""cold_strategy: one caller, a closed loop of cold Fig. 1 pipeline runs.

Each request is a newly generated ``Trace`` of a paper model (the six
below, rotating, each with its own seed) optimized by a fresh
``EnergyOptimizer`` under the ``repro.serve.pool.job_config`` seed a
gateway miss would use.  A fresh object per request keeps the
process-global compiled-trace cache from turning a cold request warm;
reusing one trace object would time the cache instead of the cold path
(``perfbench/meta.json`` records the measured gap).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer
import repro.core.optimizer as core_optimizer
from repro.dvfs.ga import GaConfig
from repro.dvfs.guard import GuardedDvfsExecutor
from repro.serve.fingerprint import request_fingerprint
from repro.serve.pool import job_config
from repro.workloads import generate

from stats import (
    Samples,
    latency_line,
    percentile,
    reference_seconds,
    slowdown,
)

MODELS = ("gpt3", "bert", "resnet50", "vgg19", "vit_base", "llama2_inference")
SCALE = 0.1
#: The pipeline benchmark's GA budget (``BENCH_pipeline.json``).
CONFIG = OptimizerConfig(ga=GaConfig(population_size=64, iterations=16))
#: The largest model; its requests are the workload's heavy operations.
HEAVY = "gpt3"
#: The highest percentile a run's few hundred requests support.
TAIL = 90
#: Requests re-run from scratch to check byte-identical strategies.
REPLAYS = 2
#: More requests than any run completes.
MAX_REQUESTS = 100_000


def prepare(seed: int, seconds: float) -> dict:
    """``(model, trace seed)`` per request: rotating models, distinct seeds.

    Traces are generated one by one in the loop, outside the timer.
    """
    rng = np.random.default_rng([seed, 0xC01D])
    seeds = rng.choice(2**31, size=MAX_REQUESTS, replace=False)
    requests = [
        (MODELS[i % len(MODELS)], int(s)) for i, s in enumerate(seeds)
    ]
    return {"seed": seed, "requests": requests}


def soc_energy_saved(report) -> float:
    """Share of per-iteration SoC energy saved against max frequency."""
    base, dvfs = report.baseline, report.under_dvfs
    return 1.0 - (dvfs.soc_watts * dvfs.iteration_seconds) / (
        base.soc_watts * base.iteration_seconds
    )


def _optimize(name: str, trace_seed: int, tracer=None):
    """Generate a fresh trace, then time one cold request on it."""
    trace = generate(name, scale=SCALE, seed=trace_seed)
    fingerprint = request_fingerprint(trace, CONFIG)
    start = time.perf_counter()
    root = None if tracer is None else tracer.begin("cold.request", start)
    with nullcontext() if root is None else tracer.active(root):
        optimizer = EnergyOptimizer(job_config(CONFIG, fingerprint))
        report = optimizer.optimize(trace)
    end = time.perf_counter()
    if root is not None:
        tracer.finish(root, end)
    return report, optimizer.device, end - start


def setup(inputs: dict, scratch) -> dict:
    """Warm the interpreter with one small request (lazy imports, tables)."""
    rng = np.random.default_rng([inputs["seed"], 0x5E7])
    _optimize("vit_base", int(rng.integers(2**31)))
    return dict(inputs)


def install(tracer) -> None:
    """Wrap the pipeline stages where ``EnergyOptimizer`` looks them up.

    The serving workload installs the same wrappers, so a gateway miss
    shows the stages its ``optimize_job`` runs.
    """
    tracer.wrap(EnergyOptimizer, "optimize", "core.optimize")
    tracer.wrap(EnergyOptimizer, "profile", "npu.profile")
    tracer.wrap(EnergyOptimizer, "build_models", "perf.fit")
    tracer.wrap(EnergyOptimizer, "calibrate", "power.calibrate")
    tracer.wrap(EnergyOptimizer, "preprocess", "dvfs.preprocess")
    tracer.wrap(core_optimizer, "StrategyScorer", "dvfs.scorer_build")
    tracer.wrap(core_optimizer, "run_search", "dvfs.ga")
    tracer.wrap(
        GuardedDvfsExecutor, "execute_with_baseline", "dvfs.execute"
    )


def measure(state: dict, seconds: float, tracer=None) -> Samples:
    """Closed loop: the next request starts when the previous returns."""
    samples = Samples()
    saved, generations, evaluations = [], [], []
    fast_runs = reference_runs = 0
    deadline = time.perf_counter() + seconds
    done = []
    for name, trace_seed in state["requests"]:
        if time.perf_counter() >= deadline:
            break
        samples.attempted += 1
        samples.reference.append(reference_seconds())
        report, device, latency = _optimize(name, trace_seed, tracer)
        samples.latencies.append(latency)
        samples.slow.append(name == HEAVY)
        if report.performance_loss > report.performance_loss_target:
            samples.problems.append(
                f"{name} seed {trace_seed}: measured loss "
                f"{report.performance_loss:.4%} over the "
                f"{report.performance_loss_target:.0%} target"
            )
        saved.append(soc_energy_saved(report))
        generations.append(report.search.generations)
        evaluations.append(report.search.evaluations)
        fast_runs += device.fast_path_runs
        reference_runs += device.reference_runs
        done.append((name, trace_seed, report.strategy.to_json()))
    samples.busy_seconds = sum(samples.latencies)
    samples.extra = {
        "done": done,
        "soc_saved_pct": 100.0 * float(np.mean(saved)) if saved else 0.0,
        "ga_generations": float(np.mean(generations)) if generations else 0,
        "oracle_evaluations": (
            float(np.mean(evaluations)) if evaluations else 0
        ),
        "fast_path_share": (
            fast_runs / (fast_runs + reference_runs) if fast_runs else 0.0
        ),
    }
    return samples


def check(state: dict, samples: Samples) -> list[str]:
    """Loss within target (checked per request) and byte-identical replays."""
    problems = list(samples.problems)
    done = samples.extra["done"]
    if not done:
        return problems + ["no request completed"]
    rng = np.random.default_rng([state["seed"], 0x4E9])
    picks = {0} | {int(i) for i in rng.integers(0, len(done), REPLAYS - 1)}
    for index in sorted(picks):
        name, trace_seed, strategy_json = done[index]
        report, _, _ = _optimize(name, trace_seed)
        if report.strategy.to_json() != strategy_json:
            problems.append(
                f"{name} seed {trace_seed}: strategy JSON differs on replay"
            )
    return problems


def teardown(state: dict) -> None:
    """Nothing to release: every request owns its objects."""


def end_to_end(state: dict, samples: Samples) -> dict:
    """The cold path's view of the shared end-to-end metrics."""
    latencies = samples.latencies
    heavy = samples.slow_latencies()
    print(latency_line("cold request", latencies, TAIL))
    print(latency_line(f"{HEAVY} x{SCALE} request", heavy, TAIL))
    factor = slowdown(samples.reference)
    return {
        "p50_ms": 1e3 * percentile(latencies, 50) / factor,
        "slow_p50_ms": 1e3 * percentile(heavy, 50) / factor,
        "ops_per_s": factor * len(latencies) / samples.busy_seconds,
        "sim_saved_pct": samples.extra["soc_saved_pct"],
    }


def counters(state: dict, samples: Samples) -> dict:
    """GA work and engine routing, averaged per request."""
    return {
        "dvfs.ga_generations": samples.extra["ga_generations"],
        "dvfs.oracle_evaluations": samples.extra["oracle_evaluations"],
        "npu.fast_path_share": samples.extra["fast_path_share"],
    }


def stage_roots(state: dict, tracer) -> dict:
    """End-to-end spans whose stage tables the traced run prints."""
    return {"cold request": tracer.by_name("cold.request")}
