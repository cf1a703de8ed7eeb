"""Shared calibration observations and the guard's column checks.

The device half of the offline calibration is observed once per spec and
shared across optimizers; each optimizer's telemetry reads it with its own
noise.  Constants and the telemetry stream must match a calibration that
re-runs the device, bit for bit.  The guard's post-hoc checks read the
engine's columns instead of building chunk and record objects, and must
read the same values the objects hold.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.core.optimizer as optimizer_module
from repro import fidelity
from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer, _calibration_loads
from repro.npu import NpuDevice, default_npu_spec
from repro.npu.engine import _ChunkArrays, peak_chunk_celsius, start_freqs
from repro.npu.faults import FaultConfig
from repro.npu.setfreq import (
    AnchoredFrequencyPlan,
    AnchoredSwitch,
    FrequencySwitch,
    FrequencyTimeline,
)
from repro.power import run_offline_calibration
from repro.workloads import generate

TELEMETRY_FAULTS = FaultConfig(
    telemetry_dropout_rate=0.1,
    telemetry_stuck_rate=0.1,
    telemetry_spike_rate=0.2,
)

#: sha256 over the float.hex of the fitted constants and the injector's
#: event log of a calibration under TELEMETRY_FAULTS, seeds 0-4, recorded
#: while every calibration still re-ran the device.
FAULTED_CALIBRATION_DIGEST = (
    "b10e1fdf5c1b13e65d2396a06291f36367ef413f3ad3ccf2ebca1200221fea63"
)


@pytest.fixture()
def observations(monkeypatch):
    """An empty process-wide observation cache for one test."""
    cache: dict = {}
    monkeypatch.setattr(optimizer_module, "_OBSERVATIONS", cache)
    return cache


def _uncached(config: OptimizerConfig, trace=None):
    """Constants and optimizer from a calibration that re-runs the device."""
    optimizer = EnergyOptimizer(config)
    if trace is not None:
        optimizer.profile(trace)
    test_load, k_loads = _calibration_loads()
    constants = run_offline_calibration(
        optimizer.device, optimizer.telemetry, test_load, k_loads
    )
    return constants, optimizer


def _cached(config: OptimizerConfig, trace=None):
    optimizer = EnergyOptimizer(config)
    if trace is not None:
        optimizer.profile(trace)
    return optimizer.calibrate(), optimizer


def _state(optimizer: EnergyOptimizer):
    return optimizer.telemetry.rng.bit_generator.state


# ---------------------------------------------------------------------------
# Shared calibration observations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_first", [False, True])
def test_cached_calibration_matches_uncached(observations, profile_first):
    trace = generate("bert", scale=0.05, seed=2) if profile_first else None
    for seed in range(10):
        config = OptimizerConfig(seed=seed)
        want, reference = _uncached(config, trace)
        got, optimizer = _cached(config, trace)
        assert repr(got) == repr(want)
        assert _state(optimizer) == _state(reference)
        assert optimizer.profiler.rng.bit_generator.state == (
            reference.profiler.rng.bit_generator.state
        )
    # One spec, one observation, shared by every seed.
    assert len(observations) == 1


def test_telemetry_faults_read_the_shared_observation(observations):
    digest = hashlib.sha256()
    for seed in range(5):
        config = OptimizerConfig(seed=seed, fault=TELEMETRY_FAULTS)
        want, reference = _uncached(config)
        got, optimizer = _cached(config)
        assert repr(got) == repr(want)
        assert optimizer.injector.events == reference.injector.events
        assert _state(optimizer) == _state(reference)
        values = (
            got.aicore_idle.beta_w_per_ghz_v2,
            got.aicore_idle.theta_w_per_v,
            got.soc_idle.beta_w_per_ghz_v2,
            got.soc_idle.theta_w_per_v,
            got.gamma_aicore_w_per_c_v,
            got.gamma_soc_w_per_c_v,
            got.k_celsius_per_watt,
            got.ambient_celsius,
        )
        digest.update(
            " ".join(float(v).hex() for v in values).encode() + b"\n"
        )
        for event in optimizer.injector.events:
            digest.update(
                f"{event.site} {event.kind} {event.time_us!r} "
                f"{event.detail}\n".encode()
            )
    assert len(observations) == 1
    assert digest.hexdigest() == FAULTED_CALIBRATION_DIGEST


def test_reference_engine_neither_reads_nor_fills_the_cache(observations):
    config = OptimizerConfig(seed=3)
    with fidelity.reference("engine"):
        want, _ = _cached(config)
    assert observations == {}
    # Plant another spec's observation under this spec's key: a read
    # would calibrate against the wrong ambient.
    hotter = _hotter_spec(default_npu_spec(), 10.0)
    EnergyOptimizer(OptimizerConfig(npu=hotter)).calibrate()
    (planted,) = observations.values()
    observations.clear()
    observations[repr(config.npu)] = planted
    with fidelity.reference("engine"):
        got, optimizer = _cached(config)
    assert repr(got) == repr(want)
    assert optimizer.device.reference_runs > 0
    assert optimizer.device.fast_path_runs == 0
    assert list(observations.values()) == [planted]


def _hotter_spec(npu, offset: float):
    return replace(
        npu,
        thermal=replace(
            npu.thermal,
            ambient_celsius=npu.thermal.ambient_celsius + offset,
        ),
    )


def test_ambient_temperature_gets_its_own_entry(observations):
    base = default_npu_spec()
    hotter = _hotter_spec(base, 5.0)
    for npu in (base, hotter):
        config = OptimizerConfig(npu=npu, seed=1)
        got, _ = _cached(config)
        want, _ = _uncached(config)
        assert repr(got) == repr(want)
        assert got.ambient_celsius == npu.thermal.ambient_celsius
    assert set(observations) == {repr(base), repr(hotter)}


def test_cache_stays_bounded(observations, monkeypatch):
    monkeypatch.setattr(optimizer_module, "_OBSERVATION_LIMIT", 2)
    base = default_npu_spec()
    specs = [_hotter_spec(base, float(offset)) for offset in range(4)]
    for npu in specs:
        EnergyOptimizer(OptimizerConfig(npu=npu)).calibrate()
        assert len(observations) <= 2
    # The oldest entries go first.
    assert set(observations) == {repr(specs[2]), repr(specs[3])}


def test_concurrent_misses_and_evictions_agree(observations, monkeypatch):
    # More threads than cores, three specs over a two-entry cache: racing
    # misses, fills and evictions must still give every optimizer the
    # constants of an uncached calibration.
    monkeypatch.setattr(optimizer_module, "_OBSERVATION_LIMIT", 2)
    base = default_npu_spec()
    specs = [_hotter_spec(base, float(offset)) for offset in range(3)]
    configs = [OptimizerConfig(npu=specs[i % 3], seed=i) for i in range(6)]
    want = [repr(_uncached(config)[0]) for config in configs]
    got: list = [None] * len(configs)

    def work(i: int) -> None:
        got[i] = repr(EnergyOptimizer(configs[i]).calibrate())

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(len(configs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    assert len(observations) <= 2


def test_observation_is_shared_not_rerun(observations):
    EnergyOptimizer(OptimizerConfig(seed=0)).calibrate()
    optimizer = EnergyOptimizer(OptimizerConfig(seed=1))
    optimizer.calibrate()
    assert optimizer.device.fast_path_runs == 0
    assert optimizer.device.reference_runs == 0


# ---------------------------------------------------------------------------
# Guard checks on engine columns
# ---------------------------------------------------------------------------


def _object_peak(result) -> float:
    return max(chunk.celsius for chunk in result.chunks)


def _object_starts(result, indices) -> list[float]:
    return [result.records[i].start_freq_mhz for i in indices]


def _plans(n_ops: int):
    anchored = AnchoredFrequencyPlan(
        1000.0,
        [
            AnchoredSwitch(op_index=n_ops // 4, freq_mhz=1800.0),
            AnchoredSwitch(op_index=n_ops // 2, freq_mhz=1300.0),
            AnchoredSwitch(op_index=3 * n_ops // 4, freq_mhz=1600.0),
        ],
    )
    switching = FrequencyTimeline(
        1200.0,
        (
            FrequencySwitch(time_us=500.0, freq_mhz=1800.0),
            FrequencySwitch(time_us=2_500.0, freq_mhz=1000.0),
        ),
    )
    return {
        "anchored": anchored,
        "constant": FrequencyTimeline.constant(1500.0),
        "switching": switching,
    }


@pytest.mark.parametrize("kind", ["anchored", "constant", "switching"])
@pytest.mark.parametrize("initial_celsius", [None, 70.0])
def test_column_checks_match_object_walk(small_bert_trace, kind, initial_celsius):
    n_ops = small_bert_trace.operator_count
    indices = [0, 1, n_ops // 4, n_ops // 2, n_ops - 1]
    device = NpuDevice(default_npu_spec())
    result = device.run(
        small_bert_trace, _plans(n_ops)[kind], initial_celsius=initial_celsius
    )
    assert device.fast_path_runs == 1
    peak = peak_chunk_celsius(result)
    starts = start_freqs(result, indices)
    if kind != "constant":
        # Column-backed results answer without building any object.
        assert isinstance(result.chunks.source, _ChunkArrays)
        assert result.chunks._items is None
        assert result.records._items is None
    assert peak == _object_peak(result)
    assert starts == _object_starts(result, indices)
    assert all(type(f) is float for f in starts)


def test_reference_tuple_result_takes_the_object_fallback(small_bert_trace):
    n_ops = small_bert_trace.operator_count
    indices = [0, n_ops // 4, n_ops // 2, n_ops - 1]
    plan = _plans(n_ops)["anchored"]
    with fidelity.reference("engine"):
        reference = NpuDevice(default_npu_spec()).run(small_bert_trace, plan)
    assert isinstance(reference.chunks, tuple)
    assert isinstance(reference.records, tuple)
    assert peak_chunk_celsius(reference) == _object_peak(reference)
    assert start_freqs(reference, indices) == _object_starts(
        reference, indices
    )
    fast = NpuDevice(default_npu_spec()).run(small_bert_trace, plan)
    assert start_freqs(fast, indices) == start_freqs(reference, indices)


def test_healthy_guard_builds_no_strategy_objects(small_bert_trace):
    optimizer = EnergyOptimizer(OptimizerConfig(seed=0))
    report = optimizer.optimize(small_bert_trace)
    outcome = optimizer.guarded_executor.execute_with_baseline(
        small_bert_trace, report.strategy
    )
    assert not outcome.fell_back
    assert outcome.result.chunks._items is None
    assert outcome.result.records._items is None


# ---------------------------------------------------------------------------
# Import cost
# ---------------------------------------------------------------------------


def test_package_import_does_not_load_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import repro, repro.core.optimizer, repro.serve, repro.fleet\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
