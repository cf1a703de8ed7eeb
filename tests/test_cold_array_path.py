"""Bitwise contracts of the array-speed cold path.

The execute and calibrate stages of a cold request run as array code:
frequency columns are primed from one vectorised unique-spec grid, the
idle cooldown loop hoists its loop invariants, and telemetry draws its
sensor noise in one call.  Each of these must reproduce its scalar
reference bit for bit — values *and* random-stream position — because
strategies, genes and measured reports are pinned byte for byte.  The
process-wide compiled-trace cache must also hold traces weakly, so it
never keeps dead traces (and their tables) alive.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import VariedEvaluator
from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer
from repro.npu import GroundTruthEvaluator, NpuDevice, default_npu_spec
from repro.npu import engine as engine_module
from repro.npu.device import PowerChunk
from repro.npu.engine import CompiledTrace, TraceEngine
from repro.npu.pipelines import Pipe
from repro.npu.spec import NoiseSpec
from repro.npu.telemetry import PowerSample, PowerTelemetry
from repro.npu.thermal import ThermalState
from repro.npu.timeline import Scenario
from repro.npu.vectoreval import evaluate_unique_grid
from repro.workloads import generate
from repro.workloads.trace import Trace, TraceEntry

from tests.conftest import make_compute_op

GRID = tuple(1000.0 + 100.0 * i for i in range(9))
MODELS = ("gpt3", "bert", "resnet50", "vgg19", "vit_base", "llama2_inference")


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# Grid kernel underflow (regression)
# ---------------------------------------------------------------------------


def test_grid_matches_scalar_when_transfer_terms_underflow():
    """A subnormal store volume underflows both smooth_max terms to 0.

    The scalar ``smooth_max`` returns ``max(0, 0)``; the grid kernel used
    to compute ``0/0`` and return NaN (hypothesis falsifying example).
    """
    spec = default_npu_spec()
    evaluator = GroundTruthEvaluator(spec)
    op = make_compute_op(
        scenario=Scenario.PINGPONG_FREE_INDEPENDENT,
        n_blocks=1,
        core_cycles=1000.0,
        ld_bytes=0.0,
        st_bytes=5e-324,
        overhead_us=0.0,
        mix={Pipe.CUBE: 1.0},
    )
    grid = evaluate_unique_grid(evaluator, [op], GRID)
    for j, freq in enumerate(GRID):
        expected = evaluator.evaluate(op, freq).duration_us
        assert np.isfinite(grid.dur[0, j])
        assert _bits(grid.dur[0, j]) == _bits(expected)
    assert grid.dur[0, 0] == pytest.approx(1.05)


# ---------------------------------------------------------------------------
# Grid-primed columns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_primed_columns_equal_scalar_columns(model):
    trace = generate(model, scale=0.1, seed=3)
    spec = default_npu_spec()
    evaluator = GroundTruthEvaluator(spec)
    primed = CompiledTrace(trace, evaluator)
    scalar = CompiledTrace(trace, GroundTruthEvaluator(spec))
    primed.prime_columns(GRID)
    assert primed.column_count == len(GRID)
    assert primed._grids == {}  # only the columns are kept
    assert evaluator.cache_misses == 0  # no per-spec scalar evaluation
    for freq in GRID:
        got, want = primed.column(freq), scalar.scalar_column(freq)
        for field in ("dur", "a0", "ga", "s0", "gs"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field))
        for field in ("idle_a0", "idle_ga", "idle_s0", "idle_gs"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field))


def test_single_column_is_grid_built(small_bert_trace):
    evaluator = GroundTruthEvaluator(default_npu_spec())
    compiled = CompiledTrace(small_bert_trace, evaluator)
    col = compiled.column(1300.0)
    assert evaluator.cache_misses == 0
    assert compiled.column(1300.0) is col
    assert _bits(col.dur) == _bits(compiled.scalar_column(1300.0).dur)


def test_wrapped_evaluator_keeps_scalar_columns(small_bert_trace):
    spec = default_npu_spec()
    inner = GroundTruthEvaluator(spec)
    wrapped = VariedEvaluator(inner, 1.1)
    compiled = CompiledTrace(small_bert_trace, wrapped)
    compiled.prime_columns(GRID)
    assert compiled.column_count == len(GRID)
    assert inner.cache_misses > 0  # built through evaluator calls
    for freq in GRID:
        got = compiled.column(freq)
        want = compiled.scalar_column(freq)
        assert _bits(got.dur) == _bits(want.dur)
        assert _bits(got.gs) == _bits(want.gs)
    device = NpuDevice(spec, evaluator=wrapped)
    result = device.run_stable(small_bert_trace)
    assert device.fast_path_runs > 0 and result.duration_us > 0


# ---------------------------------------------------------------------------
# Hoisted idle loop
# ---------------------------------------------------------------------------


def _chunk_bits(chunks: list[PowerChunk]) -> list[str]:
    return [repr(c) for c in chunks]


@given(
    freq=st.sampled_from(GRID),
    celsius=st.one_of(st.none(), st.floats(10.0, 110.0)),
    duration=st.floats(1.0, 1e8),
    steps=st.integers(1, 700),
)
@settings(max_examples=60, deadline=None)
def test_hoisted_idle_loop_matches_reference(freq, celsius, duration, steps):
    device = NpuDevice(default_npu_spec())
    fast = device.run_idle(duration, freq, initial_celsius=celsius, steps=steps)
    reference = device._run_idle_reference(
        freq,
        ThermalState(device.npu.thermal, celsius),
        duration / steps,
        steps,
    )
    assert _chunk_bits(fast) == _chunk_bits(reference)


def test_calibration_cooldown_matches_reference():
    """The cooldown extract_gamma runs (600 steps, 60 s) is bit-identical."""
    device = NpuDevice(default_npu_spec())
    fast = device.run_idle(60_000_000.0, 1000.0, initial_celsius=80.0, steps=600)
    reference = device._run_idle_reference(
        1000.0, ThermalState(device.npu.thermal, 80.0), 100_000.0, 600
    )
    assert _chunk_bits(fast) == _chunk_bits(reference)


class _CountingEvaluator(GroundTruthEvaluator):
    """A wrapped evaluator: any subclass keeps the reference idle loop."""

    soc_calls = 0

    def idle_soc_power(self, freq_mhz, delta_celsius):
        self.soc_calls += 1
        return super().idle_soc_power(freq_mhz, delta_celsius)


def test_wrapped_evaluator_takes_reference_idle_loop():
    spec = default_npu_spec()
    counting = _CountingEvaluator(spec)
    chunks = NpuDevice(spec, evaluator=counting).run_idle(
        1e6, 1400.0, initial_celsius=70.0, steps=25
    )
    assert counting.soc_calls == 25
    plain = NpuDevice(spec).run_idle(1e6, 1400.0, initial_celsius=70.0, steps=25)
    assert _chunk_bits(chunks) == _chunk_bits(plain)


# ---------------------------------------------------------------------------
# Batched telemetry sampling
# ---------------------------------------------------------------------------


def _scalar_samples(npu, rng, chunks, interval_us):
    """The per-sample loop sample_chunks replaced (test oracle)."""
    noise = npu.noise

    def noisy(value, sigma):
        if sigma <= 0:
            return value
        return float(value * max(0.5, 1.0 + rng.normal(0.0, sigma)))

    samples = []
    chunk_iter = iter(chunks)
    current = next(chunk_iter)
    t = chunks[0].start_us
    end = chunks[-1].end_us
    while t < end:
        while current.end_us <= t:
            current = next(chunk_iter)
        samples.append(
            PowerSample(
                time_us=t,
                soc_watts=noisy(current.soc_watts, noise.power_sigma),
                aicore_watts=noisy(current.aicore_watts, noise.power_sigma),
                celsius=current.celsius
                + (
                    rng.normal(0.0, noise.temperature_sigma_celsius)
                    if noise.temperature_sigma_celsius > 0
                    else 0.0
                ),
            )
        )
        t += interval_us
    return samples


@pytest.mark.parametrize(
    "power_sigma, temperature_sigma",
    [(0.03, 0.4), (0.0, 0.4), (0.03, 0.0), (0.0, 0.0), (0.6, 2.0)],
)
@pytest.mark.parametrize("interval_us", [100_000.0, 37_000.0, 2e7])
def test_batched_sampling_matches_scalar(
    power_sigma, temperature_sigma, interval_us
):
    npu = default_npu_spec().with_noise(
        NoiseSpec(
            power_sigma=power_sigma,
            temperature_sigma_celsius=temperature_sigma,
        )
    )
    chunks = NpuDevice(npu).run_idle(
        60_000_000.0, 1000.0, initial_celsius=85.0, steps=600
    )
    batched_rng = np.random.default_rng(11)
    scalar_rng = np.random.default_rng(11)
    batched = PowerTelemetry(npu, batched_rng).sample_chunks(
        chunks, interval_us
    )
    scalar = _scalar_samples(npu, scalar_rng, chunks, interval_us)
    assert [repr(s) for s in batched] == [repr(s) for s in scalar]
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
    # The streams stay aligned for whatever draws next.
    assert batched_rng.normal() == scalar_rng.normal()


# ---------------------------------------------------------------------------
# Calibration constants
# ---------------------------------------------------------------------------

#: sha256 over the float.hex of every fitted CalibrationConstants field
#: for seeds 0-9, recorded before the calibration loops were vectorised.
CALIBRATION_DIGEST = (
    "662b4dcd241bcab30a88092ff117183f03164dbc5f31f11c3bf61daa547e030c"
)


def test_calibration_constants_are_pinned():
    digest = hashlib.sha256()
    for seed in range(10):
        c = EnergyOptimizer(OptimizerConfig(seed=seed)).calibrate()
        values = (
            c.aicore_idle.beta_w_per_ghz_v2,
            c.aicore_idle.theta_w_per_v,
            c.soc_idle.beta_w_per_ghz_v2,
            c.soc_idle.theta_w_per_v,
            c.gamma_aicore_w_per_c_v,
            c.gamma_soc_w_per_c_v,
            c.k_celsius_per_watt,
            c.ambient_celsius,
        )
        digest.update(
            " ".join(float(v).hex() for v in values).encode() + b"\n"
        )
    assert digest.hexdigest() == CALIBRATION_DIGEST


# ---------------------------------------------------------------------------
# Weak compiled-trace cache
# ---------------------------------------------------------------------------


def _fresh_trace(name: str = "weak") -> Trace:
    entries = tuple(
        TraceEntry(spec=make_compute_op(name=f"{name}{i}", n_blocks=2 + i))
        for i in range(3)
    )
    return Trace(name=name, entries=entries)


def _shared_keys_for(trace_id: int) -> list:
    return [k for k in engine_module._SHARED_COMPILED if k[0] == trace_id]


def test_compiled_trace_does_not_keep_its_trace_alive():
    trace = _fresh_trace()
    compiled = TraceEngine(default_npu_spec(), GroundTruthEvaluator(
        default_npu_spec()
    )).compiled(trace)
    ref = weakref.ref(trace)
    assert compiled.trace is trace and compiled.name == "weak"
    del trace
    gc.collect()
    assert ref() is None
    assert compiled.trace is None
    # Records still resolve through the kept entries.
    assert compiled.evaluation_for(0, 1800.0).duration_us > 0


def test_shared_entry_drops_when_trace_is_collected():
    spec = default_npu_spec()
    trace = _fresh_trace()
    trace_id = id(trace)
    device = NpuDevice(spec)
    device.run_stable(trace)
    assert len(_shared_keys_for(trace_id)) == 1
    del trace, device
    gc.collect()
    assert _shared_keys_for(trace_id) == []


def test_shared_entry_hits_while_trace_is_alive():
    spec = default_npu_spec()
    trace = _fresh_trace()
    first = NpuDevice(spec)
    first.run_stable(trace)
    compiled = first.engine.compiled(trace)
    second = NpuDevice(spec)
    assert second.engine.compiled(trace) is compiled
    before = compiled.column_count
    second.run_stable(trace)
    assert compiled.column_count == before  # columns reused, not rebuilt


def test_reused_id_never_returns_a_stale_lowering():
    spec = default_npu_spec()
    stale = TraceEngine(spec, GroundTruthEvaluator(spec)).compiled(
        _fresh_trace("old")
    )
    gc.collect()
    trace = _fresh_trace("new")
    # Plant the dead trace's lowering under the live trace's id, as if the
    # id had been reused before the callback ran.
    engine = TraceEngine(spec, GroundTruthEvaluator(spec))
    key = (id(trace), engine._spec_key())
    engine_module._SHARED_COMPILED[key] = (weakref.ref(_fresh_trace()), stale)
    gc.collect()
    compiled = engine.compiled(trace)
    assert compiled is not stale
    assert compiled.trace is trace and compiled.name == "new"
    # Natural id reuse: every lowering belongs to the trace it was asked for.
    for i in range(40):
        fresh = _fresh_trace(f"t{i}")
        got = TraceEngine(spec, GroundTruthEvaluator(spec)).compiled(fresh)
        assert got.trace is fresh and got.name == f"t{i}"
        del fresh, got


def test_shared_cache_under_concurrent_churn():
    """Threads compiling and dropping traces never see a stale lowering.

    Weakref callbacks remove shared entries from whichever thread drops
    the last reference, while other threads look up and insert.
    """
    spec = default_npu_spec()
    errors: list[BaseException] = []
    deadline = time.monotonic() + 1.0

    def worker(slot: int) -> None:
        try:
            i = 0
            while time.monotonic() < deadline:
                trace = _fresh_trace(f"s{slot}-{i}")
                device = NpuDevice(spec)
                result = device.run_stable(trace)
                assert result.trace_name == trace.name
                assert device.engine.compiled(trace).trace is trace
                del trace, device, result
                i += 1
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    gc.collect()
    for ref, _ in list(engine_module._SHARED_COMPILED.values()):
        assert ref() is not None
