"""Software substitute for Ascend's ``lpmi_tool`` power telemetry.

The paper samples SoC/AICore power and chip temperature during runs and
cooldowns.  :class:`PowerTelemetry` resamples the device's piecewise-
constant power chunks at a fixed interval, adding sensor noise, and offers
the aggregate measurements the calibration flow needs (average power over a
run, cooldown decay traces).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import ProfilingError
from repro.npu.device import ExecutionResult, PowerChunk
from repro.npu.spec import NpuSpec
from repro.units import US_PER_S


@dataclass(frozen=True)
class PowerSample:
    """One telemetry reading."""

    time_us: float
    soc_watts: float
    aicore_watts: float
    celsius: float


@dataclass(frozen=True)
class PowerMeasurement:
    """Aggregate power measurement over a run (what Table 3 reports)."""

    duration_us: float
    soc_avg_watts: float
    aicore_avg_watts: float
    avg_celsius: float


def _column(values) -> np.ndarray:
    """A read-only float column: observations are shared between readers."""
    column = np.array(values, dtype=float)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class WindowColumns:
    """Noise-free per-chunk columns of one aggregate-measurement window."""

    #: First chunk start to last chunk end.
    span_us: float
    duration_us: np.ndarray
    soc_watts: np.ndarray
    aicore_watts: np.ndarray
    celsius: np.ndarray

    @classmethod
    def of(cls, chunks: Sequence[PowerChunk]) -> "WindowColumns":
        """The columns a meter integrates over ``chunks``."""
        if not chunks:
            raise ProfilingError("no power chunks to measure")
        return cls(
            span_us=chunks[-1].end_us - chunks[0].start_us,
            duration_us=_column([c.duration_us for c in chunks]),
            soc_watts=_column([c.soc_watts for c in chunks]),
            aicore_watts=_column([c.aicore_watts for c in chunks]),
            celsius=_column([c.celsius for c in chunks]),
        )

    @cached_property
    def averages(self) -> PowerMeasurement:
        """Noise-free energy-weighted averages over the window.

        Computed once per window, so a shared window is averaged once.
        """
        weights = self.duration_us
        return PowerMeasurement(
            duration_us=self.span_us,
            soc_avg_watts=float(np.average(self.soc_watts, weights=weights)),
            aicore_avg_watts=float(
                np.average(self.aicore_watts, weights=weights)
            ),
            avg_celsius=float(np.average(self.celsius, weights=weights)),
        )


@dataclass(frozen=True, eq=False)
class SampleRows:
    """Sensor rows at each sampling time, as columns.

    :meth:`of` takes the noise-free rows under the sensor;
    :meth:`PowerTelemetry.read_rows` returns the noisy rows it reads.
    """

    time_us: tuple[float, ...]
    soc_watts: np.ndarray
    aicore_watts: np.ndarray
    celsius: np.ndarray

    @classmethod
    def of(
        cls, chunks: Sequence[PowerChunk], interval_us: float
    ) -> "SampleRows":
        """The chunk under the sensor every ``interval_us``."""
        if not chunks:
            raise ProfilingError("no power chunks to sample")
        if interval_us <= 0:
            raise ProfilingError(f"interval must be positive: {interval_us}")
        times: list[float] = []
        sources: list[PowerChunk] = []
        chunk_iter = iter(chunks)
        current = next(chunk_iter)
        t = chunks[0].start_us
        end = chunks[-1].end_us
        while t < end:
            while current.end_us <= t:
                current = next(chunk_iter)
            times.append(t)
            sources.append(current)
            t += interval_us
        return cls(
            time_us=tuple(times),
            soc_watts=_column([c.soc_watts for c in sources]),
            aicore_watts=_column([c.aicore_watts for c in sources]),
            celsius=_column([c.celsius for c in sources]),
        )

    def samples(self) -> list[PowerSample]:
        """One :class:`PowerSample` per row."""
        # Frozen-dataclass __init__ pays object.__setattr__ per field;
        # installing the instance dict directly builds identical samples.
        new_sample = PowerSample.__new__
        set_dict = object.__setattr__
        samples: list[PowerSample] = []
        for t, s, a, c in zip(
            self.time_us,
            self.soc_watts.tolist(),
            self.aicore_watts.tolist(),
            self.celsius.tolist(),
        ):
            sample = new_sample(PowerSample)
            set_dict(
                sample,
                "__dict__",
                {"time_us": t, "soc_watts": s, "aicore_watts": a, "celsius": c},
            )
            samples.append(sample)
        return samples


def true_measurement(result: ExecutionResult) -> PowerMeasurement:
    """Noise-free aggregate measurement of a full execution."""
    weights = np.array([c.duration_us for c in result.chunks])
    temps = np.array([c.celsius for c in result.chunks])
    return PowerMeasurement(
        duration_us=result.duration_us,
        soc_avg_watts=result.soc_avg_watts,
        aicore_avg_watts=result.aicore_avg_watts,
        avg_celsius=float(np.average(temps, weights=weights)),
    )


class PowerTelemetry:
    """Samples and aggregates power data with sensor noise.

    Each reading kind has one noise path over noise-free columns
    (:meth:`read_rows`, :meth:`read`); the chunk- and result-level
    entry points only build those columns.  Subclasses that corrupt
    readings override the column-level methods.
    """

    def __init__(self, npu: NpuSpec, rng: np.random.Generator) -> None:
        self._npu = npu
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        """The instrument's noise stream (shared with grid profiling)."""
        return self._rng

    def sample_chunks(
        self, chunks: Sequence[PowerChunk], interval_us: float = 1000.0
    ) -> list[PowerSample]:
        """Read sensors every ``interval_us`` across a chunk sequence."""
        return self.read_rows(SampleRows.of(chunks, interval_us)).samples()

    def read_rows(self, rows: SampleRows) -> SampleRows:
        """Noisy readings of noise-free sensor rows."""
        noise = self._npu.noise
        # One draw replaces the per-sample scalar normals: the stream is
        # consumed in the same (soc, aicore, celsius) order, skipping the
        # terms whose sigma is zero, so values and the final generator
        # state match the scalar loop exactly.
        power_on = noise.power_sigma > 0
        celsius_on = noise.temperature_sigma_celsius > 0
        sigmas = [noise.power_sigma] * (2 * power_on) + [
            noise.temperature_sigma_celsius
        ] * celsius_on
        n = len(rows.time_us)
        draws = self._rng.normal(0.0, np.tile(sigmas, n)).reshape(
            n, len(sigmas)
        )
        soc = rows.soc_watts
        aicore = rows.aicore_watts
        if power_on:
            soc = soc * np.maximum(0.5, 1.0 + draws[:, 0])
            aicore = aicore * np.maximum(0.5, 1.0 + draws[:, 1])
        return SampleRows(
            time_us=rows.time_us,
            soc_watts=soc,
            aicore_watts=aicore,
            celsius=rows.celsius + (draws[:, -1] if celsius_on else 0.0),
        )

    def measure(self, result: ExecutionResult) -> PowerMeasurement:
        """Noisy aggregate measurement of a full execution.

        Averages are energy-weighted (true averages) with one multiplicative
        sensor error applied, matching how a power meter integrates.
        """
        return self.read(true_measurement(result))

    def measure_chunks(self, chunks: Sequence[PowerChunk]) -> PowerMeasurement:
        """Noisy aggregate measurement over an arbitrary chunk sequence."""
        return self.read(WindowColumns.of(chunks).averages)

    def read(self, truth: PowerMeasurement) -> PowerMeasurement:
        """Noisy reading of a noise-free aggregate measurement.

        Draws the SoC then the AICore error; duration and temperature
        are read exactly.
        """
        noise = self._npu.noise
        return PowerMeasurement(
            duration_us=truth.duration_us,
            soc_avg_watts=self._noisy(truth.soc_avg_watts, noise.power_sigma),
            aicore_avg_watts=self._noisy(
                truth.aicore_avg_watts, noise.power_sigma
            ),
            avg_celsius=truth.avg_celsius,
        )

    def energy_joules(self, result: ExecutionResult) -> tuple[float, float]:
        """Noisy ``(aicore, soc)`` energy readings for a run."""
        noise = self._npu.noise
        return (
            self._noisy(result.aicore_energy_j, noise.power_sigma),
            self._noisy(result.soc_energy_j, noise.power_sigma),
        )

    def measure_operator_power(
        self, result: ExecutionResult
    ) -> dict[str, tuple[float, float]]:
        """Per-operator-name ``(aicore, soc)`` average power readings.

        Attribution works like high-rate sampling synchronised with the
        profiler timeline: each operator's chunks are energy-averaged, then
        one multiplicative sensor error is applied per operator name.
        """
        noise = self._npu.noise
        energy_a: dict[str, float] = {}
        energy_s: dict[str, float] = {}
        time_us: dict[str, float] = {}
        names = {r.index: r.evaluation.spec.name for r in result.records}
        for chunk in result.chunks:
            name = names.get(chunk.op_index)
            if name is None:
                continue
            energy_a[name] = energy_a.get(name, 0.0) + (
                chunk.aicore_watts * chunk.duration_us
            )
            energy_s[name] = energy_s.get(name, 0.0) + (
                chunk.soc_watts * chunk.duration_us
            )
            time_us[name] = time_us.get(name, 0.0) + chunk.duration_us
        readings: dict[str, tuple[float, float]] = {}
        for name, total_us in time_us.items():
            readings[name] = (
                self._noisy(energy_a[name] / total_us, noise.power_sigma),
                self._noisy(energy_s[name] / total_us, noise.power_sigma),
            )
        return readings

    @staticmethod
    def true_average_power(chunks: Sequence[PowerChunk]) -> tuple[float, float]:
        """Noise-free ``(aicore, soc)`` average power over chunks."""
        if not chunks:
            raise ProfilingError("no power chunks given")
        total_us = sum(c.duration_us for c in chunks)
        aicore_j = sum(c.aicore_watts * c.duration_us / US_PER_S for c in chunks)
        soc_j = sum(c.soc_watts * c.duration_us / US_PER_S for c in chunks)
        seconds = total_us / US_PER_S
        return aicore_j / seconds, soc_j / seconds

    def _noisy(self, value: float, sigma: float) -> float:
        if sigma <= 0:
            return value
        return float(value * max(0.5, 1.0 + self._rng.normal(0.0, sigma)))
