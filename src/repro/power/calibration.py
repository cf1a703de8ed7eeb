"""Offline power-model calibration (paper Sect. 5.3-5.5, Fig. 11).

The offline phase extracts hardware-level constants once per accelerator
model, using only the instruments a real deployment has (idle measurements,
a test load, and the post-load cooldown):

* **Idle power** at two frequencies solves the load-independent model
  ``P_idle(f) = beta * f * V^2 + theta * V`` exactly (Sect. 5.3) — for the
  AICore rail and for the whole SoC.
* **Gamma** (the leakage-temperature slope): after a test load completes,
  power and temperature decay gradually; the slope ``dP/dAT = gamma * V``
  of the cooldown trace gives gamma (Sect. 5.4.2).
* **k** (the temperature-power slope of Eq. 15): running several loads and
  line-fitting chip temperature against SoC power (Fig. 10).

Each step splits into a device half, which runs the chip and keeps the
noise-free columns the instruments would read, and an instrument half,
which reads them with sensor noise and fits.  :func:`observe_calibration`
and :func:`measure_calibration` are the two halves of the whole phase;
:func:`run_offline_calibration` composes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.analysis.linear import LineFit, fit_line, solve_two_basis
from repro.errors import CalibrationError
from repro.npu.device import NpuDevice
from repro.npu.setfreq import FrequencyTimeline
from repro.npu.telemetry import (
    PowerMeasurement,
    PowerTelemetry,
    SampleRows,
    WindowColumns,
    true_measurement,
)
from repro.npu.voltage import VoltageCurve
from repro.workloads.trace import Trace

#: Idle settle before each idle-power reading.
_IDLE_SETTLE_US = 2_000_000.0
#: Post-load cooldown and its sample count (one reading per 100 ms).
_COOLDOWN_US = 60_000_000.0
_COOLDOWN_STEPS = 600


@dataclass(frozen=True)
class IdlePowerFit:
    """Fitted load-independent power ``P_idle(f) = beta f V^2 + theta V``."""

    beta_w_per_ghz_v2: float
    theta_w_per_v: float

    def predict(self, freq_mhz: float, volts: float) -> float:
        """Idle power at a frequency/voltage point."""
        f_ghz = freq_mhz / 1000.0
        return self.beta_w_per_ghz_v2 * f_ghz * volts * volts + (
            self.theta_w_per_v * volts
        )


@dataclass(frozen=True)
class CalibrationConstants:
    """Everything the offline phase extracts for one accelerator model."""

    voltage: VoltageCurve
    aicore_idle: IdlePowerFit
    soc_idle: IdlePowerFit
    #: Leakage-temperature coefficients, in W per (degree * volt).
    gamma_aicore_w_per_c_v: float
    gamma_soc_w_per_c_v: float
    #: Equilibrium temperature slope of Eq. (15), degrees per SoC watt.
    k_celsius_per_watt: float
    ambient_celsius: float

    def volts(self, freq_mhz: float) -> float:
        """Supply voltage at ``freq_mhz`` per the measured V-f curve."""
        return float(self.voltage.volts(freq_mhz))

    def without_thermal_term(self) -> "CalibrationConstants":
        """The gamma = 0 ablation of Sect. 7.3 (no temperature modelling)."""
        return replace(
            self, gamma_aicore_w_per_c_v=0.0, gamma_soc_w_per_c_v=0.0
        )


def _observe_idle(
    device: NpuDevice,
    freqs_mhz: tuple[float, float] | None,
    settle_us: float,
) -> tuple[tuple[float, WindowColumns], ...]:
    """Noise-free idle windows at two frequencies (device half)."""
    if freqs_mhz is None:
        grid = device.npu.frequencies
        freqs_mhz = (grid.min_mhz, grid.max_mhz)
    f1, f2 = freqs_mhz
    if f1 == f2:
        raise CalibrationError("idle calibration needs two distinct frequencies")
    # Idle near ambient: let the chip sit briefly, then read the meters.
    return tuple(
        (freq, WindowColumns.of(device.run_idle(settle_us, freq, steps=20)))
        for freq in freqs_mhz
    )


def _fit_idle(
    telemetry: PowerTelemetry,
    voltage: VoltageCurve,
    windows: tuple[tuple[float, WindowColumns], ...],
) -> tuple[IdlePowerFit, IdlePowerFit]:
    """Measure the idle windows and solve (beta, theta) per rail."""
    measurements = [
        (freq, float(voltage.volts(freq)), telemetry.read(window.averages))
        for freq, window in windows
    ]
    fits = []
    for attr in ("aicore_avg_watts", "soc_avg_watts"):
        (fa, va, ma), (fb, vb, mb) = measurements
        beta, theta = solve_two_basis(
            fa,
            getattr(ma, attr),
            fb,
            getattr(mb, attr),
            lambda f: (f / 1000.0) * float(voltage.volts(f)) ** 2,
            lambda f: float(voltage.volts(f)),
        )
        fits.append(IdlePowerFit(beta_w_per_ghz_v2=beta, theta_w_per_v=theta))
    return fits[0], fits[1]


def calibrate_idle_power(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    freqs_mhz: tuple[float, float] | None = None,
    settle_us: float = _IDLE_SETTLE_US,
) -> tuple[IdlePowerFit, IdlePowerFit]:
    """Measure idle power at two frequencies and solve (beta, theta).

    The default measurement points are the device grid's extremes (the
    paper uses 1000 and 1800 MHz on the Ascend NPU).

    Returns:
        ``(aicore_fit, soc_fit)``.

    Raises:
        CalibrationError: if the two frequencies coincide.
    """
    windows = _observe_idle(device, freqs_mhz, settle_us)
    return _fit_idle(telemetry, device.npu.voltage, windows)


@dataclass(frozen=True)
class CooldownObservation:
    """The gamma-extraction result from one post-load cooldown."""

    gamma_aicore_w_per_c_v: float
    gamma_soc_w_per_c_v: float
    aicore_fit: LineFit
    soc_fit: LineFit


def _observe_cooldown(
    device: NpuDevice,
    test_load: Trace,
    cooldown_us: float,
    cooldown_freq_mhz: float | None,
    steps: int,
) -> tuple[float, SampleRows]:
    """Heat with the test load, idle, and take the sensor rows (device half).

    Returns:
        ``(cooldown frequency, noise-free rows at each sampling time)``.
    """
    if cooldown_freq_mhz is None:
        cooldown_freq_mhz = device.npu.frequencies.min_mhz
    loaded = device.run_stable(test_load)
    chunks = device.run_idle(
        cooldown_us,
        cooldown_freq_mhz,
        initial_celsius=loaded.end_celsius,
        steps=steps,
    )
    return cooldown_freq_mhz, SampleRows.of(chunks, cooldown_us / steps)


def _fit_gamma(
    telemetry: PowerTelemetry,
    rows: SampleRows,
    volts: float,
    ambient_celsius: float,
) -> CooldownObservation:
    """Sample the cooldown rows and fit the power-vs-AT slopes."""
    samples = telemetry.read_rows(rows)
    deltas = samples.celsius - ambient_celsius
    span = float(deltas.max() - deltas.min())
    if span < 2.0:
        raise CalibrationError(
            "test load did not heat the chip enough for gamma extraction "
            f"(AT span {span:.2f} C)"
        )
    aicore_fit = fit_line(deltas, samples.aicore_watts)
    soc_fit = fit_line(deltas, samples.soc_watts)
    return CooldownObservation(
        gamma_aicore_w_per_c_v=aicore_fit.slope / volts,
        gamma_soc_w_per_c_v=soc_fit.slope / volts,
        aicore_fit=aicore_fit,
        soc_fit=soc_fit,
    )


def extract_gamma(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    test_load: Trace,
    cooldown_us: float = _COOLDOWN_US,
    cooldown_freq_mhz: float | None = None,
    steps: int = _COOLDOWN_STEPS,
) -> CooldownObservation:
    """Run a test load, then fit power-vs-AT slopes during the cooldown.

    The chip heats under the load; after it completes, power decays with
    temperature.  The decay slope ``dP/dAT`` equals ``gamma * V`` at the
    cooldown operating point (Sect. 5.4.2).  The chip never cools all the
    way to ambient (idle power keeps it tens of degrees up), so the usable
    AT span is small and many samples are needed to beat sensor noise —
    hence the dense default sampling (one reading per 100 ms).

    Raises:
        CalibrationError: if the load barely heats the chip (degenerate fit).
    """
    freq, rows = _observe_cooldown(
        device, test_load, cooldown_us, cooldown_freq_mhz, steps
    )
    return _fit_gamma(
        telemetry,
        rows,
        float(device.npu.voltage.volts(freq)),
        device.npu.thermal.ambient_celsius,
    )


def _observe_loads(
    device: NpuDevice,
    loads: Sequence[Trace],
    freqs_mhz: Sequence[float] | None,
) -> tuple[PowerMeasurement, ...]:
    """Noise-free equilibrium measurement per (load, frequency) pair."""
    if freqs_mhz is None:
        grid = device.npu.frequencies
        mid = grid.nearest((grid.min_mhz + grid.max_mhz) / 2.0)
        freqs_mhz = (grid.min_mhz, mid, grid.max_mhz)
    return tuple(
        true_measurement(
            device.run_stable(load, FrequencyTimeline.constant(freq))
        )
        for load in loads
        for freq in freqs_mhz
    )


def _fit_temperature_slope(
    telemetry: PowerTelemetry, truths: Sequence[PowerMeasurement]
) -> LineFit:
    """Measure each load point and fit temperature against SoC power."""
    points: list[tuple[float, float]] = []
    for truth in truths:
        measurement = telemetry.read(truth)
        points.append((measurement.soc_avg_watts, measurement.avg_celsius))
    if len(points) < 2:
        raise CalibrationError("need at least two load points to fit k")
    return fit_line([p for p, _ in points], [t for _, t in points])


def extract_temperature_slope(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    loads: Sequence[Trace],
    freqs_mhz: Sequence[float] | None = None,
) -> LineFit:
    """Fit Eq. (15)'s ``T = T0 + k * P_soc`` across loads (Fig. 10 data).

    Each (load, frequency) pair contributes one equilibrium point of SoC
    power and chip temperature.

    Raises:
        CalibrationError: with fewer than two loads/frequency combinations.
    """
    return _fit_temperature_slope(
        telemetry, _observe_loads(device, loads, freqs_mhz)
    )


@dataclass(frozen=True, eq=False)
class CalibrationObservation:
    """What the instruments read during the offline phase, before noise.

    The device half of Fig. 11 — idle settles, the heated cooldown and
    the load runs — starts every run from ambient or from the previous
    run's end state and draws no randomness, so it is a pure function of
    the device.  One observation can be measured any number of times by
    :func:`measure_calibration`, each time with its instrument's own
    sensor noise.  The arrays are shared; treat them as read-only.
    """

    voltage: VoltageCurve
    ambient_celsius: float
    #: ``(frequency, window)`` of each idle settle.
    idle: tuple[tuple[float, WindowColumns], ...]
    cooldown_volts: float
    #: Source rows at each sampling time of the post-load cooldown.
    cooldown: SampleRows
    #: Noise-free equilibrium measurement per (k-load, frequency) pair.
    loads: tuple[PowerMeasurement, ...]


def observe_calibration(
    device: NpuDevice,
    test_load: Trace,
    k_loads: Sequence[Trace] | None = None,
) -> CalibrationObservation:
    """The device half of Fig. 11: every run the offline phase needs.

    Args:
        device: the accelerator being characterised.
        test_load: a load that heats the chip for gamma extraction.
        k_loads: loads for the temperature-slope fit; defaults to the test
            load alone (several frequencies still give several points).
    """
    npu = device.npu
    idle = _observe_idle(device, None, _IDLE_SETTLE_US)
    freq, cooldown = _observe_cooldown(
        device, test_load, _COOLDOWN_US, None, _COOLDOWN_STEPS
    )
    loads = _observe_loads(
        device, list(k_loads) if k_loads else [test_load], None
    )
    return CalibrationObservation(
        voltage=npu.voltage,
        ambient_celsius=npu.thermal.ambient_celsius,
        idle=idle,
        cooldown_volts=float(npu.voltage.volts(freq)),
        cooldown=cooldown,
        loads=loads,
    )


def measure_calibration(
    observation: CalibrationObservation, telemetry: PowerTelemetry
) -> CalibrationConstants:
    """The instrument half of Fig. 11: read, then fit the constants.

    Readings draw their noise in the order the offline phase takes them
    (idle windows, cooldown samples, load points).
    """
    aicore_idle, soc_idle = _fit_idle(
        telemetry, observation.voltage, observation.idle
    )
    cooldown = _fit_gamma(
        telemetry,
        observation.cooldown,
        observation.cooldown_volts,
        observation.ambient_celsius,
    )
    k_fit = _fit_temperature_slope(telemetry, observation.loads)
    return CalibrationConstants(
        voltage=observation.voltage,
        aicore_idle=aicore_idle,
        soc_idle=soc_idle,
        gamma_aicore_w_per_c_v=cooldown.gamma_aicore_w_per_c_v,
        gamma_soc_w_per_c_v=cooldown.gamma_soc_w_per_c_v,
        k_celsius_per_watt=k_fit.slope,
        ambient_celsius=observation.ambient_celsius,
    )


def run_offline_calibration(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    test_load: Trace,
    k_loads: Sequence[Trace] | None = None,
) -> CalibrationConstants:
    """The complete offline phase of Fig. 11.

    Args:
        device: the accelerator being characterised.
        telemetry: the power-measurement instrument.
        test_load: a load that heats the chip for gamma extraction.
        k_loads: loads for the temperature-slope fit; defaults to the test
            load alone (several frequencies still give several points).
    """
    return measure_calibration(
        observe_calibration(device, test_load, k_loads), telemetry
    )
