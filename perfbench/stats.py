"""Samples one measured phase collects, the percentile rule, and the
host-speed reference.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
tens of seconds.  Each run therefore also times a fixed reference
kernel at idle points (before each set-up, and between operations of
the closed-loop workloads, never while the program has work in flight)
and scales those times to the speed at which the kernel takes
``REFERENCE_NOMINAL_S``: a phase on a host running 1.5x slow reads its
times divided by 1.5.  The log prints the raw figures and the factors.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: The reference kernel's median time on a quiet 2-vCPU x86_64 host.
REFERENCE_NOMINAL_S = 0.003


@dataclass
class Samples:
    """What one measured phase of a workload saw.

    ``latencies`` holds one wall time per completed operation, in
    seconds, and ``slow`` flags the workload's heavy operations (a gpt3
    request, a step that replanned).
    ``problems`` collects failed output checks found while measuring.
    """

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    slow: list[bool] = field(default_factory=list)
    busy_seconds: float = 0.0
    #: Reference-kernel times taken at idle points of the phase.
    reference: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def slow_latencies(self) -> list[float]:
        """Latencies of the slow-path operations."""
        return [t for t, s in zip(self.latencies, self.slow) if s]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_line(label: str, values, tail: float) -> str:
    """``label: n=.. p50 .. ms p<tail> .. ms`` for the human-readable log."""
    return (
        f"{label}: n={len(values)} p50 {1e3 * percentile(values, 50):.4f} ms"
        f" p{tail:g} {1e3 * percentile(values, tail):.4f} ms"
    )


def reference_seconds() -> float:
    """Time one pass of a fixed kernel of interpreter and small NumPy work."""
    start = time.perf_counter()
    table = {}
    for i in range(16000):
        table[i] = (i * 7) % 13
    vector = np.linspace(1.0, 2.0, 2048)
    for _ in range(240):
        vector = np.sqrt(vector * 1.0001 + 0.5)
    if sum(table.values()) < 0 or vector[0] < 0:
        raise AssertionError("unreachable: keeps the work observable")
    return time.perf_counter() - start


def slowdown(references) -> float:
    """How much slower than nominal the host ran (1.0 at nominal speed)."""
    return statistics.median(references) / REFERENCE_NOMINAL_S
