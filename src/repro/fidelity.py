"""Process-global fidelity: which pipeline tiers run their fast implementation.

Two stages of the Fig. 1 pipeline (profile -> fit -> preprocess -> GA ->
execute) have a fast and a reference implementation:

``engine``
    Device execution: the compiled-trace fast path of
    :mod:`repro.npu.engine` against the per-chunk reference loop of
    :meth:`repro.npu.device.NpuDevice.run`.  Also gates the one-pass grid
    profiler, which runs on the compiled trace.
``cold_path``
    Strategy generation: one-pass grid profiling, stacked model fits and
    grouped scorer tables against the sequential per-operator reference
    implementations.

Both tiers are fast by default.  :func:`reference` forces the named tiers
to their reference implementations for the length of a ``with`` block
(A/B benchmarks, equivalence tests) and restores the previous state on
exit, exceptions included.  :data:`fast` is the one reader:
``fidelity.fast.engine`` and ``fidelity.fast.cold_path`` are plain
attribute reads, cheap enough for the per-run check of every device
execution, and a misspelt tier raises ``AttributeError``.  The state is
process-global and not thread-local: switch it only where no other thread
is running the pipeline.

Fingerprint policy: tiers are never fingerprinted; configs are.  Each
tier reproduces its reference bitwise (durations, plans, genes and the
measurement-noise streams) or within 1e-9 relative (energies and
temperatures), so a strategy computed under either tier is a valid answer
for the same (trace, config, spec) key, and hashing the tier would only
split the strategy cache on an operational toggle.  Choices that change
the answer — the surrogate-assisted GA (``OptimizerConfig.with_surrogate``),
early stopping, fault rates — live on
:class:`~repro.core.config.OptimizerConfig` and are hashed by
:func:`repro.serve.fingerprint.config_fingerprint`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError


class _Tiers:
    """Which tiers run their fast implementation (set by :func:`reference`)."""

    __slots__ = ("engine", "cold_path")

    def __init__(self) -> None:
        self.engine = True
        self.cold_path = True


#: The one reader of the fidelity state.
fast = _Tiers()


@contextmanager
def reference(*tiers: str) -> Iterator[None]:
    """Force ``tiers`` to their reference implementations inside the block.

    Raises:
        ConfigurationError: a name is not one of ``engine`` / ``cold_path``.
    """
    unknown = sorted(set(tiers) - set(_Tiers.__slots__))
    if unknown:
        raise ConfigurationError(
            f"unknown fidelity tier(s) {unknown}; expected one of "
            f"{list(_Tiers.__slots__)}"
        )
    previous = [(tier, getattr(fast, tier)) for tier in tiers]
    for tier in tiers:
        setattr(fast, tier, False)
    try:
        yield
    finally:
        for tier, value in reversed(previous):
            setattr(fast, tier, value)
