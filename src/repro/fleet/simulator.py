"""Vectorized barrier-step execution over an elastic device fleet.

The cluster layer simulates a step by looping Python
:class:`~repro.cluster.device.ClusterDevice` objects around the engine —
exact, but O(N) Python work per step.  The paper's constant-frequency
solution is an affine scalar pair per device (``E = E0 + E1 * delta0``),
so a fleet of N devices collapses to ``(N,)``-shaped NumPy arrays:
:func:`repro.npu.engine.batched_const_solutions` stacks every device's
compiled affine solution once per frequency, and a whole synchronous
training step — per-device arrivals, the barrier max, the hierarchical
collective, idle-priced waits, the RC thermal update and the overrun
watchdog — is a handful of vectorized passes.

One barrier-step kernel does this work.  Its five functions
(:func:`epoch_arrivals`, :func:`epoch_coeffs`, :func:`run_steps`,
:func:`reclaim_target`, :func:`reclaim_choose`) run over a ``[lo, hi)``
slice of the packed active order, reading and writing the flat arrays of
one buffer (``_Layout``):

* **Durations live once.**  The ``(capacity, F)`` duration table is
  computed once per simulator; step arrivals and slack reclamation both
  read it.  The other six affine fields are built per frequency, only
  when a plan uses that frequency.
* **Epoch caching.**  Arrivals, gathered energy coefficients and the
  barrier-wait idle integration depend only on (membership, plan,
  target) — an *epoch* — not on the evolving thermal state.  The kernel
  rebuilds a slice's coefficients once per epoch, collapsing the
  8-substep RC idle integration to its exact affine form in ``delta0``,
  and a warm step is a handful of affine passes.
* **Ordered reductions.**  Slices report their (max, position) pairs and
  the engine merges them in slice order, so ties resolve exactly like
  one ``np.argmax`` over the fleet.

:class:`FleetSimulator` runs the kernel in process over the single slice
``[0, n)``; :class:`~repro.fleet.sharded.ShardedFleetSimulator` is the
same engine with the buffer in shared memory and one slice per worker
process.  Both produce the same bits at any worker count.

Semantics are the cluster simulator's, element for element: durations
are bitwise identical to the looped reference (same scale multiply,
same ``cumsum`` geometry) and energies/temperatures agree to rounding
(~1e-15; ``tests/test_fleet_equivalence.py`` pins <= 1e-9 at
N in {1, 2, 8, 16}).  The differences are scale-bearing: results carry
arrays instead of per-device objects, reports summarize stragglers
(top-k) instead of emitting 10k rows, and membership is elastic — the
seeded churn of :mod:`repro.fleet.churn` joins, drains and fails
devices between steps with deterministic re-sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.simulator import BARRIER_OVERRUN_TOLERANCE
from repro.core.report import ClusterResult
from repro.errors import ConfigurationError, StrategyError
from repro.fleet.churn import ChurnDraw, FleetEvent, draw_churn
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import CollectiveCost
from repro.npu.engine import (
    CompiledTrace,
    ConstAffineBatch,
    batched_const_durations,
    batched_const_solutions,
)
from repro.npu.execution import GroundTruthEvaluator
from repro.units import US_PER_S
from repro.workloads.trace import Trace

#: Sub-intervals the barrier-wait idle integration is split into — the
#: same discretisation :meth:`repro.cluster.device.ClusterDevice.idle`
#: uses, so the two simulators price waits identically.
IDLE_INTEGRATION_STEPS = 8

#: Straggler rows a fleet report carries before summarizing the rest.
DEFAULT_TOP_K = 8

#: Consecutive churn-free steps :meth:`FleetSimulator.run_steps` hands
#: the kernel in one call.
DEFAULT_MAX_BATCH = 8

_MEMBERSHIP_KINDS = ("join", "leave", "fail")

#: "No plan published yet" sentinel (``None`` is a real state: baseline).
_NO_PLAN = object()


def descending_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest values, sorted descending.

    Exactly the first ``k`` entries of
    ``np.argsort(-values, kind="stable")`` — ties broken by position,
    ascending — but O(N) instead of O(N log N): ``np.partition`` finds
    the k-th largest value, boundary ties are resolved by taking the
    earliest positions (which is what the stable argsort does), and
    only the k survivors are sorted.
    """
    n = values.size
    if k >= n:
        return np.argsort(-values, kind="stable")
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    # The k-th largest value; at most k-1 entries are strictly larger.
    cut = np.partition(values, n - k)[n - k]
    top = np.flatnonzero(values > cut)
    need = k - top.size
    if need:
        # flatnonzero is ascending, so boundary ties keep the earliest
        # positions — the stable-argsort tie rule.
        top = np.concatenate([top, np.flatnonzero(values == cut)[:need]])
    return top[np.argsort(-values[top], kind="stable")]


@dataclass(frozen=True)
class FleetStepResult:
    """Outcome of one synchronous step, in ``(active devices,)`` arrays.

    Array fields line up with :attr:`device_ids` (active devices in id
    order).  The scalar aggregates mirror
    :class:`~repro.cluster.simulator.ClusterStepResult`.
    """

    fleet_name: str
    workload: str
    compute_us: float
    collective: CollectiveCost
    straggler_id: int
    device_ids: np.ndarray
    arrival_us: np.ndarray
    wait_us: np.ndarray
    freq_mhz: np.ndarray
    aicore_energy_j: np.ndarray
    soc_energy_j: np.ndarray
    idle_aicore_energy_j: np.ndarray
    idle_soc_energy_j: np.ndarray
    end_celsius: np.ndarray
    #: Devices that arrived measurably past the planned barrier (count,
    #: and the worst offenders by lateness).
    overrun_count: int = 0
    overrun_device_ids: tuple[int, ...] = ()
    #: Churn events applied immediately before this step.
    events: tuple[FleetEvent, ...] = ()

    @property
    def n_devices(self) -> int:
        """Active devices that ran this step."""
        return self.device_ids.size

    @property
    def collective_us(self) -> float:
        """Selected all-reduce cost of the gradient exchange."""
        return self.collective.chosen_us

    @property
    def step_us(self) -> float:
        """Wall time of the step: slowest arrival plus the collective."""
        return self.compute_us + self.collective_us

    @property
    def total_soc_energy_j(self) -> np.ndarray:
        """Per-device compute plus barrier-idle SoC energy."""
        return self.soc_energy_j + self.idle_soc_energy_j

    @property
    def total_aicore_energy_j(self) -> np.ndarray:
        """Per-device compute plus barrier-idle AICore energy."""
        return self.aicore_energy_j + self.idle_aicore_energy_j

    @property
    def fleet_soc_energy_j(self) -> float:
        """Total SoC energy across the fleet, barrier idling included."""
        return float(np.sum(self.total_soc_energy_j))

    @property
    def fleet_aicore_energy_j(self) -> float:
        """Total AICore energy across the fleet."""
        return float(np.sum(self.total_aicore_energy_j))

    @property
    def fleet_soc_avg_watts(self) -> float:
        """Fleet-wide (summed) average SoC power over the step."""
        return self.fleet_soc_energy_j / (self.step_us / US_PER_S)

    def device_rows(self, top_k: int = DEFAULT_TOP_K) -> list[dict]:
        """Straggler top-k table rows plus one fleet-remainder summary.

        Same shape as the cluster report's rows: the ``top_k`` slowest
        arrivals (straggler first), then a single aggregate row for the
        other ``N - top_k`` devices — O(top_k) rows at any fleet size,
        selected in O(N) (:func:`descending_top_k`, not a full sort).
        """
        order = descending_top_k(self.arrival_us, top_k)
        rows = []
        for pos in order:
            device = int(self.device_ids[pos])
            rows.append(
                {
                    "device": device,
                    "compute_ms": round(
                        float(self.arrival_us[pos]) / 1000.0, 3
                    ),
                    "wait_ms": round(float(self.wait_us[pos]) / 1000.0, 3),
                    "idle_mhz": round(float(self.freq_mhz[pos])),
                    "soc_j": round(float(self.total_soc_energy_j[pos]), 3),
                    "aicore_j": round(
                        float(self.total_aicore_energy_j[pos]), 3
                    ),
                    "straggler": "*" if device == self.straggler_id else "",
                }
            )
        in_top = np.zeros(self.arrival_us.size, dtype=bool)
        in_top[order] = True
        rest = np.flatnonzero(~in_top)
        if rest.size:
            rows.append(
                {
                    "device": f"(+{rest.size} faster)",
                    "compute_ms": round(
                        float(np.mean(self.arrival_us[rest])) / 1000.0, 3
                    ),
                    "wait_ms": round(
                        float(np.mean(self.wait_us[rest])) / 1000.0, 3
                    ),
                    "idle_mhz": "",
                    "soc_j": round(
                        float(np.sum(self.total_soc_energy_j[rest])), 3
                    ),
                    "aicore_j": round(
                        float(np.sum(self.total_aicore_energy_j[rest])), 3
                    ),
                    "straggler": "",
                }
            )
        return rows

    def report(self, baseline: "FleetStepResult") -> ClusterResult:
        """Compare this step against a baseline step of the same fleet."""
        return ClusterResult(
            cluster_name=self.fleet_name,
            workload=self.workload,
            n_devices=self.n_devices,
            baseline_step_us=baseline.step_us,
            step_us=self.step_us,
            allreduce_us=self.collective_us,
            baseline_soc_energy_j=baseline.fleet_soc_energy_j,
            soc_energy_j=self.fleet_soc_energy_j,
            baseline_aicore_energy_j=baseline.fleet_aicore_energy_j,
            aicore_energy_j=self.fleet_aicore_energy_j,
            straggler_id=self.straggler_id,
            device_rows=tuple(self.device_rows()),
        )


@dataclass(frozen=True)
class FleetPlan:
    """Per-device constant-frequency assignment over the provisioned fleet.

    Arrays span the full capacity; :attr:`covered` marks the devices the
    plan was computed for — boards that join later run the maximum-
    frequency baseline until the plan is re-targeted.
    """

    workload: str
    target_compute_us: float
    straggler_id: int
    freqs_mhz: tuple[float, ...]
    freq_index: np.ndarray
    freq_mhz: np.ndarray
    predicted_us: np.ndarray
    covered: np.ndarray

    @property
    def n_devices(self) -> int:
        """Devices the plan covers."""
        return int(np.count_nonzero(self.covered))


# ----------------------------------------------------------------------
# The barrier-step kernel
# ----------------------------------------------------------------------


class _Layout:
    """Shapes and offsets of every array the kernel reads or writes.

    All arrays live in one flat buffer, so a shard worker rebuilds the
    views from ``(capacity, F, max_batch)`` alone.  Every element is
    8 bytes wide.
    """

    def __init__(self, capacity: int, n_freqs: int, max_batch: int) -> None:
        c, f = capacity, n_freqs
        self.shapes = {
            "thermal": ((2,), np.float64),  # k (C/W), tau (us)
            "grid": ((f,), np.float64),
            "ambient": ((c,), np.float64),
            "celsius": ((c,), np.float64),
            "act_ids": ((c,), np.int64),
            "plan_slot": ((c,), np.int64),
            "arrival": ((c,), np.float64),
            "wait": ((c,), np.float64),
            "freqs": ((c,), np.float64),
            "reclaim_idx": ((c,), np.int64),
            "reclaim_pred": ((c,), np.float64),
            # [device, slot]: the duration table
            "durations": ((c, f), np.float64),
            # [slot]: idle_a0, idle_ga, idle_s0, idle_gs
            "idle": ((f, 4), np.float64),
            # [slot, field, device]: e0a, e1a, e0s, e1s, end_a, end_b
            "solutions": ((f, 6, c), np.float64),
            # [step, field, packed pos]: aicore, soc, idle_a, idle_s,
            # end_celsius
            "outputs": ((max_batch, 5, c), np.float64),
        }
        self.offsets = {}
        cursor = 0
        for name, (shape, _) in self.shapes.items():
            self.offsets[name] = cursor
            # Each region starts on a 64-byte (cache-line) boundary.
            cursor += -(-8 * int(np.prod(shape)) // 64) * 64
        self.total_bytes = cursor

    def views(self, buf) -> dict[str, np.ndarray]:
        """NumPy views over ``buf`` for every region."""
        return {
            name: np.ndarray(
                shape, dtype=dtype, buffer=buf, offset=self.offsets[name]
            )
            for name, (shape, dtype) in self.shapes.items()
        }


_COEFF_FIELDS = ("e0a", "e1a", "e0s", "e1s", "p0", "q0")
_IDLE_FIELDS = ("idle_a0", "idle_ga", "idle_s0", "idle_gs")


def epoch_arrivals(v: dict, cache: dict, lo: int, hi: int):
    """Gather a slice's arrivals and energy coefficients for an epoch.

    Publishes arrivals and frequencies at the slice's packed positions
    and returns its barrier candidate: ``(max arrival, position)``.
    """
    ids = v["act_ids"][lo:hi].astype(np.intp)
    slots = v["plan_slot"][ids]
    rows = ids.size
    arrival = np.empty(rows)
    fields = {name: np.empty(rows) for name in _COEFF_FIELDS + _IDLE_FIELDS}
    for slot in np.unique(slots):
        mask = slots == slot
        at = ids[mask]
        arrival[mask] = v["durations"][at, slot]
        for name, column in zip(_COEFF_FIELDS, v["solutions"][slot]):
            fields[name][mask] = column[at]
        for name, value in zip(_IDLE_FIELDS, v["idle"][slot]):
            fields[name][mask] = value
    v["arrival"][lo:hi] = arrival
    v["freqs"][lo:hi] = v["grid"][slots]
    cache.update(fields, ids=ids, amb=v["ambient"][ids], arrival=arrival)
    if rows:
        pos = int(np.argmax(arrival))
        return float(arrival[pos]), float(lo + pos)
    return -np.inf, -1.0


def epoch_coeffs(
    v: dict, cache: dict, lo: int, hi: int, compute_us, collective_us
) -> None:
    """Collapse a slice's barrier-wait idle integration for an epoch."""
    wait = compute_us - cache["arrival"]
    v["wait"][lo:hi] = wait
    k, tau = v["thermal"]
    sub = (wait + collective_us) / IDLE_INTEGRATION_STEPS
    decay = np.exp(-sub / tau)
    scale = sub / US_PER_S
    # The cluster device's 8-substep constant-power idle integration,
    # collapsed to its affine form in delta0: every quantity in the
    # loop is affine in the step's initial temperature rise, so iterate
    # on the (p, q) coefficient pairs once per epoch instead of on the
    # state every step.
    p = cache["p0"].copy()
    q = cache["q0"].copy()
    rows = p.size
    ia_p = np.zeros(rows)
    ia_q = np.zeros(rows)
    is_p = np.zeros(rows)
    is_q = np.zeros(rows)
    a0, ga = cache["idle_a0"], cache["idle_ga"]
    s0, gs = cache["idle_s0"], cache["idle_gs"]
    for _ in range(IDLE_INTEGRATION_STEPS):
        ia_p += (a0 + ga * p) * scale
        ia_q += (ga * q) * scale
        sw_p = s0 + gs * p
        sw_q = gs * q
        is_p += sw_p * scale
        is_q += sw_q * scale
        t_p = k * sw_p
        t_q = k * sw_q
        p = t_p + (p - t_p) * decay
        q = t_q + (q - t_q) * decay
    cache["ia_p"], cache["ia_q"] = ia_p, ia_q
    cache["is_p"], cache["is_q"] = is_p, is_q
    cache["ec_p"] = cache["amb"] + p
    cache["ec_q"] = q


def run_steps(v: dict, cache: dict, lo: int, hi: int, count) -> None:
    """Advance a slice ``count`` warm steps on its epoch coefficients.

    Step ``j`` writes its energies and end temperatures to output slot
    ``j``; the slice's thermal state carries from step to step.
    """
    ids = cache["ids"]
    if ids.size == 0:
        return
    e0a, e1a = cache["e0a"], cache["e1a"]
    e0s, e1s = cache["e0s"], cache["e1s"]
    ia_p, ia_q = cache["ia_p"], cache["ia_q"]
    is_p, is_q = cache["is_p"], cache["is_q"]
    ec_p, ec_q = cache["ec_p"], cache["ec_q"]
    amb = cache["amb"]
    cel = v["celsius"][ids]
    d0 = np.empty(ids.size)
    for j in range(int(count)):
        out = v["outputs"][j][:, lo:hi]
        np.subtract(cel, amb, out=d0)
        for row, e0, e1 in zip(
            out, (e0a, e0s, ia_p, is_p, ec_p), (e1a, e1s, ia_q, is_q, ec_q)
        ):
            np.multiply(e1, d0, out=row)
            row += e0
        cel = out[4]
    v["celsius"][ids] = cel


def reclaim_target(v: dict, cache: dict, lo: int, hi: int):
    """A slice's maximum-frequency straggler: ``(arrival, position)``."""
    ids = v["act_ids"][lo:hi].astype(np.intp)
    if ids.size == 0:
        return -np.inf, -1.0
    arrivals = v["durations"][ids, -1]
    pos = int(np.argmax(arrivals))
    return float(arrivals[pos]), float(lo + pos)


def reclaim_choose(v: dict, cache: dict, lo: int, hi: int, target):
    """Each slice device's lowest grid frequency meeting ``target``.

    Returns ``(1.0, position)`` of the first device that cannot make
    the target even at the top of the grid, else ``(0.0, -1.0)``.
    """
    ids = v["act_ids"][lo:hi].astype(np.intp)
    durs = v["durations"][ids]
    meets = durs <= target
    feasible = meets.any(axis=1)
    if not feasible.all():
        return 1.0, float(lo + int(np.argmax(~feasible)))
    chosen = np.argmax(meets, axis=1)
    v["reclaim_idx"][lo:hi] = chosen
    v["reclaim_pred"][lo:hi] = durs[np.arange(ids.size), chosen]
    return 0.0, -1.0


#: The kernel's functions; a function's index is its wire op code.
KERNEL = (
    epoch_arrivals,
    epoch_coeffs,
    run_steps,
    reclaim_target,
    reclaim_choose,
)


def _merge_max(replies) -> tuple[float, int]:
    """Per-slice ``(max, position)`` replies merged in slice order.

    Strict ``>`` keeps the earliest slice on ties, so the merge picks
    the same position as one ``np.argmax`` over the whole fleet.
    """
    best, best_pos = -np.inf, -1
    for maximum, pos in replies:
        if pos >= 0 and maximum > best:
            best, best_pos = maximum, int(pos)
    return best, best_pos


class FleetSimulator:
    """N-device synchronous training as ``(devices,)`` array passes.

    Construction compiles the trace once against the shared evaluator
    and draws the provisioned boards' profiles; the duration table and
    the per-frequency :class:`~repro.npu.engine.ConstAffineBatch` stacks
    are built lazily on first use and reused across every subsequent
    step (spares included, so churn never recompiles anything).

    This engine runs the barrier-step kernel in the calling process
    over the whole fleet; :class:`~repro.fleet.sharded.ShardedFleetSimulator`
    runs the same kernel in worker processes.
    """

    #: Kernel slices: the in-process engine runs one, over ``[0, n)``.
    workers = 1
    _max_batch = DEFAULT_MAX_BATCH

    def __init__(self, spec: FleetSpec, trace: Trace) -> None:
        self._spec = spec
        self._trace = trace
        self._evaluator = GroundTruthEvaluator(spec.npu)
        self._compiled = CompiledTrace(trace, self._evaluator)
        profiles = spec.device_profiles()
        self._scales = np.array(
            [p.total_duration_scale for p in profiles]
        )
        self._grid = tuple(float(f) for f in spec.npu.frequencies.points)
        max_freq = float(spec.npu.max_frequency_mhz)
        if max_freq not in self._grid:
            raise ConfigurationError(
                f"max frequency {max_freq} MHz is not on the DVFS grid"
            )
        self._max_slot = self._grid.index(max_freq)

        self._layout = _Layout(
            spec.capacity, len(self._grid), self._max_batch
        )
        self._v = self._layout.views(
            self._allocate(self._layout.total_bytes)
        )
        thermal = spec.npu.thermal
        self._v["thermal"][:] = (
            thermal.celsius_per_watt,
            thermal.time_constant_us,
        )
        self._v["grid"][:] = self._grid
        self._v["ambient"][:] = [
            thermal.ambient_celsius + p.ambient_offset_celsius
            for p in profiles
        ]
        self._v["celsius"][:] = self._v["ambient"]
        self._cache: dict = {}

        self._active = np.zeros(spec.capacity, dtype=bool)
        self._active[: spec.n_devices] = True
        self._next_spare = spec.n_devices
        self._solutions: dict[float, ConstAffineBatch] = {}
        self._published_slots: set[int] = set()
        self._durations: np.ndarray | None = None
        self._events: list[FleetEvent] = []
        self._overrun_total = 0

        # Epoch bookkeeping: membership changes bump the epoch; the
        # step caches key on (membership epoch, plan identity, target).
        # Keys hold the plan object itself (compared with ``is``) so a
        # recycled id() can never alias a stale cache entry.
        self._membership_epoch = 0
        self._published_membership: int | None = None
        self._published_plan: FleetPlan | None | object = _NO_PLAN
        self._ep_key: tuple | None = None
        self._ep: dict = {}
        self._collective: tuple | None = None

    def _allocate(self, nbytes: int):
        """The buffer behind the kernel's arrays (private here)."""
        return np.zeros(nbytes, dtype=np.uint8)

    def _roundtrip(self, kernel, n: int, *args) -> list:
        """Run one kernel function over the packed active order.

        Returns one reply per slice; the in-process engine is the single
        slice ``[0, n)``.
        """
        return [kernel(self._v, self._cache, 0, n, *args)]

    def _check_usable(self) -> None:
        """Raise when the engine can no longer step (never, in process)."""

    @property
    def spec(self) -> FleetSpec:
        """The fleet description."""
        return self._spec

    @property
    def trace(self) -> Trace:
        """The operator sequence every device replays."""
        return self._trace

    @property
    def compiled(self) -> CompiledTrace:
        """The shared trace lowering (nominal durations)."""
        return self._compiled

    @property
    def duration_scales(self) -> np.ndarray:
        """Per-board operator-duration scales over the capacity."""
        return self._scales

    @property
    def active_ids(self) -> np.ndarray:
        """Active device ids, ascending (the current membership)."""
        return np.flatnonzero(self._active)

    @property
    def n_active(self) -> int:
        """Current active fleet size."""
        return int(np.count_nonzero(self._active))

    @property
    def celsius(self) -> np.ndarray:
        """Current board temperatures over the capacity (a copy)."""
        return self._v["celsius"].copy()

    @property
    def events(self) -> tuple[FleetEvent, ...]:
        """Every churn event applied (or skipped) so far."""
        return tuple(self._events)

    @property
    def overrun_total(self) -> int:
        """Barrier overruns recorded across all steps."""
        return self._overrun_total

    def rack_sizes(self) -> tuple[int, ...]:
        """Current rack occupancy (survivors re-sharded in id order)."""
        return self._spec.topology.rack_sizes(self.n_active)

    def collective_cost(self) -> CollectiveCost:
        """Priced gradient exchange on the current membership."""
        if (
            self._collective is None
            or self._collective[0] != self._membership_epoch
        ):
            self._collective = (
                self._membership_epoch,
                self._spec.topology.breakdown(
                    self._spec.gradient_bytes, self.rack_sizes()
                ),
            )
        return self._collective[1]

    def solution(self, freq_mhz: float) -> ConstAffineBatch:
        """The cached capacity-wide affine batch at one frequency."""
        sol = self._solutions.get(freq_mhz)
        if sol is None:
            thermal = self._spec.npu.thermal
            sol = batched_const_solutions(
                self._compiled,
                freq_mhz,
                self._scales,
                thermal.celsius_per_watt,
                thermal.time_constant_us,
            )
            self._solutions[freq_mhz] = sol
        return sol

    def duration_table(self) -> np.ndarray:
        """Per-board durations over the full grid, ``(capacity, F)``.

        Computed once per simulator and read-only.  Bitwise identical
        to probing every device at every grid point through the engine
        (the reclaim pass depends on this: plans computed from the
        table match the looped reference byte for byte).
        """
        if self._durations is None:
            table = np.empty((self._spec.capacity, len(self._grid)))
            for j, freq in enumerate(self._grid):
                cached = self._solutions.get(freq)
                table[:, j] = (
                    cached.duration_us
                    if cached is not None
                    else batched_const_durations(
                        self._compiled, freq, self._scales
                    )
                )
            self._v["durations"][:] = table
            # The caller's copy is private: a shared kernel buffer is
            # unmapped on close, and this array may outlive it.
            table.flags.writeable = False
            self._durations = table
        return self._durations

    def reset(self) -> None:
        """Back to the initial membership and thermal state."""
        self._active[:] = False
        self._active[: self._spec.n_devices] = True
        self._next_spare = self._spec.n_devices
        self._v["celsius"][:] = self._v["ambient"]
        self._events.clear()
        self._overrun_total = 0
        self._membership_epoch += 1

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def advance_churn(self, step: int) -> tuple[FleetEvent, ...]:
        """Apply the seeded churn draw for ``step``; returns its events.

        Joins activate pre-provisioned spares in id order (fresh boards
        start at their own ambient); leaves and fails deactivate seeded
        victims, never dropping below ``min_active``.  Rack assignment
        is implicit — active ids in order, chunked by rack size — so
        re-sharding after any event is deterministic.
        """
        config = self._spec.churn
        draw = draw_churn(config, self._spec.seed, step)
        events = tuple(self._apply_draw(step, draw))
        self._events.extend(events)
        if any(e.kind in _MEMBERSHIP_KINDS for e in events):
            self._membership_epoch += 1
        return events

    def _apply_draw(self, step: int, draw: ChurnDraw):
        config = self._spec.churn
        for _ in range(draw.joins):
            if self._next_spare < self._spec.capacity:
                device = self._next_spare
                self._next_spare += 1
                self._active[device] = True
                self._v["celsius"][device] = self._v["ambient"][device]
                yield FleetEvent(
                    step, "join", device, "spare board activated"
                )
            else:
                yield FleetEvent(
                    step,
                    "join_exhausted",
                    -1,
                    f"all {config.max_joins} spares already active",
                )
        kinds = ("leave",) * draw.leaves + ("fail",) * draw.fails
        for kind, raw in zip(kinds, draw.victim_raws):
            ids = np.flatnonzero(self._active)
            if ids.size <= config.min_active:
                yield FleetEvent(
                    step,
                    "churn_skipped",
                    -1,
                    f"{kind} blocked by min_active={config.min_active}",
                )
                continue
            victim = int(ids[raw % ids.size])
            self._active[victim] = False
            detail = (
                "drained for maintenance"
                if kind == "leave"
                else "hard failure"
            )
            yield FleetEvent(step, kind, victim, detail)

    # ------------------------------------------------------------------
    # Publication: what the kernel reads
    # ------------------------------------------------------------------

    def _publish_solution(self, slot: int) -> None:
        if slot in self._published_slots:
            return
        sol = self.solution(self._grid[slot])
        self._v["solutions"][slot] = (
            sol.e0_aicore_j,
            sol.e1_aicore_j,
            sol.e0_soc_j,
            sol.e1_soc_j,
            sol.end_a,
            sol.end_b,
        )
        self._v["idle"][slot] = (
            sol.idle_aicore_w0,
            sol.idle_aicore_gain,
            sol.idle_soc_w0,
            sol.idle_soc_gain,
        )
        self._published_slots.add(slot)

    def _publish_membership(self, act: np.ndarray) -> None:
        if self._published_membership != self._membership_epoch:
            self._v["act_ids"][: act.size] = act
            self._published_membership = self._membership_epoch

    def _publish_plan(self, plan: FleetPlan | None) -> None:
        if self._published_plan is plan:
            return
        slots = np.full(self._spec.capacity, self._max_slot, dtype=np.int64)
        if plan is not None:
            grid = self._v["grid"]
            wanted = plan.freq_mhz[plan.covered]
            found = np.minimum(np.searchsorted(grid, wanted), grid.size - 1)
            off = grid[found] != wanted
            if off.any():
                raise ConfigurationError(
                    f"{wanted[off][0]} MHz is not on the DVFS grid"
                )
            slots[plan.covered] = found
        self._v["plan_slot"][:] = slots
        self._published_plan = plan

    # ------------------------------------------------------------------
    # The barrier step
    # ------------------------------------------------------------------

    def _sync_epoch(
        self, plan: FleetPlan | None, target_compute_us: float | None
    ) -> None:
        key = self._ep_key
        if (
            key is not None
            and key[0] == self._membership_epoch
            and key[1] is plan
            and key[2] == target_compute_us
        ):
            return
        act = self.active_ids
        n = act.size
        self._publish_plan(plan)
        for slot in np.unique(self._v["plan_slot"][act]):
            self._publish_solution(int(slot))
        self.duration_table()
        self._publish_membership(act)
        collective = self.collective_cost()

        compute_us, best_pos = _merge_max(self._roundtrip(epoch_arrivals, n))
        self._roundtrip(epoch_coeffs, n, compute_us, collective.chosen_us)

        arrival = self._v["arrival"][:n].copy()
        ep = {
            "act": act,
            "arrival": arrival,
            "wait": self._v["wait"][:n].copy(),
            "freqs": self._v["freqs"][:n].copy(),
            "compute_us": float(compute_us),
            "straggler_id": int(act[best_pos]),
            "collective": collective,
            "overrun_count": 0,
            "offenders": (),
        }
        if target_compute_us is not None:
            lateness = (arrival - target_compute_us) / target_compute_us
            late = lateness > BARRIER_OVERRUN_TOLERANCE
            count = int(np.count_nonzero(late))
            if count:
                late_ids = act[late]
                order = descending_top_k(lateness[late], DEFAULT_TOP_K)
                ep["overrun_count"] = count
                ep["offenders"] = tuple(int(late_ids[pos]) for pos in order)
        self._ep = ep
        self._ep_key = (self._membership_epoch, plan, target_compute_us)

    def _materialize(
        self, slot: int, events: tuple[FleetEvent, ...]
    ) -> FleetStepResult:
        ep = self._ep
        n = ep["act"].size
        out = self._v["outputs"][slot]
        self._overrun_total += ep["overrun_count"]
        return FleetStepResult(
            fleet_name=self._spec.name,
            workload=self._trace.name,
            compute_us=ep["compute_us"],
            collective=ep["collective"],
            straggler_id=ep["straggler_id"],
            device_ids=ep["act"],
            arrival_us=ep["arrival"],
            wait_us=ep["wait"],
            freq_mhz=ep["freqs"],
            aicore_energy_j=out[0][:n].copy(),
            soc_energy_j=out[1][:n].copy(),
            idle_aicore_energy_j=out[2][:n].copy(),
            idle_soc_energy_j=out[3][:n].copy(),
            end_celsius=out[4][:n].copy(),
            overrun_count=ep["overrun_count"],
            overrun_device_ids=ep["offenders"],
            events=events,
        )

    def step(
        self,
        plan: FleetPlan | None = None,
        target_compute_us: float | None = None,
        events: tuple[FleetEvent, ...] = (),
    ) -> FleetStepResult:
        """Execute one synchronous training step over the active fleet.

        Args:
            plan: per-device constant-frequency assignment (``None``
                runs the uniform maximum-frequency baseline; devices
                the plan does not cover also run the baseline).  Plan
                frequencies must lie on the spec's DVFS grid.
            target_compute_us: the arrival target the plan was built
                for; arrivals later than the tolerance are counted as
                barrier overruns.
            events: churn events to attach to the result (bookkeeping
                only; :meth:`run_steps` passes the step's own events).
        """
        self._check_usable()
        self._sync_epoch(plan, target_compute_us)
        self._roundtrip(run_steps, self._ep["act"].size, 1)
        return self._materialize(0, events)

    def run_steps(
        self,
        plan: FleetPlan | None = None,
        steps: int = 3,
        target_compute_us: float | None = None,
        replan: Callable[["FleetSimulator"], FleetPlan] | None = None,
    ) -> list[FleetStepResult]:
        """Run consecutive steps, thermal state carried, churn applied.

        Churn events fire *between* steps (step 0 always runs the
        initial membership).  When ``replan`` is provided, any step
        whose churn changed the membership re-targets: the callback
        builds a fresh plan on the current fleet (see
        :func:`repro.fleet.dvfs.reclaim_fleet_slack`) and the barrier
        target follows it.  Spans of churn-free steps run as one kernel
        call of up to ``max_batch`` steps, bit for bit the same as
        stepping one at a time.
        """
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1: {steps}")
        self._check_usable()
        results: list[FleetStepResult] = []
        pending: list[tuple[FleetEvent, ...]] = []

        def flush() -> None:
            # Pending steps run against the epoch captured when the
            # first of them was enqueued — churn drawn since then only
            # touched devices outside that epoch's membership.
            if not pending:
                return
            self._roundtrip(run_steps, self._ep["act"].size, len(pending))
            for slot, step_events in enumerate(pending):
                results.append(self._materialize(slot, step_events))
            pending.clear()

        for index in range(steps):
            events: tuple[FleetEvent, ...] = ()
            if index > 0:
                events = self.advance_churn(index)
                if any(e.kind in _MEMBERSHIP_KINDS for e in events):
                    flush()
                    if replan is not None:
                        plan = replan(self)
                        target_compute_us = plan.target_compute_us
            if not pending:
                self._sync_epoch(plan, target_compute_us)
            pending.append(events)
            if len(pending) == self._max_batch:
                flush()
        flush()
        return results

    # ------------------------------------------------------------------
    # Slack reclamation
    # ------------------------------------------------------------------

    def reclaim(self, slack_margin: float = 0.0) -> FleetPlan:
        """Downclock every non-critical active device to just-in-time arrival.

        Two kernel passes over the duration table: the barrier target
        is the straggler's maximum-frequency arrival (stretched by
        ``slack_margin``), then each active device takes the *lowest*
        grid frequency whose arrival meets it.  Semantics (and bytes)
        of :func:`repro.cluster.dvfs.reclaim_slack` at any fleet size.

        Raises:
            ConfigurationError: on a negative ``slack_margin`` or an
                empty fleet.
            StrategyError: when a device cannot reach the barrier even
                at the maximum grid frequency.
        """
        if slack_margin < 0:
            raise ConfigurationError(
                f"slack_margin must be non-negative: {slack_margin}"
            )
        self._check_usable()
        act = self.active_ids
        n = act.size
        if n == 0:
            raise ConfigurationError(
                "reclaim needs at least one active device"
            )
        table = self.duration_table()
        self._publish_membership(act)

        best, best_pos = _merge_max(self._roundtrip(reclaim_target, n))
        straggler_id = int(act[best_pos])
        target = float(best) * (1.0 + slack_margin)

        replies = self._roundtrip(reclaim_choose, n, target)
        bad_pos = [int(pos) for bad, pos in replies if bad != 0.0]
        if bad_pos:
            device = int(act[min(bad_pos)])
            raise StrategyError(
                f"device {device} cannot reach the barrier at "
                f"{target:.0f} us even at {self._grid[-1]:.0f} MHz"
            )

        capacity = self._spec.capacity
        freq_index = np.full(capacity, len(self._grid) - 1, dtype=np.intp)
        freq_index[act] = self._v["reclaim_idx"][:n]
        predicted = table[:, -1].copy()
        predicted[act] = self._v["reclaim_pred"][:n]
        covered = np.zeros(capacity, dtype=bool)
        covered[act] = True
        return FleetPlan(
            workload=self._trace.name,
            target_compute_us=target,
            straggler_id=straggler_id,
            freqs_mhz=self._grid,
            freq_index=freq_index,
            freq_mhz=self._v["grid"][freq_index],
            predicted_us=predicted,
            covered=covered,
        )


def straggler_summary(
    results: Sequence[FleetStepResult],
) -> dict[str, float | int]:
    """Aggregate step/energy/overrun metrics over a run of steps."""
    if not results:
        raise ConfigurationError("straggler_summary needs at least one step")
    return {
        "steps": len(results),
        "devices_last": results[-1].n_devices,
        "step_ms_mean": float(
            np.mean([r.step_us for r in results]) / 1000.0
        ),
        "fleet_soc_j_total": float(
            np.sum([r.fleet_soc_energy_j for r in results])
        ),
        "fleet_aicore_j_total": float(
            np.sum([r.fleet_aicore_energy_j for r in results])
        ),
        "overruns": int(sum(r.overrun_count for r in results)),
        "churn_events": int(sum(len(r.events) for r in results)),
    }
