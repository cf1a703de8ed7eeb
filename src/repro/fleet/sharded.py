"""Sharded multi-process fleet engine: 100k devices over worker shards.

:class:`~repro.fleet.simulator.FleetSimulator` runs the barrier-step
kernel over the whole fleet in one process.  This module runs the same
kernel over contiguous device shards, each pinned to a persistent worker
process, and adds only what sharding needs:

* **Shared-memory buffer.**  The kernel's arrays (``_Layout``) live in
  one ``multiprocessing.shared_memory`` segment.  Workers attach
  **once** at startup (the :mod:`repro.serve.hotmem` pattern) and every
  later command moves zero array bytes through pickles: the control
  frames are fixed 32-byte commands and 20-byte replies.
* **Shard dispatch.**  Every kernel call is sent to all workers; worker
  ``i`` runs it over its fixed slice ``shard_bounds(n, workers, i)`` of
  the packed active order, and the engine merges the per-shard replies
  in shard order exactly as it merges its single in-process slice.  The
  epoch bookkeeping, churn, plan publication and reductions are the
  base engine's, so results are bitwise identical at any worker count.
* **Failure model.**  A dead or hung worker raises a typed
  :class:`~repro.errors.FleetWorkerError` (never a hang): the engine
  marks itself broken, terminates the survivors, and no step result or
  plan escapes — which is what keeps half-computed plans out of the
  strategy store.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import get_context, get_all_start_methods, shared_memory

from repro.errors import ConfigurationError, FleetWorkerError
from repro.fleet.simulator import (
    DEFAULT_MAX_BATCH,
    KERNEL,
    FleetSimulator,
    _Layout,
)
from repro.fleet.spec import FleetSpec
from repro.workloads.trace import Trace

#: Command frame: kernel op code (-1 shuts down), operand count, active
#: fleet size and up to two float64 operands.  Everything bulky stays
#: in shared memory.
_COMMAND = struct.Struct("<iiq2d")
#: Reply frame: status (0 ok, -1 raised) and the kernel's two results.
_REPLY = struct.Struct("<i2d")
_SHUTDOWN = -1


def shard_bounds(n_active: int, workers: int, index: int) -> tuple[int, int]:
    """The fixed contiguous slice of packed active positions for a shard."""
    return (
        index * n_active // workers,
        (index + 1) * n_active // workers,
    )


def _worker_main(
    conn,
    shm_name: str,
    index: int,
    workers: int,
    layout: _Layout,
) -> None:
    """Shard worker loop: attach once, run kernel calls on its slice."""
    # Workers are children of the engine's process and share its
    # resource tracker, so the attach-side registration is an idempotent
    # set-add and the master's unlink() is the single de-registration.
    shm = shared_memory.SharedMemory(name=shm_name, create=False)
    views = layout.views(shm.buf)
    cache: dict = {}
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                return
            op, nargs, n, *operands = _COMMAND.unpack(frame)
            if op == _SHUTDOWN:
                return
            try:
                lo, hi = shard_bounds(n, workers, index)
                reply = KERNEL[op](views, cache, lo, hi, *operands[:nargs])
                conn.send_bytes(_REPLY.pack(0, *(reply or (0.0, 0.0))))
            except Exception:
                try:
                    conn.send_bytes(_REPLY.pack(-1, 0.0, 0.0))
                finally:
                    raise
    finally:
        shm.close()


class ShardedFleetSimulator(FleetSimulator):
    """The fleet engine with its kernel sharded across worker processes.

    Same construction inputs and same public surface as
    :class:`~repro.fleet.simulator.FleetSimulator` — specs, plans, churn
    and results are interchangeable — plus:

    Args:
        workers: shard worker processes (>= 1).
        max_batch: consecutive churn-free steps executed per command
            round-trip in :meth:`run_steps`.
        timeout_s: per-command worker reply deadline before the engine
            declares the worker dead (:class:`FleetWorkerError`).

    Use it as a context manager, or call :meth:`close` to reap the
    workers and the shared segment.
    """

    def __init__(
        self,
        spec: FleetSpec,
        trace: Trace,
        workers: int = 4,
        max_batch: int = DEFAULT_MAX_BATCH,
        timeout_s: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1: {workers}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1: {max_batch}")
        self.workers = workers
        self._max_batch = max_batch
        self._timeout_s = timeout_s
        self._shm: shared_memory.SharedMemory | None = None
        self._procs: list = []
        self._conns: list = []
        self._broken: str | None = None
        self._closed = False
        super().__init__(spec, trace)

        ctx = get_context(
            "fork" if "fork" in get_all_start_methods() else "spawn"
        )
        try:
            for i in range(workers):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, self._shm.name, i, workers, self._layout),
                    daemon=True,
                    name=f"fleet-shard-{i}",
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
        except Exception:
            self.close()
            raise

    def _allocate(self, nbytes: int):
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        return self._shm.buf

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------

    def _fail(self, detail: str):
        self._broken = detail
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        raise FleetWorkerError(f"sharded fleet engine failed: {detail}")

    def _check_usable(self) -> None:
        if self._closed:
            raise FleetWorkerError("sharded fleet engine is closed")
        if self._broken is not None:
            raise FleetWorkerError(
                f"sharded fleet engine is broken: {self._broken}"
            )

    def _roundtrip(self, kernel, n: int, *args) -> list:
        """Send one kernel call to every worker; gather replies in order."""
        self._check_usable()
        operands = tuple(float(a) for a in args) + (0.0,) * (2 - len(args))
        frame = _COMMAND.pack(KERNEL.index(kernel), len(args), n, *operands)
        for i, conn in enumerate(self._conns):
            try:
                conn.send_bytes(frame)
            except (BrokenPipeError, OSError):
                self._fail(f"worker {i} is gone (send failed)")
        replies = []
        deadline = time.monotonic() + self._timeout_s
        for i, (conn, proc) in enumerate(zip(self._conns, self._procs)):
            while not conn.poll(0.05):
                if not proc.is_alive():
                    self._fail(
                        f"worker {i} died (exit code {proc.exitcode})"
                    )
                if time.monotonic() > deadline:
                    self._fail(
                        f"worker {i} missed the {self._timeout_s:.0f}s "
                        "reply deadline"
                    )
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                self._fail(f"worker {i} is gone (recv failed)")
            status, *values = _REPLY.unpack(data)
            if status != 0:
                self._fail(
                    f"worker {i} raised while running {kernel.__name__}"
                )
            replies.append(tuple(values))
        return replies

    def close(self) -> None:
        """Reap the workers and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        shutdown = _COMMAND.pack(_SHUTDOWN, 0, 0, 0.0, 0.0)
        for conn in self._conns:
            try:
                conn.send_bytes(shutdown)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        if self._shm is not None:
            # A view into an unmapped segment crashes on access; drop
            # the engine's views so later use raises instead.
            self._v = None
            shm, self._shm = self._shm, None
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "ShardedFleetSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def make_fleet_simulator(
    spec: FleetSpec,
    trace: Trace,
    workers: int = 1,
    max_batch: int = DEFAULT_MAX_BATCH,
) -> FleetSimulator:
    """One fleet engine, sized by ``workers``.

    ``workers <= 1`` returns the in-process :class:`FleetSimulator`;
    ``workers >= 2`` returns a :class:`ShardedFleetSimulator`.
    """
    if workers <= 1:
        return FleetSimulator(spec, trace)
    return ShardedFleetSimulator(
        spec, trace, workers=workers, max_batch=max_batch
    )


__all__ = [
    "DEFAULT_MAX_BATCH",
    "ShardedFleetSimulator",
    "make_fleet_simulator",
    "shard_bounds",
]
