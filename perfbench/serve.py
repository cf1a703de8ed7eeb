"""serve_mix: an open loop of fleet nodes against the async gateway.

One thread generates the load.  Arrivals follow a seeded Zipf schedule
(``repro.traffic.patterns.build_schedule``) over a popular head of
workloads and are paced on the wall clock at a ladder of fixed offered
rates.  Set-up computes the head's strategies and persists them, then
opens a new service over that directory, so the first touch of each head
key in the timed run is a disk hit.  A tail of never-seen workloads
arrives throughout, each as three requests 2 ms apart: the first runs a
GA on a dispatcher thread and commits, the others coalesce onto it.
Every tail request is a newly generated ``Trace`` object.

Requests are timed from their due time, so a stalled event loop (the GA
thread holding the interpreter lock, say) shows up as latency.  These
times are not scaled by the host-speed reference (``stats``): hit
latency is mostly timer wake-up, and the kernel cannot run inside the
drive without delaying requests.  The shared-memory hot tier is off: the
benchmark writes only inside its own directory.
"""

from __future__ import annotations

import asyncio
import selectors
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import cold
from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer
from repro.dvfs.ga import GaConfig
from repro.errors import Overloaded
import repro.serve.gateway as gateway_module
from repro.serve.fingerprint import combine_fingerprints
from repro.serve.gateway import AsyncGateway, GatewayConfig
from repro.serve.pool import PoolResult, job_config
from repro.serve.service import ServeResult, StrategyService
from repro.serve.shards import ShardedStrategyStore
from repro.serve.store import StrategyStore
from repro.traffic.driver import (
    TrafficConfig,
    build_workload_population,
    verify_byte_identity,
)
from repro.traffic.patterns import build_schedule

from spans import ID, NAME, PARENT, RID
from stats import Samples, latency_line, percentile

#: ``repro-serve bench-traffic``'s GA budget.
CONFIG = OptimizerConfig(ga=GaConfig(population_size=16, iterations=12))
#: Popular workloads, computed in set-up.  ``sim_saved_pct`` is their
#: mean saving, and one workload saves anywhere from 0 to 4%, so the
#: mean of a few dozen moves by up to 30% of its median from seed to
#: seed; 384 keep it under 10% for a set-up of about 4 s.
HEAD = 384
ZIPF_S = 1.1
SOURCES = 8
DISPATCHERS = 2
#: Offered rates (requests/s) and each rung's share of the run.  Hit
#: latencies are read at the second, the reference rate.  Misses are too
#: few per rung, so their latencies pool every rung below the last.
#: The last is set well above what the gateway sustains on a 2-core
#: host (one run in ten kept up with 64k req/s) and the one before it
#: well below, so a run on a host running at half speed still reads
#: the same rung.
LADDER = (
    (2000.0, 0.17),
    (8000.0, 0.5),
    (16000.0, 0.25),
    (160000.0, 0.08),
)
REFERENCE = 1
#: Never-seen workloads per second.  Each arrives as TAIL_COPIES
#: requests COPY_GAP_S apart: the first computes, the rest coalesce.
TAIL_KEYS_PER_S = 2.5
TAIL_COPIES = 3
COPY_GAP_S = 0.002
#: The hit p99 a rung must meet.  Hits that arrive while a GA run holds
#: the interpreter lock wait out one or more 5 ms switch intervals, which
#: puts the hit p99 at 6-20 ms below the overload rung; a sustained
#: backlog goes far past this limit.
HIT_P99_LIMIT_S = 0.050
#: A rung whose generator runs this late over its last fifth is falling
#: behind (a growing backlog).
BACKLOG_LAG_S = 0.010
#: The highest percentiles the reference-rate hits and the pooled
#: misses support.
TAIL = 99
SLOW_TAIL = 90
YIELD_EVERY = 64
HIT_TIERS = ("memory", "hot", "disk")
VERIFY_HEAD = 8
VERIFY_TAIL = 3


def _tail_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 0x7A11]).integers(2**31))


def prepare(seed: int, seconds: float) -> dict:
    """Head population, tail traces (one object per request) and the schedule.

    ``objects`` is the head, then ``TAIL_COPIES`` separately generated
    copies of the tail population; ``index`` maps each request to its
    object.
    """
    rng = np.random.default_rng([seed, 0x5E4])
    rungs = []
    offset = 0.0
    for rate, share in LADDER:
        span = seconds * share
        schedule = build_schedule(
            requests=max(1, int(round(rate * span))),
            workloads=HEAD,
            rng=rng,
            zipf_s=ZIPF_S,
            sources=SOURCES,
            base_rate=rate,
            diurnal_amplitude=0.0,
            burst_count=0,
        )
        keep = schedule.arrival_s < span
        # Evenly spaced with a seeded jitter, so the share of time a GA
        # run holds the interpreter is the same from seed to seed.
        n_keys = int(TAIL_KEYS_PER_S * span)
        slots = span / max(n_keys, 1)
        starts = slots * (np.arange(n_keys) + rng.uniform(0.1, 0.9, n_keys))
        rungs.append(
            (offset, schedule.arrival_s[keep], schedule.workload_idx[keep],
             starts)
        )
        offset += span
    keys = sum(r[3].size for r in rungs)
    due, index, rung_of = [], [], []
    first = HEAD
    for rung, (offset, arrivals, workload_idx, starts) in enumerate(rungs):
        ids = np.arange(first, first + starts.size)
        due.append(offset + arrivals)
        index.append(workload_idx.astype(np.int64))
        for copy in range(TAIL_COPIES):
            due.append(offset + starts + copy * COPY_GAP_S)
            index.append(ids + copy * keys)
        rung_of.append(
            np.full(arrivals.size + TAIL_COPIES * starts.size, rung)
        )
        first += starts.size
    due = np.concatenate(due)
    order = np.argsort(due, kind="stable")
    objects = build_workload_population(HEAD, seed=seed)
    if keys:
        for _ in range(TAIL_COPIES):
            objects += build_workload_population(keys, seed=_tail_seed(seed))
    return {
        "seed": seed,
        "seconds": seconds,
        "keys": keys,
        "objects": objects,
        "due": due[order].tolist(),
        "index": np.concatenate(index)[order].tolist(),
        "rung": np.concatenate(rung_of)[order],
    }


def _open(root: Path) -> StrategyService:
    store = ShardedStrategyStore(root / "store", shards=8, hot_slots=0)
    return StrategyService(config=CONFIG, store=store)


def setup(inputs: dict, scratch: Path) -> dict:
    """Compute and persist the head, then warm-restart over the directory.

    The head is computed through the same ``job_config`` seed and commit
    a gateway miss uses, with the SoC saving of each strategy kept for
    ``sim_saved_pct``; the byte-identity check re-derives the strategies
    through a serial ``StrategyService``.
    """
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    head = inputs["objects"][:HEAD]
    saved = []
    with _open(root) as service:
        for trace in head:
            fingerprint = service.fingerprint(trace)
            start = time.perf_counter()
            report = EnergyOptimizer(
                job_config(CONFIG, fingerprint)
            ).optimize(trace)
            service.commit(
                PoolResult(
                    fingerprint=fingerprint,
                    strategy_json=report.strategy.to_json(),
                    aicore_power_reduction=report.aicore_power_reduction,
                    performance_loss=report.performance_loss,
                    ga_generations=report.search.generations,
                    wall_seconds=time.perf_counter() - start,
                    surrogate_used=report.search.surrogate_used,
                )
            )
            saved.append(cold.soc_energy_saved(report))
        service.store.close()
    service = _open(root)
    for trace in head:
        service.fingerprint(trace)
    return dict(inputs, root=root, service=service, saved=saved)


def install(tracer) -> None:
    """Wrap the serving calls and the pipeline stages a miss runs."""
    cold.install(tracer)
    tracer.wrap(StrategyService, "fingerprint", "serve.fingerprint")
    tracer.wrap(StrategyService, "lookup", "serve.lookup")


class _Recorder:
    """Per-request outcome arrays, filled as requests resolve."""

    def __init__(self, n: int) -> None:
        self.latency = np.zeros(n)
        self.lag = np.zeros(n)
        self.source = np.full(n, "", dtype=object)
        self.resolutions = np.zeros(n, dtype=np.int64)
        self.failed = np.zeros(n, dtype=bool)
        self.shed = np.zeros(n, dtype=bool)

    def done(self, i: int, source: str, latency: float) -> None:
        self.resolutions[i] += 1
        self.source[i] = source
        self.latency[i] = latency


class _Spans:
    """The traced run's request roots and miss bookkeeping."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.owner: dict[str, tuple[list, float]] = {}
        self.waiting: dict[int, float] = {}

    def install(self) -> None:
        tracer = self.tracer

        def job_parent(args, kwargs):
            root, submitted = self.owner.get(args[0], (None, None))
            if root is None:
                return None, None
            tracer.record(
                "serve.gateway.queue_wait", submitted, time.perf_counter(),
                parent=root[ID], rid=root[RID],
            )
            return root[ID], root[RID]

        def commit_parent(args, kwargs):
            root, _ = self.owner.get(args[1].fingerprint, (None, None))
            return (None, None) if root is None else (root[ID], root[RID])

        tracer.wrap(
            gateway_module, "optimize_job", "serve.gateway.compute",
            before=job_parent,
        )
        tracer.wrap(
            StrategyService, "commit", "serve.commit", before=commit_parent
        )

    def submitted(self, root, service, trace, end: float) -> None:
        fingerprint = combine_fingerprints(
            trace.fingerprint(), service.config_hash, service.spec_hash
        )
        if fingerprint in self.owner:
            self.waiting[root[ID]] = end
        else:
            self.owner[fingerprint] = (root, end)

    def resolved(self, root, end: float) -> None:
        self.tracer.finish(root, end)
        started = self.waiting.pop(root[ID], None)
        if started is not None:
            self.tracer.record(
                "serve.coalesced_wait", started, end, parent=root[ID],
                rid=root[RID],
            )


async def _drive(gateway, state, rec: _Recorder, spans) -> float:
    objects, due, index = state["objects"], state["due"], state["index"]
    tracer = spans.tracer if spans is not None else None
    submit = gateway.submit_nowait
    sources = [f"src-{k}" for k in range(SOURCES)]
    tasks = []

    async def finish(outcome, i, target, root):
        try:
            result = await outcome
        except Exception:
            rec.failed[i] = True
            rec.resolutions[i] += 1
            result = None
        end = time.perf_counter()
        if result is not None:
            rec.done(i, result.source, end - target)
        if root is not None:
            spans.resolved(root, end)

    # One blocking call per wake-up, the event loop's own sleep, as a
    # server blocked in its poller would make.  A generator running late
    # submits without sleeping and yields every YIELD_EVERY requests.
    start = time.perf_counter() + 0.005
    for i in range(len(due)):
        target = start + due[i]
        wait = target - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        elif i % YIELD_EVERY == 0:
            await asyncio.sleep(0)
        submitted = time.perf_counter()
        rec.lag[i] = submitted - target
        trace = objects[index[i]]
        root = None
        try:
            if tracer is None:
                outcome = submit(trace, source=sources[i % SOURCES])
            else:
                root = tracer.begin("serve.request", start=target, rid=i)
                tracer.record("traffic.gen_lag", target, submitted,
                              parent=root[ID], rid=i)
                with tracer.active(root):
                    outcome = submit(trace, source=sources[i % SOURCES])
        except Overloaded:
            rec.shed[i] = True
            if root is not None:
                tracer.finish(root)
            continue
        if type(outcome) is ServeResult:
            end = time.perf_counter()
            rec.done(i, outcome.source, end - target)
            if root is not None:
                tracer.finish(root, end)
        else:
            if root is not None:
                spans.submitted(
                    root, gateway.service, trace, time.perf_counter()
                )
            tasks.append(
                asyncio.ensure_future(finish(outcome, i, target, root))
            )
    await asyncio.gather(*tasks)
    return time.perf_counter() - start


def measure(state: dict, seconds: float, tracer=None) -> Samples:
    """Drive the whole ladder once; outcomes are judged per rung."""
    service = state["service"]
    gateway = AsyncGateway(service, GatewayConfig(dispatchers=DISPATCHERS))
    rec = _Recorder(len(state["due"]))
    spans = None
    if tracer is not None:
        spans = _Spans(tracer)
        spans.install()

    async def run():
        async with gateway:
            return await _drive(gateway, state, rec, spans)

    # select() takes microsecond timeouts where epoll rounds up to whole
    # milliseconds, so timers fire close to each request's due time.
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(
            selectors.SelectSelector()
        )
    ) as runner:
        wall = runner.run(run())
    counters = {
        row["counter"]: row["count"]
        for row in service.store.counter_rows()
    }
    samples = Samples(attempted=len(state["due"]))
    samples.failed = int(rec.failed.sum() + rec.shed.sum())
    samples.busy_seconds = wall
    samples.extra = {
        "rec": rec,
        "stats": gateway.stats,
        "queue_depth_max": gateway.max_queue_depth_seen,
        "counters": counters,
    }
    resolved = (rec.resolutions == 1) & ~rec.failed
    miss = np.isin(rec.source, ("computed", "coalesced"))
    samples.latencies = rec.latency[
        (state["rung"] == REFERENCE) & resolved
    ].tolist()
    pooled = resolved & miss & (state["rung"] < len(LADDER) - 1)
    samples.extra["miss_latencies"] = rec.latency[pooled].tolist()
    return samples


def _rungs(state: dict, samples: Samples) -> list[dict]:
    rec = samples.extra["rec"]
    seconds = state["seconds"]
    rows = []
    for rung, (rate, share) in enumerate(LADDER):
        mask = state["rung"] == rung
        hit = mask & np.isin(rec.source, HIT_TIERS)
        lag = rec.lag[mask]
        last = lag[int(0.8 * lag.size):]
        hit_p99 = percentile(rec.latency[hit], 99)
        bad = int(rec.failed[mask].sum() + rec.shed[mask].sum())
        resolved = int(((rec.resolutions == 1) & mask & ~rec.failed).sum())
        backlog = percentile(last, 50) > BACKLOG_LAG_S
        rows.append(
            {
                "rate": rate,
                "achieved": resolved / (seconds * share),
                "hit_p99_ms": 1e3 * hit_p99,
                "failed": bad,
                "backlog": backlog,
                "ok": hit_p99 <= HIT_P99_LIMIT_S and bad == 0 and not backlog,
            }
        )
    return rows


def check(state: dict, samples: Samples) -> list[str]:
    """Byte identity with a serial service, conserved counters, exactly once."""
    problems = []
    rec = samples.extra["rec"]
    stats = samples.extra["stats"]
    counters = samples.extra["counters"]
    offered = len(state["due"])
    shed = int(rec.shed.sum())
    admitted = offered - shed
    if stats.offered != offered or stats.shed != shed:
        problems.append(
            f"offered {offered} = admitted {admitted} + shed {shed} does "
            f"not match the gateway's {stats.offered} / {stats.shed}"
        )
    # Every offered request reaches the store lookup: nothing is rate
    # limited or refused for draining, and a full queue sheds after it.
    lookups = offered
    tiers = sum(counters[k] for k in ("memory_hits", "hot_hits", "disk_hits"))
    if lookups != tiers + counters["misses"]:
        problems.append(
            f"lookups {lookups} != hits {tiers} + misses {counters['misses']}"
        )
    once = rec.resolutions[~rec.shed]
    if not (once == 1).all():
        problems.append(
            f"{int((once != 1).sum())} admitted requests did not resolve "
            f"exactly once"
        )
    if stats.requests != int(((rec.resolutions == 1) & ~rec.failed).sum()):
        problems.append("gateway served count differs from resolved requests")
    if stats.ga_runs != state["keys"]:
        problems.append(
            f"{stats.ga_runs} GA runs for {state['keys']} distinct tail keys"
        )
    service = state["service"]
    store = service.store
    root = state["root"]
    identical, _ = verify_byte_identity(
        TrafficConfig(
            requests=1, workloads=HEAD, seed=state["seed"],
            verify=VERIFY_HEAD,
        ),
        CONFIG,
        store,
        root,
    )
    if not identical:
        problems.append("head strategies differ from a serial service")
    tail = build_workload_population(
        min(VERIFY_TAIL, state["keys"]), seed=_tail_seed(state["seed"])
    )
    with StrategyService(
        config=CONFIG, store=StrategyStore(root / "serial-tail")
    ) as serial:
        for trace in tail:
            reference = serial.request(trace).strategy.to_json()
            served = store.get(
                serial.fingerprint(trace), serial.config_hash,
                serial.spec_hash,
            )
            if served is None or served.to_json() != reference:
                problems.append(f"tail {trace.name} differs from serial")
    leftovers = sorted(str(p) for p in root.rglob("*.tmp"))
    if leftovers:
        problems.append(f"temporary files left behind: {leftovers}")
    return problems


def teardown(state: dict) -> None:
    """Close the service and its store, then delete the directory."""
    service = state.get("service")
    if service is not None:
        service.store.close()
        service.close()
    shutil.rmtree(state["root"], ignore_errors=True)


def end_to_end(state: dict, samples: Samples) -> dict:
    """Reference-rate latency, pooled misses, the sustainable rate and
    the SoC saving of the head strategies the run served."""
    slow = samples.extra["miss_latencies"]
    rec = samples.extra["rec"]
    ref = (state["rung"] == REFERENCE) & np.isin(rec.source, HIT_TIERS)
    print(latency_line("serve hit at the reference rate",
                       rec.latency[ref], TAIL))
    print(latency_line("serve miss, rungs below the last", slow, SLOW_TAIL))
    rungs = _rungs(state, samples)
    for row in rungs:
        print(
            f"rung {row['rate']:>7.0f} req/s: achieved {row['achieved']:.1f}"
            f" hit p99 {row['hit_p99_ms']:.3f} ms failed {row['failed']}"
            f" backlog {row['backlog']} -> {'ok' if row['ok'] else 'over'}"
        )
    passing = [row for row in rungs if row["ok"]]
    return {
        "p50_ms": 1e3 * percentile(samples.latencies, 50),
        "slow_p50_ms": 1e3 * percentile(slow, 50),
        "ops_per_s": passing[-1]["achieved"] if passing else 0.0,
        "sim_saved_pct": 100.0 * float(np.mean(state["saved"])),
    }


def counters(state: dict, samples: Samples) -> dict:
    """Store tiers, gateway queueing and the generator's own lateness."""
    rec = samples.extra["rec"]
    stats = samples.extra["stats"]
    counts = samples.extra["counters"]
    admitted = max(1, stats.requests)
    return {
        "serve.hit_ratio": stats.hits / admitted,
        "serve.store.memory_hits": counts["memory_hits"],
        "serve.store.hot_hits": counts["hot_hits"],
        "serve.store.disk_hits": counts["disk_hits"],
        "serve.store.puts": counts["puts"],
        "serve.gateway.coalesced": stats.coalesced,
        "serve.gateway.shed": stats.shed,
        "serve.gateway.queue_depth_max": samples.extra["queue_depth_max"],
        "traffic.gen_lag_p99_ms": 1e3 * percentile(
            rec.lag[state["rung"] == REFERENCE], 99
        ),
        "dvfs.ga_generations": stats.ga_generations / max(1, stats.ga_runs),
    }


def stage_roots(state: dict, tracer) -> dict:
    """Request roots split by how the request was answered.

    Hits come from the reference rate and misses from the rungs below
    the overload rung, as in the end-to-end metrics.
    """
    children = {}
    for span in tracer.spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], set()).add(span[NAME])
    rung = state["rung"]
    groups = {"serve hit": [], "serve miss (computed)": [],
              "serve coalesced": []}
    for root in tracer.by_name("serve.request"):
        names = children.get(root[ID], set())
        if "serve.gateway.compute" in names:
            group = "serve miss (computed)"
        elif "serve.coalesced_wait" in names:
            group = "serve coalesced"
        else:
            group = "serve hit"
        keep = rung[root[RID]] == REFERENCE if group == "serve hit" else (
            rung[root[RID]] < len(LADDER) - 1
        )
        if keep:
            groups[group].append(root)
    return groups
