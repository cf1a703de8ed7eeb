"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cold_strategy --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` is a separate run: it measures half the time
untraced, then wraps the layer calls the workload reaches (``spans.py``)
and measures the other half, prints a stage table per kind of operation
and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is the result object.  The process
exits 1 when an output check fails and 2 when the program cannot be
imported; ``BENCHMARK.json`` names the metrics and their units and
``perfbench/meta.json`` defines them per workload.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    percentile,
    reference_seconds,
    slowdown,
)

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs per measured run; ``setup_s`` adds their median to the
#: one-off import time.
SETUP_REPEATS = 3
#: Store directories the serving layer creates under the working
#: directory when no path is given; a run must never leave one behind.
DEFAULT_STORES = (".repro-strategy-store", ".repro-traffic-store")

#: Per-layer metric -> (span name, scale).  The value is the mean self
#: time per call: the span's duration minus what its child spans cover.
SPAN_METRICS = {
    "npu.profile_ms": ("npu.profile", 1e3),
    "power.calibrate_ms": ("power.calibrate", 1e3),
    "perf.fit_ms": ("perf.fit", 1e3),
    "dvfs.preprocess_ms": ("dvfs.preprocess", 1e3),
    "dvfs.scorer_build_ms": ("dvfs.scorer_build", 1e3),
    "dvfs.ga_ms": ("dvfs.ga", 1e3),
    "dvfs.execute_ms": ("dvfs.execute", 1e3),
    "core.unattributed_ms": ("core.optimize", 1e3),
    "cold.unattributed_ms": ("cold.request", 1e3),
    "serve.fingerprint_us": ("serve.fingerprint", 1e6),
    "serve.lookup_us": ("serve.lookup", 1e6),
    "serve.commit_ms": ("serve.commit", 1e3),
    "serve.gateway.queue_wait_ms": ("serve.gateway.queue_wait", 1e3),
    "serve.unattributed_us": ("serve.request", 1e6),
    "fleet.step_ms": ("fleet.step", 1e3),
    "fleet.churn_ms": ("fleet.churn", 1e3),
    "fleet.reclaim_ms": ("fleet.reclaim", 1e3),
    "fleet.unattributed_ms": ("fleet.step_op", 1e3),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host_line(phase: str, references) -> str:
    return (
        f"host reference kernel during {phase}: median "
        f"{1e3 * statistics.median(references):.3f} ms over "
        f"{len(references)} samples against "
        f"{1e3 * REFERENCE_NOMINAL_S:.3f} ms nominal; its times are "
        f"divided by {slowdown(references):.3f}"
    )


def _scaled_p50(samples) -> float:
    """Median latency, scaled by the phase's host-speed samples if any."""
    p50 = percentile(samples.latencies, 50)
    return p50 / slowdown(samples.reference) if samples.reference else p50


def _measured_run(wl, args, scratch: Path, import_s: float):
    """Set up ``SETUP_REPEATS`` times, measure, check; returns the parts.

    ``setup_s`` is the import time plus the median set-up, scaled by the
    reference kernel timed during set-up; the workload scales its own
    times by the kernel timed while measuring.
    """
    setup_times = []
    references = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                wl.teardown(state)
                state = None
            inputs = wl.prepare(args.seed, args.seconds)
            references += [reference_seconds() for _ in range(5)]
            start = time.perf_counter()
            state = wl.setup(inputs, scratch)
            setup_times.append(time.perf_counter() - start)
        samples = wl.measure(state, args.seconds)
        peak = _peak_rss_mb()
        problems = wl.check(state, samples)
        metrics = wl.end_to_end(state, samples)
    finally:
        if state is not None:
            wl.teardown(state)
    print(_host_line("set-up", references))
    if samples.reference:
        print(_host_line("measuring", samples.reference))
    metrics["setup_s"] = (
        import_s + statistics.median(setup_times)
    ) / slowdown(references)
    metrics["peak_rss_mb"] = peak
    metrics["served_pct"] = (
        100.0 * (samples.attempted - samples.failed) / samples.attempted
    )
    return samples, metrics, problems


def _traced_run(wl, args, scratch: Path):
    """Half the time untraced, half traced; per-layer metrics from the latter."""
    from spans import END, START, Tracer, format_stage_table

    half = args.seconds / 2.0
    state = wl.setup(wl.prepare(args.seed, half), scratch)
    try:
        untraced = wl.measure(state, half)
    finally:
        wl.teardown(state)
    state = wl.setup(wl.prepare(args.seed, half), scratch)
    tracer = Tracer()
    try:
        wl.install(tracer)
        try:
            samples = wl.measure(state, half, tracer)
        finally:
            tracer.remove()
        problems = wl.check(state, samples)
        counters = wl.counters(state, samples)
    finally:
        wl.teardown(state)

    selfs = tracer.self_times()
    metrics = {
        metric: scale * tracer.mean_self(name, selfs)
        for metric, (name, scale) in SPAN_METRICS.items()
    }
    compute = tracer.by_name("serve.gateway.compute")
    compute_s = sum(s[END] - s[START] for s in compute)
    metrics["serve.gateway.compute_ms"] = (
        1e3 * compute_s / len(compute) if compute else 0.0
    )
    metrics["serve.gateway.busy_frac"] = compute_s / samples.busy_seconds
    metrics.update(counters)
    base, traced = _scaled_p50(untraced), _scaled_p50(samples)
    metrics["trace.overhead_pct"] = 100.0 * (traced - base) / base
    metrics["trace.spans"] = len(tracer.spans)
    for title, roots in wl.stage_roots(state, tracer).items():
        rows, total = tracer.stage_table(roots, selfs)
        if roots:
            print(format_stage_table(title, rows, total, len(roots)))
    print(
        f"tracing overhead: p50 {base * 1e3:.4f} ms untraced "
        f"({len(untraced.latencies)} ops) vs {traced * 1e3:.4f} ms traced "
        f"({len(samples.latencies)} ops)"
    )
    return samples, metrics, problems


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import cold
    import fleet
    import serve

    workloads = {"cold_strategy": cold, "serve_mix": serve, "fleet_churn": fleet}
    if args.workload not in workloads:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads)}",
            file=sys.stderr,
        )
        return 2
    import_s = time.perf_counter() - _STARTED
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    places = [ROOT / name for name in DEFAULT_STORES]
    places += [Path.cwd() / name for name in DEFAULT_STORES]
    existing = {p for p in places if p.exists()}
    tmp_parent = ROOT / ".perfbench-tmp"
    tmp_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        wl = workloads[args.workload]
        if args.trace:
            samples, metrics, problems = _traced_run(wl, args, scratch)
        else:
            samples, metrics, problems = _measured_run(
                wl, args, scratch, import_s
            )
        left = sorted(str(p.relative_to(scratch)) for p in scratch.rglob("*"))
        if left:
            problems.append(f"files left in the run directory: {left[:5]}")
        strays = [str(p) for p in places if p.exists() and p not in existing]
        if strays:
            problems.append(f"store directories created: {strays}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    if args.trace:
        # A layer the workload bypasses records no spans and no counts.
        for m in declared:
            metrics.setdefault(m["name"], 0.0)
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for m in declared:
        print(f"{m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
