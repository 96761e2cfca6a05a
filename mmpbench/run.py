"""Run one workload of the maxminpass benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 mmpbench/run.py --workload hardy-half --seed 0 --seconds 25 --trace 0

Each workload runs closed loop in this single process, one pipeline at a
time: one untimed warm-up pipeline, then timed pipelines, each followed by
repeated problem set-ups, until ``--seconds`` is used.  Every pipeline's
outputs are checked.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` traced and untraced
pipelines alternate and the last line holds the per-layer metrics derived
from the spans.  The line before it is a full report: timing percentiles
and sample counts, output checks, the environment and the reference
kernel's time.  Reports and spans are also written under
``mmpbench/results/``.  See ``mmpbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

# BLAS and OpenMP pools are pinned to one thread, in this process's own
# environment, before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Nominal time of the reference kernel; timings are scaled to it.
REFERENCE_S = 0.004
# Length of each reference window, as a share of the time measured before it.
REFERENCE_SHARE = 0.15

# At most this many pipelines of a traced run are traced; spans of more
# would only cost memory, since the counts repeat exactly.
TRACED_PIPELINES = 5

# After each pipeline the set-up alone is repeated for this share of the
# pipeline's time: at least once, at most SETUP_MAX_REPEATS times.
SETUP_SHARE = 0.1
SETUP_MAX_REPEATS = 200

END_TO_END_UNITS = {
    "setup_s": "s",
    "maxmin_s": "s",
    "mpa_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "grids.build_radial_grid.s": "s",
    "grids.apply_scaling.calls": "count",
    "grids.apply_scaling.s": "s",
    "functionals.ProblemSpec.calls": "count",
    "functionals.ProblemSpec.s": "s",
    "functionals.estimate_mu_p.s": "s",
    **{
        f"functionals.{fn}.{kind}": unit
        for fn in ("eval_T", "eval_U", "eval_F", "grad_T", "grad_U")
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    "functionals.Preconditioner.apply.calls": "count",
    "functionals.Preconditioner.apply.s": "s",
    "constrained.minimize_on_level.calls": "count",
    "constrained.minimize_on_level.self_s": "s",
    "constrained.continuation_sweep.s": "s",
    "constrained.iterations": "count",
    "constrained.converged_ratio": "1",
    "constrained.retract_to_level.calls": "count",
    "constrained.retract_to_level.s": "s",
    "levelcurve.build_level_curve.self_s": "s",
    "levelcurve.refine_calls": "count",
    "levelcurve.refine_s": "s",
    "mpa.deform.calls": "count",
    "mpa.deform.self_s": "s",
    "mpa.estimate_c.self_s": "s",
    "mpa.sweeps": "count",
    "verify.pick_solution_scale.s": "s",
    "verify.pick_solution_scale.self_s": "s",
    "verify.minimize_calls": "count",
    "toy.toy_c_bruteforce.s": "s",
    "cli.maxmin.s": "s",
    "cli.mpa.s": "s",
    "cli.verify.s": "s",
    "cli.level1_solves": "count",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
    "c_gap_rel": "1",
    "failed_frac": "1",
}


def tail_percentile(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it,
    and the sample count.  The percentile is None below eleven samples."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None,
           "percentile": None, "at_percentile": None}
    if n > 10:
        ordered = sorted(values)
        out["percentile"] = 100.0 * (n - 10) / n
        out["at_percentile"] = ordered[n - 11]
    return out


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Reference:
    """A fixed kernel timed between pipelines, to follow the machine's speed.

    On a shared machine the speed of one core drifts by tens of percent and
    switches between states that last seconds.  Each timing is therefore
    also reported scaled by ``REFERENCE_S`` over the kernel's median time in
    the windows just before and just after it.  Of the kernels tried (small
    numpy arithmetic, a copy of the package's inner-loop mix, plain Python)
    the plain Python loop tracked the pipelines' drift best, and it shares
    no code with the package.
    """

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def _kernel() -> int:
        acc = 0
        for i in range(50_000):
            acc += i * i
        return acc

    def window(self, seconds: float) -> float:
        """Time the kernel at least five times and for about ``seconds``;
        return its median."""
        start = time.perf_counter()
        samples = []
        while len(samples) < 5 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - t0)
        self.samples += samples
        return statistics.median(samples)


def environment(np, scipy, seed: int, reference: Reference) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "reference_kernel_ms": statistics.median(reference.samples) * 1e3,
        "reference_kernel_samples": len(reference.samples),
    }


def run_pipeline(workload, inputs, pid, tracer=None) -> dict:
    """One pipeline; an exception counts as a failed pipeline, not a crash."""
    import workloads

    clock = workloads.Clock()
    record = {"pipeline": pid, "traced": tracer is not None}
    if tracer is not None:
        tracer.begin_pipeline(pid)
        tracer.install()
    try:
        outcome = workload.pipeline(inputs, clock, RESULTS / "work")
        record.update(
            failures=outcome.failures,
            c_gap_rel=outcome.c_gap_rel,
            artifact_bytes=outcome.artifact_bytes,
        )
    except Exception:
        record.update(failures=["raised: " + traceback.format_exc(limit=3)],
                      c_gap_rel=None, artifact_bytes=0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["times"] = dict(clock.times)
    return record


def repeat_setup(workload, inputs, seconds: float) -> list[float]:
    """Time the problem set-up alone, at least once, for about ``seconds``."""
    samples = []
    while not samples or (sum(samples) < seconds and len(samples) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        workload.setup(inputs)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(workload, inputs, seconds: float, trace: bool, reference: Reference) -> tuple:
    """Warm up, then run pipelines until ``seconds`` is used.

    After each pipeline the set-up alone is repeated for ``SETUP_SHARE`` of
    its time, then the reference kernel for ``REFERENCE_SHARE``; the record
    keeps the mean of the kernel medians on either side as ``kernel_s``.
    Under ``trace`` pipelines alternate traced and untraced, with at least
    one of each, so that tracing overhead is measured in the same process;
    after ``TRACED_PIPELINES`` traced ones the rest run untraced.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    warmup = run_pipeline(workload, inputs, 0)
    warmup["warmup"] = True
    after = reference.window(REFERENCE_SHARE * (time.perf_counter() - t0))

    pipelines = [warmup]
    start = time.perf_counter()
    pid = 1
    while True:
        before = after
        t0 = time.perf_counter()
        traced = trace and pid % 2 and len(tracer.pipelines) < TRACED_PIPELINES
        record = run_pipeline(workload, inputs, pid, tracer if traced else None)
        record["setups"] = repeat_setup(workload, inputs, SETUP_SHARE * (time.perf_counter() - t0))
        last = time.perf_counter() - t0
        after = reference.window(REFERENCE_SHARE * last)
        record["kernel_s"] = 0.5 * (before + after)
        pipelines.append(record)
        pid += 1
        enough = not trace or pid > 2
        if enough and time.perf_counter() - start + last > seconds:
            break
    return pipelines, tracer


def setup_samples(pipelines: list, scaled: bool = False) -> list[float]:
    """Every timed set-up: the repeats after each pipeline, and the set-up
    phase of each untraced pipeline."""
    out = []
    for p in pipelines:
        if p.get("warmup"):
            continue
        factor = REFERENCE_S / p["kernel_s"] if scaled else 1.0
        times = p["setups"] + ([p["times"]["setup"]] if not p["traced"] and "setup" in p["times"] else [])
        out += [t * factor for t in times]
    return out


def phase_samples(pipelines: list, phase: str, scaled: bool = False) -> list[float]:
    """One phase's time in each timed untraced pipeline, in wall or reference seconds."""
    return [
        p["times"][phase] * (REFERENCE_S / p["kernel_s"] if scaled else 1.0)
        for p in pipelines
        if not p.get("warmup") and not p["traced"] and phase in p["times"]
    ]


def summarize(args, workload, inputs, pipelines, tracer, env) -> tuple[dict, dict]:
    """The report line and the metrics of the last line."""
    wall = {"setup_s": tail_percentile(setup_samples(pipelines))}
    scaled = {"setup_s": tail_percentile(setup_samples(pipelines, scaled=True))}
    for phase in ("maxmin", "mpa", "pipeline"):
        wall[f"{phase}_s"] = tail_percentile(phase_samples(pipelines, phase))
        scaled[f"{phase}_s"] = tail_percentile(phase_samples(pipelines, phase, scaled=True))
    failed = sum(1 for p in pipelines if p["failures"])
    gaps = [p["c_gap_rel"] for p in pipelines if p["c_gap_rel"] is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "pipelines": len(pipelines),
        "failed": failed,
        "failed_frac": failed / len(pipelines),
        "c_gap_rel": max(gaps) if gaps else None,
        "failures": [f for p in pipelines for f in p["failures"]][:20],
        "scaled": scaled,
        "wall": wall,
        "peak_rss_mb": peak_rss_mb,
        "environment": env,
    }
    if tracer is None:
        values = {k: t["median"] for k, t in scaled.items()}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        return report, metrics

    from tracing import layer_metrics, sources

    values = layer_metrics(tracer)
    traced = [p["times"]["pipeline"] for p in pipelines
              if p["traced"] and "pipeline" in p["times"]]
    untraced = phase_samples(pipelines, "pipeline")
    # A pipeline that raised records no pipeline time; with none of one
    # kind there is no overhead to report.
    values["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced) if traced and untraced else None
    )
    values["cli.artifact_bytes"] = statistics.median(
        p["artifact_bytes"] for p in pipelines if p["traced"]
    )
    values["c_gap_rel"] = report["c_gap_rel"]
    values["failed_frac"] = report["failed_frac"]
    absent = set(tracer.absent)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        value = None if absent.intersection(sources(name)) else values.get(name)
        metrics[name] = {"value": value, "unit": unit}
    report["absent"] = sorted(k for k, m in metrics.items() if m["value"] is None)
    report["trace_overhead_s"] = values["trace.overhead_s"]
    report["traced_pipeline_s"] = tail_percentile(traced)
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    package_dir = ROOT / "src" / "maxminpass"
    if not (package_dir / "__init__.py").is_file():
        print(f"error: no package sources at {package_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy as np
    import scipy

    import maxminpass
    import workloads

    if Path(maxminpass.__file__).resolve().parent != package_dir.resolve():
        print(f"error: imported maxminpass from {maxminpass.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    reference = Reference()
    pipelines, tracer = measure(workload, inputs, args.seconds, bool(args.trace), reference)
    env = environment(np, scipy, args.seed, reference)
    report, metrics = summarize(args, workload, inputs, pipelines, tracer, env)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"report": report, "metrics": metrics, "pipelines": pipelines}, indent=1)
    )
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl.gz")

    failed = report["failed"]
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(pipelines),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
