"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``maxminpass`` module that binds it, so calls from one module into
another are recorded too; ``uninstall`` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, pipeline, attrs) and the
per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# (span name, module, attribute path).  A name the package no longer defines
# is reported absent instead of failing the run.
TRACED = [
    ("grids.build_radial_grid", "grids", "build_radial_grid"),
    ("grids.apply_scaling", "grids", "apply_scaling"),
    ("functionals.ProblemSpec", "functionals", "ProblemSpec.__init__"),
    ("functionals.problem_from_config", "functionals", "problem_from_config"),
    ("functionals.estimate_mu_p", "functionals", "estimate_mu_p"),
    ("functionals.eval_T", "functionals", "eval_T"),
    ("functionals.eval_U", "functionals", "eval_U"),
    ("functionals.eval_F", "functionals", "eval_F"),
    ("functionals.grad_T", "functionals", "grad_T"),
    ("functionals.grad_U", "functionals", "grad_U"),
    ("functionals.Preconditioner.apply", "functionals", "Preconditioner.apply"),
    ("constrained.minimize_on_level", "constrained", "minimize_on_level"),
    ("constrained.continuation_sweep", "constrained", "continuation_sweep"),
    ("constrained.retract_to_level", "constrained", "retract_to_level"),
    ("levelcurve.build_level_curve", "levelcurve", "build_level_curve"),
    ("levelcurve.scaling_path", "levelcurve", "scaling_path"),
    ("mpa.estimate_c", "mpa", "estimate_c"),
    ("mpa.deform", "mpa", "deform"),
    ("verify.pick_solution_scale", "verify", "pick_solution_scale"),
    ("toy.toy_c_bruteforce", "toy", "toy_c_bruteforce"),
    ("cli.maxmin", "cli", "cmd_maxmin"),
    ("cli.mpa", "cli", "cmd_mpa"),
    ("cli.verify", "cli", "cmd_verify"),
]


def _observe_minimize(args, kwargs, result):
    lam = kwargs["lam"] if "lam" in kwargs else args[1]
    return {"lam": float(lam), "iterations": result.iterations, "converged": result.converged}


def _observe_mpa(args, kwargs, result):
    return {"sweeps": result.sweeps, "converged": result.converged}


OBSERVERS = {
    "constrained.minimize_on_level": _observe_minimize,
    "mpa.estimate_c": _observe_mpa,
}


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the parent span, -1 for a root
    pipeline: int
    attrs: dict | None


PACKAGE = "maxminpass"


class Tracer:
    """Records spans around the traced functions."""

    def __init__(self):
        # Spans are stored as plain tuples in Span's field order.
        self.pipelines: dict[int, list[tuple | None]] = {}
        self.spans: list[tuple | None] = []
        self.pipeline = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin_pipeline(self, pipeline: int) -> None:
        """Record the following spans under ``pipeline``; parents index its list."""
        self.pipeline = pipeline
        self.spans = self.pipelines.setdefault(pipeline, [])

    def _wrap(self, name: str, fn):
        # Plain tuples and local names: this runs tens of thousands of times
        # a pipeline.
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                if raised:
                    attrs = {"error": True}
                else:
                    attrs = observe(args, kwargs, result) if observe else None
                spans[idx] = (name, t0, t1, parent, tracer.pipeline, attrs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name that the package still defines."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for name, module, path in TRACED:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if outer:  # a method: patch the class only
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as f:
            for spans in self.pipelines.values():
                for s in spans:
                    f.write(json.dumps(Span._make(s)._asdict()) + "\n")


# -- analysis ---------------------------------------------------------------


def _covered(intervals) -> int:
    """Length of the union of the (start, end) intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = []
        for c in children[i]:
            lo, hi = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if hi > lo:
                clipped.append((lo, hi))
        out.append(s.end - s.start - _covered(clipped))
    return out


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def pipeline_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one pipeline, from its spans alone.

    ``<span>.calls`` counts calls, ``<span>.s`` is inclusive time (outermost
    calls only, so recursion is not counted twice), ``<span>.self_s`` is
    time not covered by child spans.  The rest are named in ``DERIVED``.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += selfs[i] * 1e-9
        if not _has_ancestor(spans, i, {s.name}):
            incl[s.name] += (s.end - s.start) * 1e-9
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]

    minimize = [i for i, s in enumerate(spans) if s.name == "constrained.minimize_on_level"]
    results = [spans[i].attrs for i in minimize if spans[i].attrs and "iterations" in spans[i].attrs]
    out["constrained.iterations"] = sum(a["iterations"] for a in results)
    out["constrained.converged_ratio"] = (
        sum(a["converged"] for a in results) / len(minimize) if minimize else None
    )
    refine = [i for i in minimize if _has_ancestor(spans, i, {"levelcurve.build_level_curve"})]
    out["levelcurve.refine_calls"] = len(refine)
    out["levelcurve.refine_s"] = sum(spans[i].end - spans[i].start for i in refine) * 1e-9
    out["mpa.sweeps"] = sum(
        s.attrs["sweeps"] for s in spans
        if s.name == "mpa.estimate_c" and s.attrs and "sweeps" in s.attrs
    )
    out["verify.minimize_calls"] = sum(
        1 for i in minimize if _has_ancestor(spans, i, {"verify.pick_solution_scale"})
    )
    cli = {"cli.maxmin", "cli.mpa", "cli.verify"}
    out["cli.level1_solves"] = sum(
        1 for i in minimize
        if spans[i].attrs and spans[i].attrs.get("lam") == 1.0 and _has_ancestor(spans, i, cli)
    )
    return out


# Traced names each derived metric is computed from, beyond a name's own
# calls / s / self_s.
_MIN = "constrained.minimize_on_level"
DERIVED = {
    "constrained.iterations": (_MIN,),
    "constrained.converged_ratio": (_MIN,),
    "levelcurve.refine_calls": (_MIN, "levelcurve.build_level_curve"),
    "levelcurve.refine_s": (_MIN, "levelcurve.build_level_curve"),
    "mpa.sweeps": ("mpa.estimate_c",),
    "verify.minimize_calls": (_MIN, "verify.pick_solution_scale"),
    "cli.level1_solves": (_MIN, "cli.maxmin", "cli.mpa", "cli.verify"),
}


def sources(metric: str) -> tuple[str, ...]:
    """The traced names a per-layer metric is computed from."""
    return DERIVED.get(metric, (metric.rsplit(".", 1)[0],))


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Median over the traced pipelines of each per-pipeline metric."""
    per = [
        pipeline_layer_metrics([Span._make(s) for s in spans])
        for spans in tracer.pipelines.values()
    ]
    out = {}
    for key in per[0] if per else ():
        values = [p[key] for p in per if p[key] is not None]
        out[key] = statistics.median(values) if values else None
    return out
