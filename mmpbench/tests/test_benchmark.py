"""Tests of the benchmark itself: span analysis, seeds and output checks,
tracer installation, and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest mmpbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import maxminpass
import run
import tracing
import workloads
from conftest import BENCH_DIR, ROOT
from tracing import Span, Tracer, pipeline_layer_metrics, self_times


def span(name, start, end, parent=-1, attrs=None):
    return Span(name, start, end, parent, 0, attrs)


# -- span analysis ------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 30, 60, parent=0),   # overlaps a: the overlap counts once
        span("c", 90, 120, parent=0),  # runs past its parent: clipped at 100
        span("d", 15, 20, parent=1),   # grandchild: not subtracted from root
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 30, 5]


def test_layer_metrics_on_a_synthetic_tree():
    M = "constrained.minimize_on_level"

    def solve(start, parent, lam, iters, converged=True):
        return span(M, start, start + 10, parent,
                    {"lam": lam, "iterations": iters, "converged": converged})

    spans = [
        span("levelcurve.build_level_curve", 0, 100),          # 0
        solve(10, 0, 2.0, 5),                                  # 1: refinement
        solve(30, 0, 3.0, 7, converged=False),                 # 2: refinement
        span("verify.pick_solution_scale", 200, 300),          # 3
        solve(210, 3, 4.0, 1),                                 # 4
        span("cli.maxmin", 400, 500),                          # 5
        solve(410, 5, 1.0, 2),                                 # 6: level-1 solve
        span("functionals.eval_U", 412, 414, parent=6),        # 7
        span("mpa.estimate_c", 600, 700, attrs={"sweeps": 9, "converged": True}),
    ]
    m = pipeline_layer_metrics(spans)
    assert m[f"{M}.calls"] == 4
    assert m[f"{M}.s"] == pytest.approx(40e-9)
    assert m[f"{M}.self_s"] == pytest.approx(38e-9)
    assert m["constrained.iterations"] == 15
    assert m["constrained.converged_ratio"] == 0.75
    assert m["levelcurve.refine_calls"] == 2
    assert m["levelcurve.refine_s"] == pytest.approx(20e-9)
    assert m["levelcurve.build_level_curve.self_s"] == pytest.approx(80e-9)
    assert m["verify.minimize_calls"] == 1
    assert m["cli.level1_solves"] == 1
    assert m["mpa.sweeps"] == 9
    assert m["functionals.eval_U.calls"] == 1


def test_inclusive_time_counts_recursion_once():
    spans = [span("mpa.deform", 0, 100), span("mpa.deform", 10, 50, parent=0)]
    m = pipeline_layer_metrics(spans)
    assert m["mpa.deform.calls"] == 2
    assert m["mpa.deform.s"] == pytest.approx(100e-9)


def test_tail_percentile_keeps_ten_samples_above():
    stats = run.tail_percentile([float(i) for i in range(1, 21)])
    assert stats["n"] == 20
    assert stats["median"] == 10.5
    assert stats["percentile"] == 50.0
    assert stats["at_percentile"] == 10.0
    assert sum(v > stats["at_percentile"] for v in range(1, 21)) == 10
    assert run.tail_percentile([1.0, 2.0])["percentile"] is None


# -- tracer installation --------------------------------------------------------


def test_install_wraps_every_binding_and_uninstall_restores():
    orig = maxminpass.functionals.eval_U
    tracer = Tracer()
    tracer.begin_pipeline(0)
    tracer.install()
    try:
        assert maxminpass.constrained.eval_U is not orig
        assert maxminpass.eval_U is maxminpass.constrained.eval_U
        assert maxminpass.mpa.eval_U is maxminpass.constrained.eval_U
    finally:
        tracer.uninstall()
    assert maxminpass.constrained.eval_U is orig
    assert maxminpass.eval_U is orig


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "TRACED",
        tracing.TRACED + [("functionals.eval_V", "functionals", "eval_V"),
                          ("gone.f", "no_such_module", "f")],
    )
    tracer = Tracer()
    tracer.begin_pipeline(0)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["functionals.eval_V", "gone.f"]


def test_traced_run_reports_a_renamed_function_as_absent(monkeypatch, capsys):
    renamed = [
        (name, module, "evaluate_T" if path == "eval_T" else path)
        for name, module, path in tracing.TRACED
    ]
    monkeypatch.setattr(tracing, "TRACED", renamed)
    argv = ["--workload", "toy-oracle", "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    assert run.main(argv) == 0
    *_, report, result = capsys.readouterr().out.strip().splitlines()
    metrics = json.loads(result)["metrics"]
    assert metrics["functionals.eval_T.calls"]["value"] is None
    assert metrics["functionals.eval_U.calls"]["value"] > 0
    assert json.loads(report)["absent"] == ["functionals.eval_T.calls", "functionals.eval_T.s"]


def test_traced_run_prints_every_metric_when_every_pipeline_raises(monkeypatch, capsys):
    # A name the workload calls directly is gone, so every pipeline raises
    # before its "pipeline" phase ends.
    monkeypatch.delattr(maxminpass, "toy_c_bruteforce")
    argv = ["--workload", "toy-oracle", "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    assert run.main(argv) == 0
    *_, report, result = capsys.readouterr().out.strip().splitlines()
    result = json.loads(result)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["trace.overhead_s"]["value"] is None
    assert result["metrics"]["failed_frac"]["value"] == 1.0
    assert json.loads(report)["failures"][0].startswith("raised: ")


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    workload = workloads.WORKLOADS["toy-oracle"]
    inputs = workload.inputs(0)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        run.run_pipeline(workload, inputs, 1, tracer)
        m = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in m.items()
                       if k.endswith(".calls") or (k in tracing.DERIVED and not k.endswith("_s"))})
    assert counts[0] == counts[1]
    assert counts[0]["functionals.eval_F.calls"] > 0


# -- seeds and output checks ----------------------------------------------------


def test_seed_zero_reproduces_the_reference_parameters():
    hardy = workloads.WORKLOADS["hardy-half"]
    spec = hardy.setup(hardy.inputs(0))
    assert spec.mu == 0.5 * 2.25
    assert (spec.p, spec.n, spec.nonlinearity.q) == (2.0, 5, pytest.approx(8.0 / 3.0))
    assert (spec.grid.R, spec.grid.m, spec.grid.stretch) == (30.0, 800, 50.0 ** (1.0 / 800))

    critical = workloads.WORKLOADS["critical-ball"]
    assert critical.inputs(0) == {"mu_over_mu_p": 0.3}
    spec = critical.setup(critical.inputs(0))
    assert (spec.grid.R, spec.grid.m, spec.grid.stretch) == (1.0, 800, 1.0)
    assert spec.mu == pytest.approx(0.3 * spec.mu_limit, rel=1e-6)

    assert workloads.WORKLOADS["toy-oracle"].inputs(0) == {"qs": [2.5, 3.0, 4.0, 6.0]}

    # The CLI workload runs the README's hardy.json with mu = 0.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"Example config \(`hardy.json`\):\s*```json\n(.*?)```", readme, re.S)
    assert workloads.WORKLOADS["cli-hardy-mu0"].inputs(0)["config"] == json.loads(block.group(1))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_another_seed_draws_close_inputs_that_pass_every_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(1)
    if name == "hardy-half":
        assert 0.45 <= inputs["mu_over_hardy"] <= 0.55
    elif name == "critical-ball":
        assert 0.25 <= inputs["mu_over_mu_p"] <= 0.35
    elif name == "toy-oracle":
        assert all(2.2 < q < 8.0 for q in inputs["qs"]) and len(inputs["qs"]) == 4
    if name != "cli-hardy-mu0":  # mu = 0 leaves nothing to draw
        assert inputs != workload.inputs(0)
    assert workload.inputs(1) == inputs
    clock = workloads.Clock()
    outcome = workload.pipeline(inputs, clock, tmp_path)
    assert outcome.failures == []
    assert outcome.c_gap_rel <= workloads.GAP_TOL
    assert {"setup", "maxmin", "mpa", "pipeline"} <= set(clock.times)


def test_a_failed_check_is_recorded():
    out = workloads.Outcome()
    out.gap("x", 1.0, 1.1)
    assert out.c_gap_rel == pytest.approx(0.1)
    assert len(out.failures) == 1


# -- the benchmark's contract ---------------------------------------------------


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    traced = {name for name, _, _ in tracing.TRACED}
    for name in run.PER_LAYER_UNITS:
        if name.split(".")[0] in {"c_gap_rel", "failed_frac", "trace"} or name == "cli.artifact_bytes":
            continue
        assert set(tracing.sources(name)) <= traced, name


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mmpbench/run.py", "--workload", "toy-oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
