"""Acceptance suite: eight end-to-end criteria at their stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output) before asserting, so a red run still reports every
criterion's verdict.
"""

import json
import math
import time

import numpy as np
import pytest

from maxminpass import (
    GridFunction,
    NonlinearitySpec,
    ProblemSpec,
    ToyProblem,
    build_radial_grid,
    estimate_mu_p,
    eval_T,
    hardy_constant,
    minimize_on_level,
    pick_solution_scale,
    toy_closed_form,
)
from maxminpass.cli import EXIT_OK, main


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {verdict}: {detail}")
    assert ok, detail


def fitted_power_law(sweep):
    """Least-squares log-log fit i = C * lambda^alpha over the sweep."""
    lams = np.array([r.lam for r in sweep if r.minimizer is not None])
    ivals = np.array([r.i_value for r in sweep if r.minimizer is not None])
    slope, intercept = np.polyfit(np.log(lams), np.log(ivals), 1)
    return float(slope), float(math.exp(intercept))


def test_criterion_1_toy_exactness(tmp_path):
    t0 = time.perf_counter()
    worst_maxmin = worst_mpa = 0.0
    for q in (2.5, 3.0, 4.0, 6.0):
        out = tmp_path / f"q{q}"
        out.mkdir()
        assert main(["toy", "--q", str(q), "--d", "2", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "toy_summary.json").read_text())
        c = toy_closed_form(ToyProblem(2, q))["c"]
        worst_maxmin = max(worst_maxmin, abs(payload["c_maxmin"] - c))
        worst_mpa = max(worst_mpa, abs(payload["c_mpa"] - c))
        if q == 4.0:
            assert abs(payload["lambda_bar"] - 0.25) <= 1e-6
            assert abs(payload["lambda_star_star"] - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = worst_maxmin <= 1e-6 and worst_mpa <= 1e-3 and elapsed < 5.0
    report(
        1,
        ok,
        f"toy q in {{2.5, 3, 4, 6}}: max-min err {worst_maxmin:.2e} (<=1e-6), "
        f"path err {worst_mpa:.2e} (<=1e-3), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_pass_level_identity(hardy_mu0, hardy_mu_half):
    gaps = {}
    for name, pipe in (("mu=0", hardy_mu0), ("mu=0.5*hardy", hardy_mu_half)):
        c_mm = pipe["curve"].c_maxmin
        gaps[name] = abs(pipe["mpa"].c_mpa - c_mm) / c_mm
    elapsed = hardy_mu0["elapsed"] + hardy_mu_half["elapsed"]
    ok = max(gaps.values()) <= 0.03 and elapsed < 300.0
    report(
        2,
        ok,
        f"pass level vs max-min, m=800 R=30: gaps "
        f"{', '.join(f'{k} {v:.2e}' for k, v in gaps.items())} (<=3%), "
        f"{elapsed:.0f}s (<5min)",
    )


def test_criterion_3_scaling_laws(hardy_mu0, critical_pipeline):
    slope_h, _ = fitted_power_law(hardy_mu0["sweep"])
    slope_c, _ = fitted_power_law(critical_pipeline["sweep"])
    # p = 2, n = 5: both targets are 1 - p/n = p/p* = 0.6
    err_h = abs(slope_h - 0.6) / 0.6
    err_c = abs(slope_c - 0.6) / 0.6
    ok = err_h <= 0.01 and err_c <= 0.01
    report(
        3,
        ok,
        f"fitted slopes: whole-space {slope_h:.5f}, ball {slope_c:.5f} "
        f"(target 0.6 within 1%)",
    )


def test_criterion_4_second_threshold_identity(hardy_mu0, hardy_mu_half):
    errs = {}
    for name, pipe in (("mu=0", hardy_mu0), ("mu=0.5*hardy", hardy_mu_half)):
        predicted = pipe["r1"].i_value ** (5.0 / 2.0)  # i_1^(n/p)
        errs[name] = abs(pipe["curve"].lambda_star_star - predicted) / predicted
    ok = max(errs.values()) <= 0.02
    report(
        4,
        ok,
        f"lambda** vs i_1^(n/p): "
        f"{', '.join(f'{k} {v:.2e}' for k, v in errs.items())} (<=2%)",
    )


def test_criterion_5_critical_point_verification(hardy_mu0, critical_pipeline):
    residuals = {}
    tol = {}
    spec_toy = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
    r_toy = minimize_on_level(spec_toy, 1.0)
    residuals["toy"] = pick_solution_scale(spec_toy, r_toy.minimizer)["residual"]
    tol["toy"] = 10.0 * 1e-8
    residuals["whole-space"] = pick_solution_scale(
        hardy_mu0["spec"], hardy_mu0["r1"].minimizer
    )["residual"]
    tol["whole-space"] = 10.0 * 1e-6
    residuals["ball"] = pick_solution_scale(
        critical_pipeline["spec"], critical_pipeline["r1"].minimizer
    )["residual"]
    tol["ball"] = 10.0 * 1e-6
    ok = all(residuals[k] <= tol[k] for k in residuals)
    report(
        5,
        ok,
        "residual at the unit-multiplier scale: "
        + ", ".join(f"{k} {residuals[k]:.2e} (<= {tol[k]:.0e})" for k in residuals),
    )


def test_criterion_6_argmax_adjudication(hardy_mu0, critical_pipeline):
    lines = []
    ok = True
    for name, pipe in (("whole-space", hardy_mu0), ("ball", critical_pipeline)):
        alpha, C = fitted_power_law(pipe["sweep"])
        fitted_argmax = (alpha * C) ** (1.0 / (1.0 - alpha))
        numeric = pipe["curve"].lambda_bar
        err = abs(numeric - fitted_argmax) / fitted_argmax
        ok = ok and err <= 0.02
        i_1 = pipe["r1"].i_value
        spec = pipe["spec"]
        from maxminpass import closed_form_lambda_bar

        forms = closed_form_lambda_bar(spec, i_1)
        paper_err = abs(forms["paper_formula"] - numeric) / numeric
        paper_matches = paper_err <= 0.02
        lines.append(
            f"{name}: argmax {numeric:.4g} vs fit {fitted_argmax:.4g} "
            f"(err {err:.2e}); printed closed form "
            f"{'matches' if paper_matches else 'does NOT match'} "
            f"(off by {paper_err:.1%}), derived form off by "
            f"{abs(forms['derived_argmax'] - numeric) / numeric:.1%}"
        )
    report(6, ok, "; ".join(lines))


def test_criterion_7_invariant_suites(hardy_mu0, critical_pipeline):
    violations = []
    rng = np.random.default_rng(123)

    # (a) gradients match central differences at second order
    from maxminpass import eval_U, grad_T, grad_U, inner

    grid = build_radial_grid(5, 30.0, 150, 50.0 ** (1.0 / 150))
    specs = [
        ProblemSpec(
            variant="hardy-subcritical", p=2.0, n=5, mu=1.0,
            nonlinearity=NonlinearitySpec(1.0, 8.0 / 3.0), grid=grid,
        ),
        ProblemSpec(
            variant="critical-bounded", p=2.0, n=5, mu=3.0,
            grid=build_radial_grid(5, 1.0, 100, 1.0),
        ),
    ]
    for spec in specs:
        r = spec.grid.nodes
        for trial in range(5):
            w = float(np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
            u = GridFunction(spec.grid, rng.uniform(0.5, 2.0) * np.exp(-((r / w) ** 2)))
            h = GridFunction(spec.grid, np.exp(-((r / (0.7 * w)) ** 2)))
            for energy, gradient in ((eval_T, grad_T), (eval_U, grad_U)):
                scale = 1.0 + abs(energy(spec, u))
                for eps in (1e-3, 1e-4):
                    lhs = inner(spec, gradient(spec, u), h)
                    rhs = (
                        energy(spec, u + eps * h) - energy(spec, u - eps * h)
                    ) / (2.0 * eps)
                    if abs(lhs - rhs) > 50.0 * scale * eps**2:
                        violations.append(f"gradient fd {spec.variant} eps={eps}")

    # (b) T >= 0 on 1000 random admissible inputs (Hardy inequality)
    spec = ProblemSpec(
        variant="hardy-subcritical", p=2.0, n=5, mu=0.5 * hardy_constant(2.0, 5),
        nonlinearity=NonlinearitySpec(1.0, 8.0 / 3.0), grid=grid,
    )
    r = grid.nodes
    for trial in range(1000):
        w1, w2 = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 2))
        a1, a2 = rng.uniform(-10.0, 10.0, 2)
        u = GridFunction(grid, a1 * np.exp(-((r / w1) ** 2)) + a2 * np.exp(-((r / w2) ** 2)))
        if eval_T(spec, u) < 0.0:
            violations.append(f"T < 0 at sample {trial}")

    # (c) exact elementwise identity I = i - lambda on both level curves
    for pipe in (hardy_mu0, critical_pipeline):
        curve = pipe["curve"]
        if not np.array_equal(curve.I_values, curve.i_values - curve.lambdas):
            violations.append("I != i - lambda")

    # (d) path-class membership preserved by the deformation, and
    # (e) intermediate-value level-crossing scan on the final paths
    from maxminpass import crosses_all_levels, eval_F

    for pipe in (hardy_mu0, critical_pipeline):
        spec, path = pipe["spec"], pipe["mpa"].path
        first = path.points[0]
        if np.any(first.values != 0.0):
            violations.append(f"{spec.variant}: path origin moved")
        if not eval_F(spec, path.points[-1]) < 0:
            violations.append(f"{spec.variant}: endpoint energy not negative")
        end_level = eval_U(spec, path.points[-1])
        lambdas = np.linspace(1e-6 * end_level, 0.999 * end_level, 100)
        if not crosses_all_levels(path, spec, lambdas):
            violations.append(f"{spec.variant}: level crossing missed")

    ok = not violations
    report(
        7,
        ok,
        "invariants (gradient fd, T >= 0 x1000, I identity, path class, "
        "level crossings): "
        + ("zero violations" if ok else "; ".join(violations[:5])),
    )


def test_criterion_8_first_eigenvalue_oracle(mu_p_dense):
    grid = build_radial_grid(5, 1.0, 400, 1.0)
    spec = ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=3.0, grid=grid)
    est = estimate_mu_p(spec)
    dense = mu_p_dense(grid)
    rel = abs(est - dense) / dense
    ok = rel <= 1e-6
    report(
        8,
        ok,
        f"direct first-eigenvalue estimate {est:.8f} vs dense oracle "
        f"{dense:.8f}, rel err {rel:.2e} (<=1e-6)",
    )
