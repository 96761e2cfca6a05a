"""Shared fixtures: the expensive PDE pipelines are built once per session
and reused by the module tests and the acceptance suite."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from maxminpass import constrained, mpa
from maxminpass import (
    InfeasibleError,
    MinimizeResult,
    MpaOptions,
    NonlinearitySpec,
    ProblemSpec,
    build_radial_grid,
    closed_form_lambda_bar,
    continuation_sweep,
    default_seed,
    el_residual,
    estimate_c,
    eval_T,
    find_endpoint,
    grad_T,
    grad_U,
    inner,
    level_curve,
    mask,
    minimize_on_level,
    multiplier_of,
    norm,
    precondition,
    retract_to_level,
    scaling_path,
)
from maxminpass.functionals import factor_tridiagonal, solve_tridiagonal

HARDY_P = 2.0
HARDY_N = 5
HARDY_MU_HALF = 0.5 * 2.25  # half the Hardy constant ((n-p)/p)^p for p=2, n=5


def _dense_mu_p(grid):
    """Dense generalized-eigenvalue value of the p=2 Rayleigh quotient: an
    independent direct solver the library's mu_p is checked against."""
    c = grid.we / grid.dr**2
    m = grid.m
    K = np.zeros((m, m))
    idx = np.arange(m - 1)
    K[idx, idx] += c
    K[idx + 1, idx + 1] += c
    K[idx, idx + 1] -= c
    K[idx + 1, idx] -= c
    # Dirichlet at R: drop the last node.
    w = grid.weights[:-1]
    vals = eigh(K[:-1, :-1], np.diag(w), eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])


@pytest.fixture(scope="session")
def mu_p_dense():
    return _dense_mu_p


def _point_minimize(spec, lam, u0=None):
    """Constrained descent on points, every step through the point-level
    dispatchers and ``retract_to_level``: the reference the array loop of
    ``minimize_on_level`` is checked against.  It reads the same budget and
    line-search constants, at call time.  Returns the same fields."""
    gtol, backtrack = spec.model.grad_tol, constrained.BACKTRACK
    if u0 is None:
        u0 = default_seed(spec, lam)
    u = retract_to_level(spec, u0, lam)
    T_cur = eval_T(spec, u)

    def multiplier_and_residual(u):
        gT = mask(spec, grad_T(spec, u))
        gU = mask(spec, grad_U(spec, u))
        gU2 = inner(spec, gU, gU)
        theta = inner(spec, gT, gU) / gU2 if gU2 > 0 else 0.0
        res_vec = gT - theta * gU
        return theta, norm(spec, res_vec) / (1.0 + norm(spec, gT)), gT, gU, res_vec

    step = 1.0
    theta, res, gT, gU, res_vec = multiplier_and_residual(u)
    iterations = 0
    converged = res <= gtol
    prev_u = prev_d = None
    while not converged and iterations < constrained.MAX_ITERS:
        iterations += 1
        pT = precondition(spec, gT)
        pU = precondition(spec, gU)
        denom = inner(spec, pU, gU)
        alpha = inner(spec, pT, gU) / denom if denom != 0 else 0.0
        d = mask(spec, pT - alpha * pU)
        if prev_u is not None:
            s = u - prev_u
            y = d - prev_d
            sy = inner(spec, s, y)
            if sy > 0:
                step = min(max(inner(spec, s, s) / sy, 1e-10), 1e6)
        slope = max(inner(spec, d, res_vec), 0.0)
        accepted = False
        t = step
        for _ in range(60):
            try:
                ut = retract_to_level(spec, u - t * d, lam)
            except InfeasibleError:
                t *= backtrack
                continue
            Tt = eval_T(spec, ut)
            if Tt <= T_cur - 1e-4 * t * slope + 1e-14 * (1.0 + abs(T_cur)):
                accepted = True
                break
            t *= backtrack
        if not accepted:
            break
        prev_u, prev_d = u, d
        u, T_cur = ut, Tt
        step = t / backtrack
        theta, res, gT, gU, res_vec = multiplier_and_residual(u)
        converged = res <= gtol
    return MinimizeResult(
        lam=lam, i_value=T_cur, minimizer=u, multiplier=theta,
        iterations=iterations, converged=bool(converged), residual=res,
    )


@pytest.fixture(scope="session")
def minimize_oracle():
    return _point_minimize


def _point_polish(spec, x):
    """Newton's method on F' = 0 from the array x, every point through the
    point-level gradients and ``el_residual``, every Hessian through
    ``spec.model.hessian`` and ``factor_tridiagonal``: the reference the
    record loop of ``mpa.polish`` is checked against.  It reads the same
    step budget and floor, at call time.  Returns (x*, residual, negative
    pivots or None, Newton steps)."""
    model = spec.model

    def residual(x):
        u = model.wrap(x)
        r = mask(spec, grad_T(spec, u) - grad_U(spec, u))
        return model.unwrap(r), el_residual(spec, u)

    def factor(x):
        return factor_tridiagonal(*model.hessian(x, 1.0))

    r, res = residual(x)
    fac, steps = factor(x), 0
    for _ in range(mpa.POLISH_STEPS):
        if fac is None or res <= mpa.POLISH_FLOOR * model.grad_tol:
            break
        s = solve_tridiagonal(fac, model.grid.weights * r)
        for h in 0.5 ** np.arange(7):
            y = x - h * s
            r_y, res_y = residual(y)
            if res_y < res:
                break
        else:
            break
        x, r, res, steps = y, r_y, res_y, steps + 1
        fac = factor(x)
    return x, res, None if fac is None else fac[2], steps


@pytest.fixture(scope="session")
def polish_oracle():
    return _point_polish


def _bisect_solution_scale(spec, v, bisect_tol=1e-10):
    """The unit-multiplier search by log-bisection, re-minimizing at every
    level it visits (Hardy), plus the candidate table: the reference the
    Newton search of ``pick_solution_scale`` is checked against.  It uses
    only that theta decreases along the scaling path, not the scaling law's
    slope the Newton steps take.  Returns the same keys, without the solve
    counts."""

    def theta_at_level(lam):
        u = scaling_path(spec, v, lam)
        if not spec.model.exact_transport:
            u = minimize_on_level(spec, lam, u).minimizer
        return multiplier_of(spec, u), u

    forms = closed_form_lambda_bar(spec, eval_T(spec, v))
    guess = forms["derived_argmax"]
    lo, hi = guess / 16.0, guess * 16.0
    th_lo, _ = theta_at_level(lo)
    th_hi, _ = theta_at_level(hi)
    for _ in range(8):
        if th_lo > 1.0 > th_hi:
            break
        if th_lo <= 1.0:
            lo /= 16.0
            th_lo, _ = theta_at_level(lo)
        if th_hi >= 1.0:
            hi *= 16.0
            th_hi, _ = theta_at_level(hi)
    assert th_lo > 1.0 > th_hi, "oracle could not bracket theta = 1"

    a, b = math.log(lo), math.log(hi)
    while b - a > bisect_tol:
        mid = 0.5 * (a + b)
        th, _ = theta_at_level(math.exp(mid))
        if th > 1.0:
            a = mid
        else:
            b = mid
    lam_unit = math.exp(0.5 * (a + b))
    theta_unit, u_unit = theta_at_level(lam_unit)

    lam = forms["derived_argmax"]
    points = [
        (label, lam, multiplier_of(spec, lam**expo * v), lam**expo * v)
        for label, expo in spec.model.amplitude_exponents
    ]
    for label, level in (
        ("paper_formula", forms["paper_formula"]),
        ("derived_argmax", forms["derived_argmax"]),
        ("unit_multiplier", lam_unit),
    ):
        points.append((label, level, *theta_at_level(level)))
    return {
        "lambda_at_unit_multiplier": lam_unit,
        "theta": float(theta_unit),
        "residual": float(el_residual(spec, u_unit)),
        "minimizer_at_unit_multiplier": u_unit,
        "candidates_compared": [
            {"label": label, "lam": float(level), "theta": float(theta),
             "residual": float(el_residual(spec, u))}
            for label, level, theta, u in points
        ],
    }


@pytest.fixture(scope="session")
def bisect_oracle():
    return _bisect_solution_scale


def _geometric_stretch(m, span=50.0):
    """Stretch factor giving a fixed finest-to-coarsest cell ratio."""
    return span ** (1.0 / m)


def run_hardy_pipeline(mu, m=800, R=30.0, sweep_count=40, lam_max=30000.0):
    """Full max-min plus direct-path pipeline for the whole-space problem."""
    t0 = time.perf_counter()
    grid = build_radial_grid(HARDY_N, R, m, _geometric_stretch(m))
    spec = ProblemSpec(
        variant="hardy-subcritical",
        p=HARDY_P,
        n=HARDY_N,
        mu=mu,
        nonlinearity=NonlinearitySpec(1.0, (HARDY_P + 10.0 / 3.0) / 2.0),
        grid=grid,
    )
    r1 = minimize_on_level(spec, 1.0)
    sweep = continuation_sweep(spec, np.geomspace(1.0, lam_max, sweep_count), r1)
    curve, _ = level_curve(spec, sweep)
    endpoint = find_endpoint(spec, r1.minimizer)
    mpa = estimate_c(spec, endpoint, MpaOptions(), k=32)
    return {
        "spec": spec,
        "r1": r1,
        "sweep": sweep,
        "curve": curve,
        "mpa": mpa,
        "endpoint": endpoint,
        "elapsed": time.perf_counter() - t0,
    }


def run_critical_pipeline(mu_fraction=0.3, m=200, sweep_count=30):
    """Max-min plus direct-path pipeline for the Dirichlet ball problem."""
    t0 = time.perf_counter()
    grid = build_radial_grid(5, 1.0, m, 1.0)
    from maxminpass.functionals import estimate_mu_p

    spec0 = ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=1.0, grid=grid)
    mu_p = estimate_mu_p(spec0)
    spec = ProblemSpec(
        variant="critical-bounded", p=2.0, n=5, mu=mu_fraction * mu_p, grid=grid
    )
    r1 = minimize_on_level(spec, 1.0)
    sweep = continuation_sweep(spec, np.geomspace(1.0, 4000.0, sweep_count), r1)
    curve, _ = level_curve(spec, sweep)
    endpoint = find_endpoint(spec, r1.minimizer)
    mpa = estimate_c(spec, endpoint, MpaOptions(), k=32)
    return {
        "spec": spec,
        "mu_p": mu_p,
        "r1": r1,
        "sweep": sweep,
        "curve": curve,
        "mpa": mpa,
        "endpoint": endpoint,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def hardy_mu0():
    return run_hardy_pipeline(0.0)


@pytest.fixture(scope="session")
def hardy_mu_half():
    return run_hardy_pipeline(HARDY_MU_HALF)


@pytest.fixture(scope="session")
def critical_pipeline():
    return run_critical_pipeline()


@pytest.fixture(scope="session")
def hardy_small():
    """A cheap whole-space problem for unit tests that do not need m=800."""
    grid = build_radial_grid(5, 30.0, 200, _geometric_stretch(200))
    return ProblemSpec(
        variant="hardy-subcritical",
        p=2.0,
        n=5,
        mu=0.0,
        nonlinearity=NonlinearitySpec(1.0, 8.0 / 3.0),
        grid=grid,
    )


@pytest.fixture(scope="session")
def critical_small():
    grid = build_radial_grid(5, 1.0, 120, 1.0)
    return ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=3.0, grid=grid)
