"""Shared fixtures: the expensive PDE pipelines are built once per session
and reused by the module tests and the acceptance suite."""

import time

import numpy as np
import pytest
from scipy.linalg import eigh

from maxminpass import (
    MinimizeOptions,
    MpaOptions,
    NonlinearitySpec,
    ProblemSpec,
    ScalingAction,
    apply_scaling,
    build_level_curve,
    build_radial_grid,
    continuation_sweep,
    estimate_c,
    minimize_on_level,
    scaling_exponent,
    scaling_path,
)

HARDY_P = 2.0
HARDY_N = 5
HARDY_MU_HALF = 0.5 * 2.25  # half the Hardy constant ((n-p)/p)^p for p=2, n=5


def _dense_mu_p(grid):
    """Dense generalized-eigenvalue value of the p=2 Rayleigh quotient: the
    direct solver the library's tridiagonal gate and its iterative estimate
    are checked against."""
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
    lambdas = np.geomspace(1.0, lam_max, sweep_count)
    sweep = continuation_sweep(spec, lambdas, u0=r1.minimizer)
    good = [r for r in sweep if r.minimizer is not None]
    mins = {r.lam: r.minimizer for r in good}
    keys = np.array(sorted(mins))

    def i_fn(lam):
        k = float(keys[np.argmin(np.abs(np.log(keys) - np.log(lam)))])
        beta = (lam / k) ** (1.0 / HARDY_N)
        seed = apply_scaling(mins[k], ScalingAction("dilation", beta))
        return minimize_on_level(spec, lam, seed).i_value

    curve = build_level_curve([(r.lam, r.i_value) for r in good], i_fn=i_fn)
    alpha = scaling_exponent(spec)
    lam_end = 2.0 * r1.i_value ** (1.0 / (1.0 - alpha))
    endpoint = scaling_path(spec, r1.minimizer, lam_end)
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
    lambdas = np.geomspace(1.0, 4000.0, sweep_count)
    sweep = continuation_sweep(spec, lambdas, u0=r1.minimizer)
    good = [r for r in sweep if r.minimizer is not None]
    mins = {r.lam: r.minimizer for r in good}
    keys = np.array(sorted(mins))

    def i_fn(lam):
        k = float(keys[np.argmin(np.abs(np.log(keys) - np.log(lam)))])
        seed = apply_scaling(
            mins[k], ScalingAction("amplitude", (lam / k) ** (1.0 / spec.pstar))
        )
        return minimize_on_level(spec, lam, seed).i_value

    curve = build_level_curve([(r.lam, r.i_value) for r in good], i_fn=i_fn)
    alpha = scaling_exponent(spec)
    lam_end = 2.0 * r1.i_value ** (1.0 / (1.0 - alpha))
    endpoint = scaling_path(spec, r1.minimizer, lam_end)
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
