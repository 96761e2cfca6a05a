"""Constrained minimization on level sets and the continuation sweep."""

import itertools

import numpy as np
import pytest
from scipy.optimize import brentq

from maxminpass import constrained
from maxminpass import (
    GridFunction,
    InfeasibleError,
    NonlinearitySpec,
    ProblemSpec,
    ToyProblem,
    ValidationError,
    build_level_curve,
    build_radial_grid,
    continuation_sweep,
    default_seed,
    eval_T,
    eval_U,
    hardy_constant,
    minimize_on_level,
    norm,
    retract_to_level,
    scaling_path,
    toy_i_lambda,
)
from maxminpass.cli import _sweep_lambdas
from maxminpass.constrained import multiplier_and_residual, newton_direction
from maxminpass.functionals import RETRACT_TOL, factor_tridiagonal

RNG = np.random.default_rng(7)


def toy_spec(q=4.0, d=2):
    return ProblemSpec(variant="toy", toy=ToyProblem(d, q))


def hardy_variants():
    """Whole-space specs over mu in {0, H/2}, g's slope m and exponent q.

    n = 3 so that q = 3.2 is subcritical (p* = 6; at n = 5, p* = 10/3)."""
    grid = build_radial_grid(3, 30.0, 200, 50.0 ** (1.0 / 200))
    for mu, m, q in itertools.product(
        (0.0, 0.5 * hardy_constant(2.0, 3)), (1.0, 2.5), (2.5, 3.2)
    ):
        yield ProblemSpec(
            variant="hardy-subcritical",
            p=2.0,
            n=3,
            mu=mu,
            nonlinearity=NonlinearitySpec(m, q),
            grid=grid,
        )


SCALES = (1e-150, 1e-8, 1.0, 1e8, 1e100, 1e150, 1e300)


def hardy_n3(m, q):
    """A whole-space spec at mu = 0 on the grid of ``hardy_variants``."""
    return ProblemSpec(
        variant="hardy-subcritical",
        p=2.0,
        n=3,
        nonlinearity=NonlinearitySpec(m, q),
        grid=build_radial_grid(3, 30.0, 200, 50.0 ** (1.0 / 200)),
    )


def hardy_retraction_specs():
    """``hardy_variants`` and q = 2.2, where U(a x) is closest to quadratic."""
    yield from hardy_variants()
    yield hardy_n3(1.0, 2.2)


def retract_by_grid_root(spec, u, lam):
    """Reference amplitude retraction: brentq on U evaluated on the grid."""

    def gap(a):
        return eval_U(spec, a * u) - lam

    hi = 1.0
    while gap(hi) <= 0.0:
        hi *= 2.0
    lo = hi / 2.0
    while gap(lo) > 0.0:
        lo /= 2.0
    return brentq(gap, lo, hi, xtol=1e-300, rtol=8.9e-16)


class TestRetraction:
    def test_toy_lands_on_level(self):
        spec = toy_spec()
        u = retract_to_level(spec, np.array([3.0, 4.0]), 2.0)
        assert eval_U(spec, u) == pytest.approx(2.0, rel=1e-12)

    def test_pde_lands_on_level(self, hardy_small, critical_small):
        for spec in (hardy_small, critical_small, *hardy_variants()):
            u0 = default_seed(spec, 1.0)
            for lam in (1e-2, 0.5, 1.0, 7.0, 3e4):
                u = retract_to_level(spec, u0, lam)
                assert eval_U(spec, u) == pytest.approx(lam, rel=1e-9)

    def test_hardy_amplitude_matches_grid_root(self):
        for spec in hardy_variants():
            u0 = default_seed(spec, 1.0)
            k = int(np.argmax(np.abs(u0.values)))
            for lam in (1e-2, 1.0, 3e4):
                v = retract_to_level(spec, u0, lam)
                a = v.values[k] / u0.values[k]
                assert a == pytest.approx(retract_by_grid_root(spec, u0, lam), rel=1e-12)
                assert abs(eval_U(spec, v) - lam) <= RETRACT_TOL * lam

    @pytest.mark.parametrize("scale", SCALES)
    def test_hardy_lands_at_any_input_scale(self, scale):
        # the amplitude solve runs on x / max|x|: the scale of the input
        # neither overflows nor underflows its moments
        for spec in hardy_retraction_specs():
            u = GridFunction(spec.grid, scale * np.exp(-((spec.grid.nodes / 2.0) ** 2)))
            for lam in (1.0, 1e4, 1e12):
                v = retract_to_level(spec, u, lam)
                assert abs(eval_U(spec, v) - lam) <= RETRACT_TOL * lam

    def test_hardy_below_the_cancellation_floor_is_infeasible(self):
        # at lam = 1e-3 the two terms of U cancel below the grid's rounding
        # for some specs: the retraction either lands or says so
        for spec in hardy_retraction_specs():
            bump = np.exp(-((spec.grid.nodes / 2.0) ** 2))
            for scale in SCALES:
                try:
                    v = spec.model.retract(scale * bump, 1e-3)
                except InfeasibleError:
                    continue
                assert np.all(np.isfinite(v))
                assert abs(spec.model.U(v) - 1e-3) <= RETRACT_TOL * 1e-3

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_hardy_non_finite_profile_is_infeasible(self, bad):
        spec = next(hardy_retraction_specs())
        x = np.exp(-((spec.grid.nodes / 2.0) ** 2))
        x[3] = bad
        with pytest.raises(InfeasibleError):
            spec.model.retract(x, 1.0)

    @pytest.mark.parametrize(
        "m,q,lam", [(1e4, 2.01, 1.0), (1e-12, 2.01, 5e-324), (1.0, 2.5, 1e308)]
    )
    def test_hardy_amplitude_out_of_float_range_is_infeasible(self, m, q, lam):
        # the root is about (q m / 2)^(1/(q-2)), here past 1e308 (overflow)
        # and, with lam subnormal as well, below the smallest float (a0 = 0);
        # at lam = 1e308, 2 lam / B is inf and U of the image is NaN
        spec = hardy_n3(m, q)
        with pytest.raises(InfeasibleError), np.errstate(over="ignore", invalid="ignore"):
            spec.model.retract(np.exp(-((spec.grid.nodes / 2.0) ** 2)), lam)

    def test_zero_seed_is_infeasible(self, hardy_small):
        zero = GridFunction(hardy_small.grid, np.zeros(hardy_small.grid.m))
        with pytest.raises(InfeasibleError):
            retract_to_level(hardy_small, zero, 1.0)
        with pytest.raises(InfeasibleError):
            retract_to_level(toy_spec(), np.zeros(2), 1.0)

    def test_rejects_nonpositive_level(self, hardy_small):
        u0 = default_seed(hardy_small, 1.0)
        with pytest.raises(ValidationError):
            retract_to_level(hardy_small, u0, -1.0)


class TestMinimizeToy:
    def test_q4_level_one(self):
        r = minimize_on_level(toy_spec(), 1.0)
        assert r.converged
        assert r.i_value == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(r.minimizer) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
    def test_matches_closed_form(self, q, lam):
        prob = ToyProblem(2, q)
        r = minimize_on_level(toy_spec(q), lam)
        assert r.i_value == pytest.approx(toy_i_lambda(prob, lam), rel=1e-8)

    def test_multiplier_value(self):
        # at lambda = 1, grad T = 2u and grad U = 4u, so theta = 1/2
        r = minimize_on_level(toy_spec(), 1.0)
        assert r.multiplier == pytest.approx(0.5, abs=1e-6)


class TestMinimizePDE:
    def test_hardy_positive_and_seed_independent(self, hardy_small):
        values = []
        for seed in range(5):
            width = 1.0 + 0.5 * seed
            u0 = default_seed(hardy_small, 1.0, width=width)
            noise = 1.0 + 0.05 * RNG.standard_normal(hardy_small.grid.m)
            u0 = GridFunction(hardy_small.grid, u0.values * noise)
            r = minimize_on_level(hardy_small, 1.0, u0)
            assert r.converged
            assert r.i_value > 0
            values.append(r.i_value)
        assert max(values) - min(values) <= 1e-4 * min(values)

    def test_hardy_p3_envelope_converges(self):
        # p = 3, q = 5 at m = 800: the gradient descent ran out of 2000 steps
        # (residual 1.7e-5); Newton needs a few dozen, some of them gradient
        # steps where the guard refuses the Newton step
        grid = build_radial_grid(5, 30.0, 800, 50.0 ** (1.0 / 800))
        spec = ProblemSpec(variant="hardy-subcritical", p=3.0, n=5,
                           nonlinearity=NonlinearitySpec(1.0, 5.0), grid=grid)
        r = minimize_on_level(spec, 1.0)
        assert r.converged and r.residual <= 1e-6
        assert r.iterations <= 100
        assert eval_U(spec, r.minimizer) == pytest.approx(1.0, rel=1e-9)

    def test_critical_converges(self, critical_small):
        r = minimize_on_level(critical_small, 1.0)
        assert r.converged
        assert r.residual <= 1e-6
        assert eval_U(critical_small, r.minimizer) == pytest.approx(1.0, rel=1e-9)

    def test_critical_seed_taken_into_the_dirichlet_space(self, critical_small):
        # the direction is 0 at R and the retraction only rescales, so a
        # seed's boundary value would otherwise stay
        grid = critical_small.grid
        u0 = GridFunction(grid, 1.0 - grid.nodes**2 + 0.2)
        r = minimize_on_level(critical_small, 1.0, u0)
        ref = minimize_on_level(critical_small, 1.0)
        assert r.converged
        assert r.minimizer.values[-1] == 0.0
        assert r.i_value == pytest.approx(ref.i_value, rel=1e-10)

    def test_decade_sweep_vanishes_monotonically(self, hardy_small):
        lambdas = np.geomspace(1e-3, 1.0, 10)
        results = continuation_sweep(hardy_small, lambdas)
        ivals = [r.i_value for r in results]
        assert all(np.diff(ivals) > 0)
        assert ivals[0] < 0.05 * ivals[-1]

    def test_minimizer_beats_perturbations(self, critical_small):
        # local minimality: retracted random perturbations do not do better
        r = minimize_on_level(critical_small, 1.0)
        for _ in range(10):
            dv = 1e-3 * RNG.standard_normal(critical_small.grid.m)
            dv[-1] = 0.0
            u = GridFunction(critical_small.grid, r.minimizer.values + dv)
            u = retract_to_level(critical_small, u, 1.0)
            assert eval_T(critical_small, u) >= r.i_value - 1e-10


class TestInertiaGuard:
    @pytest.mark.parametrize("variant", ["hardy", "critical"])
    def test_two_negative_pivots_take_the_gradient_step(self, request, variant):
        # a profile with several lobes: H has a negative direction on each,
        # so the KKT point Newton heads for need not be a minimum
        spec = request.getfixturevalue(f"{variant}_small")
        model, grid = spec.model, spec.grid
        x = np.exp(-((grid.nodes / (0.2 * grid.R)) ** 2))
        x *= 1.05 + np.cos(2.0 * np.pi * grid.nodes / (0.1 * grid.R))
        x = model.retract(model.mask(x), 1.0)
        theta, _, _, gU, res_vec = multiplier_and_residual(model, x)
        d, e = model.hessian(x, theta)
        H = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert (np.linalg.eigvalsh(H) < 0).sum() >= 2
        assert factor_tridiagonal(d, e) is None
        assert newton_direction(model, x, theta, gU, res_vec) is None
        # from there the gradient steps reach the minimum, not a saddle
        r = minimize_on_level(spec, 1.0, model.wrap(x))
        assert r.converged
        assert r.i_value == pytest.approx(minimize_on_level(spec, 1.0).i_value, rel=1e-10)


class TestContinuationSweep:
    def test_power_law_toy(self):
        spec = toy_spec()
        lambdas = np.geomspace(0.1, 2.0, 20)
        results = continuation_sweep(spec, lambdas)
        for r in results:
            assert r.i_value == pytest.approx(r.lam**0.5, abs=1e-8)

    def test_rejects_unsorted_levels(self, hardy_small):
        with pytest.raises(ValidationError):
            continuation_sweep(hardy_small, [2.0, 1.0])


def assert_same_result(new, old):
    """Bit-identical results: every reported number and the minimizer."""
    for name in ("lam", "i_value", "multiplier", "residual", "iterations", "converged"):
        assert getattr(new, name) == getattr(old, name), name
    assert type(new.minimizer) is type(old.minimizer)
    values = getattr(new.minimizer, "values", new.minimizer)
    assert np.array_equal(values, getattr(old.minimizer, "values", old.minimizer))


def assert_same_minimum(spec, new, old):
    """Two converged solves of one level agree to what grad_tol implies: i to
    1e-10 relative, theta and the minimizer (weighted norm) to 10 grad_tol
    relative."""
    tol = 10.0 * spec.model.grad_tol
    assert new.lam == old.lam
    assert new.converged and old.converged
    assert new.i_value == pytest.approx(old.i_value, rel=1e-10)
    assert new.multiplier == pytest.approx(old.multiplier, rel=tol)
    assert norm(spec, new.minimizer - old.minimizer) <= tol * norm(spec, old.minimizer)


class TestArrayLoopMatchesPointLoop:
    """The Newton loop of minimize_on_level against the point-level oracle,
    the preconditioned gradient descent with Barzilai-Borwein steps.  On the
    toy the seed is already a minimizer, so neither loop steps and the
    results are bit-identical."""

    @pytest.mark.parametrize("seed", [None, [0.3, -1.7]])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_toy_q4(self, minimize_oracle, seed, lam):
        spec = toy_spec()
        u0 = None if seed is None else np.array(seed)
        assert_same_result(minimize_on_level(spec, lam, u0), minimize_oracle(spec, lam, u0))

    @pytest.mark.parametrize("lam", [1.0, 40.0])
    def test_hardy_small(self, hardy_small, minimize_oracle, lam):
        noise = 1.0 + 0.05 * np.random.default_rng(3).standard_normal(hardy_small.grid.m)
        u0 = GridFunction(hardy_small.grid, default_seed(hardy_small, lam).values * noise)
        for seed in (None, u0):
            new = minimize_on_level(hardy_small, lam, seed)
            old = minimize_oracle(hardy_small, lam, seed)
            assert 0 < new.iterations <= old.iterations
            assert_same_minimum(hardy_small, new, old)

    @pytest.mark.parametrize("lam", [1.0, 7.0])
    def test_critical_small(self, critical_small, minimize_oracle, lam):
        new = minimize_on_level(critical_small, lam)
        old = minimize_oracle(critical_small, lam)
        assert 0 < new.iterations <= old.iterations
        assert_same_minimum(critical_small, new, old)

    def test_starved_budget(self, hardy_small, minimize_oracle, monkeypatch):
        # three steps from the cold seed are too few for either loop: both
        # spend the budget and report a point on the level, unconverged
        monkeypatch.setattr(constrained, "MAX_ITERS", 3)
        new = minimize_on_level(hardy_small, 1.0)
        old = minimize_oracle(hardy_small, 1.0)
        assert new.iterations == old.iterations == 3
        assert not new.converged and not old.converged
        assert new.residual > hardy_small.model.grad_tol
        assert eval_U(hardy_small, new.minimizer) == pytest.approx(1.0, rel=1e-9)

    def test_continuation_sweep(self, hardy_small, minimize_oracle):
        lambdas = np.geomspace(1.0, 300.0, 4)
        results = continuation_sweep(hardy_small, lambdas)
        prev = None
        for lam, new in zip(lambdas, results):
            seed = None if prev is None else hardy_small.model.transport(prev.minimizer, lam / prev.lam)
            prev = minimize_oracle(hardy_small, float(lam), seed)
            assert_same_minimum(hardy_small, new, prev)


class TestNonFiniteSeed:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_toy_seed_rejected(self, bad):
        with pytest.raises(ValidationError):
            minimize_on_level(toy_spec(), 1.0, np.array([bad, 1.0]))

    def test_sweep_seed_rejected(self):
        with pytest.raises(ValidationError):
            continuation_sweep(toy_spec(), [1.0, 2.0, 3.0], u0=np.array([np.inf, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("variant", ["toy", "hardy", "critical"])
def test_non_finite_level_rejected(request, variant, bad):
    # every edge that takes a level refuses a NaN or infinite one, before
    # the variant's retraction or transport sees it
    spec = toy_spec() if variant == "toy" else request.getfixturevalue(f"{variant}_small")
    u = default_seed(spec, 1.0)
    one, many = "lambda must be positive and finite", "lambdas must be positive, finite"
    calls = [
        (one, lambda: retract_to_level(spec, u, bad)),
        (one, lambda: minimize_on_level(spec, bad)),
        (one, lambda: minimize_on_level(spec, bad, u)),
        (one, lambda: scaling_path(spec, u, bad)),
        (many, lambda: continuation_sweep(spec, [1.0, bad], u0=u)),
        (many, lambda: build_level_curve([(1.0, 3.0), (2.0, 2.5), (bad, 1.0)], i_fn=float)),
        ("finite", lambda: _sweep_lambdas({"sweep": {"lambda_min": 1.0, "lambda_max": bad}})),
    ]
    for match, call in calls:
        with pytest.raises(ValidationError, match=match):
            call()


class TestOptionsValidation:
    def test_default_tolerance_by_variant(self, hardy_small):
        assert toy_spec().model.grad_tol == 1e-8
        assert hardy_small.model.grad_tol == 1e-6
