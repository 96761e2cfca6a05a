"""Constrained minimization on level sets and the continuation sweep."""

import itertools
import math
import warnings

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
    estimate_mu_p,
    hardy_constant,
    minimize_on_level,
    norm,
    retract_to_level,
    scaling_path,
    toy_i_lambda,
)
from maxminpass.cli import _sweep_lambdas
from maxminpass.constrained import multiplier_and_residual, newton_direction
from maxminpass.functionals import RETRACT_TOL, Critical, Hardy, Iterate, Variant, factor_tridiagonal

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
        for lam in (-1.0, 0.0):  # before the seed's width is computed
            with pytest.raises(ValidationError):
                default_seed(hardy_small, lam)


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
        # (residual 1.7e-5); Newton from the R/15 bump took 47, some of them
        # gradient steps where the guard refuses the Newton step, and 16 from
        # the bump at the level's scale
        grid = build_radial_grid(5, 30.0, 800, 50.0 ** (1.0 / 800))
        spec = ProblemSpec(variant="hardy-subcritical", p=3.0, n=5,
                           nonlinearity=NonlinearitySpec(1.0, 5.0), grid=grid)
        r = minimize_on_level(spec, 1.0)
        assert r.converged and r.residual <= 1e-6
        assert r.iterations <= 30
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


def readme_hardy(mu_fraction=0.0, p=2.0, q=8.0 / 3.0, stretch=1.0049):
    """The README's whole-space problem (n = 5, R = 30, m = 800) at mu =
    mu_fraction H."""
    return ProblemSpec(
        variant="hardy-subcritical",
        p=p,
        n=5,
        mu=mu_fraction * hardy_constant(p, 5),
        nonlinearity=NonlinearitySpec(1.0, q),
        grid=build_radial_grid(5, 30.0, 800, stretch),
    )


class TestLevelSeed:
    """The default Hardy seed is the bump dilated to the level's own scale
    (``Hardy.seed_width``), at most R/15 wide."""

    @pytest.mark.parametrize("mu_fraction", [0.0, 0.5, 0.9])
    def test_width_follows_the_scaling_law_below_the_cap(self, mu_fraction):
        model = readme_hardy(mu_fraction).model
        cap, w1 = model.grid.R / 15.0, model.seed_width(1.0)
        assert w1 < cap
        for lam in (1e-6, 1e-3, 0.5, 30.0):
            assert model.seed_width(lam) / w1 == pytest.approx(lam ** (1.0 / 5.0), rel=1e-13)
        top = (cap / w1) ** 5.0  # the level at which the cap is reached
        for lam in (1.001 * top, 3.0 * top, 1e7):
            assert model.seed_width(lam) == cap
        assert model.seed_width(0.9 * top) < cap

    def test_width_does_not_depend_on_mu(self):
        widths = {readme_hardy(f).model.seed_width(1.0) for f in (0.0, 0.5, 0.9)}
        assert len(widths) == 1

    @pytest.mark.parametrize("mu_fraction", [0.0, 0.5, 0.9])
    def test_same_minimum_as_the_wide_bump(self, mu_fraction):
        spec = readme_hardy(mu_fraction)
        r = minimize_on_level(spec, 1.0)
        wide = minimize_on_level(spec, 1.0, spec.model.seed())
        assert r.converged and wide.converged
        assert r.iterations < wide.iterations
        assert r.i_value == pytest.approx(wide.i_value, rel=1e-10)

    @pytest.mark.parametrize("mu_fraction", [0.0, 0.5])
    def test_p2_cold_solve_takes_few_steps(self, mu_fraction):
        # 8 steps from the R/15 bump, 3 from the level's scale
        r = minimize_on_level(readme_hardy(mu_fraction), 1.0)
        assert r.converged and r.iterations <= 4

    def test_p3_cold_solve_takes_few_steps(self):
        # p = 3, q = 5, mu = H/2: 668 steps from the R/15 bump, 657 of them
        # gradient steps in the p = 2 metric, and 11 from the level's scale
        spec = readme_hardy(0.5, p=3.0, q=5.0, stretch=50.0 ** (1.0 / 800))
        r = minimize_on_level(spec, 1.0)
        assert r.converged and r.iterations <= 30

    @pytest.mark.parametrize("lam", [1e-6, 1e-5])
    def test_small_levels_are_reached(self, lam):
        # The R/15 bump's two U terms cancel far below these levels, so its
        # amplitude retraction raised InfeasibleError; the narrow bump at the
        # level's scale is retracted and converges in 3 steps.
        spec = readme_hardy()
        with pytest.raises(InfeasibleError, match="did not reach the level"):
            default_seed(spec, lam, width=spec.grid.R / 15.0)
        r = minimize_on_level(spec, lam)
        assert r.converged and r.iterations <= 4
        assert eval_U(spec, r.minimizer) == pytest.approx(lam, rel=1e-9)

    @pytest.mark.parametrize("case", ["hardy", "critical"])
    def test_cold_seed_is_retracted_once(self, critical_small, case, monkeypatch):
        # the level-scaled bump reaches ``seed_record`` unretracted and is
        # retracted there, once; every other retraction is a descent trial
        if case == "hardy":
            spec = readme_hardy()
        else:
            spec = ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=critical_small.mu,
                               grid=critical_small.grid)
        model = spec.model
        onto, at_level, descend = model._onto_level, model.at_level, constrained.descend
        calls = {"retractions": 0, "trials": 0}
        in_descent = [False]

        def onto_spy(x, lam):
            calls["retractions"] += 1
            return onto(x, lam)

        def at_level_spy(y, lam):
            calls["trials"] += in_descent[0]
            return at_level(y, lam)

        def descend_spy(*args):
            in_descent[0] = True
            try:
                return descend(*args)
            finally:
                in_descent[0] = False

        model._onto_level, model.at_level = onto_spy, at_level_spy  # this spec's own model
        monkeypatch.setattr(constrained, "descend", descend_spy)
        r = minimize_on_level(spec, 1.0)
        assert r.converged and calls["trials"] >= r.iterations > 0
        assert calls["retractions"] == 1 + calls["trials"]

    def test_critical_and_toy_keep_their_seeds(self, critical_small):
        for spec in (critical_small, toy_spec()):
            model = spec.model
            assert model.seed_width(1.0) is None
            seed = model.unwrap(default_seed(spec, 7.0))
            assert np.array_equal(seed, model.retract(model.unwrap(model.seed()), 7.0))


class TestCriticalBelowPstarTwo:
    def test_solve_converges_without_a_warning(self):
        # n = 5, p = 1.4: p* = 35/18 < 2, so |x|^(p*-2) is infinite at the
        # Dirichlet node's zero; the gradient and curvature of U take their
        # values there from the guarded power, with no inf * 0
        grid = build_radial_grid(5, 1.0, 200, 1.0)
        probe = ProblemSpec(variant="critical-bounded", p=1.4, n=5, mu=1.0, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mu = 0.3 * estimate_mu_p(probe)
            spec = ProblemSpec(variant="critical-bounded", p=1.4, n=5, mu=mu, grid=grid)
            r = minimize_on_level(spec, 1.0)
        assert spec.pstar < 2.0
        assert r.converged
        # the value of the unguarded solve, whose warnings were ignored
        assert r.i_value == pytest.approx(10.42829780223563, rel=1e-12)


class TestOneEvaluationPerIterate:
    def test_sweep_records_each_accepted_iterate_once(self, hardy_small, monkeypatch):
        # the record is the descent's only evaluation: one per solve's seed
        # and one per accepted step, never two at the same point
        seen = []
        record = Hardy.iterate

        def spy(model, x, *args):
            seen.append(x.copy())
            return record(model, x, *args)

        def forbidden(name):
            def call(*args):
                raise AssertionError(f"{name} evaluated outside the record")
            return call

        monkeypatch.setattr(Hardy, "iterate", spy)
        for name in ("T", "U", "grad_T", "grad_U", "hessian"):
            monkeypatch.setattr(Hardy, name, forbidden(name))
        results = continuation_sweep(hardy_small, np.geomspace(1.0, 300.0, 6))
        assert all(r.converged for r in results)
        assert sum(r.iterations for r in results) > 0
        assert len(seen) == sum(r.iterations + 1 for r in results)
        assert not any(np.array_equal(a, b) for a, b in itertools.combinations(seen, 2))


def assert_close(a, b, rel):
    """Agreement to ``rel`` relative to b's largest entry."""
    a, b = np.broadcast_arrays(a, b)
    assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def exact_case(critical_small, case):
    """(spec, a seed array) for an exact-transport case named
    ``critical-p<p>`` (on critical_small's grid, mu = 0.3 mu_p) or
    ``toy-q<q>``."""
    if case.startswith("toy"):
        return toy_spec(q=float(case[-1])), np.array([0.3, -1.7])
    p = float(case[len("critical-p"):])
    grid = critical_small.grid
    mu = 0.3 * Critical.mu_limit_of(p, 5, grid)
    spec = ProblemSpec(variant="critical-bounded", p=p, n=5, mu=mu, grid=grid)
    return spec, (1.0 - grid.nodes) * np.exp(-((4.0 * grid.nodes) ** 2))


class TestCarriedRecord:
    """``carry_record`` on the exact-transport variants scales each field of
    the record by its degree of homogeneity, in place of evaluating the
    carried point on the grid."""

    @pytest.mark.parametrize("case", ["critical-p1.8", "critical-p2", "toy-q3", "toy-q4"])
    @pytest.mark.parametrize("lam0,lam", [(1.0, 7.0), (40.0, 3.0)])
    def test_matches_the_evaluated_record(self, critical_small, case, lam0, lam):
        spec, y = exact_case(critical_small, case)
        model = spec.model
        r = minimize_on_level(spec, lam0, model.wrap(y))
        it = constrained.seed_record(model, model.unwrap(r.minimizer), lam0)
        carried = model.carry_record(it, lam0, lam)
        evaluated = Variant.carry_record(model, it, lam0, lam)
        assert type(model).carry_record is not Variant.carry_record
        for name in Iterate._fields:
            a, b = getattr(carried, name), getattr(evaluated, name)
            if b is None:
                assert a is None, name
            else:
                assert_close(a, b, 1e-13)

    def test_critical_sweep_matches_per_level_solves(self, critical_pipeline):
        # the conftest sweep against the same levels solved one by one, each
        # from the last minimizer carried by ``transport``
        spec, sweep = critical_pipeline["spec"], critical_pipeline["sweep"]
        prev = critical_pipeline["r1"]
        for r in sweep:
            prev = minimize_on_level(spec, r.lam, spec.model.transport(prev.minimizer, r.lam / prev.lam))
            assert r.converged and prev.converged
            assert r.iterations == prev.iterations
            assert r.i_value == pytest.approx(prev.i_value, rel=1e-14, abs=0.0)
            assert r.multiplier == pytest.approx(prev.multiplier, rel=1e-14, abs=0.0)
            assert_close(r.minimizer.values, prev.minimizer.values, 1e-14)

    def test_critical_sweep_evaluates_the_grid_once(self, critical_pipeline, monkeypatch):
        # 30 levels from the level-1 minimizer: the grid is touched for the
        # first level's record and for each Newton step, never for a level
        # the carried point already solves, and only the one solved level
        # (the first) is carried or has its multiplier and residual computed
        spec, r1 = critical_pipeline["spec"], critical_pipeline["r1"]
        owners = {"at_level": Critical, "iterate": Critical, "carry_record": Critical,
                  "multiplier_and_residual": constrained, "descend": constrained}
        calls = dict.fromkeys(owners, 0)

        def counting(name):
            method = getattr(owners[name], name)

            def call(*args):
                calls[name] += 1
                return method(*args)
            return call

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name, counting(name))
        results = continuation_sweep(spec, np.geomspace(1.0, 4000.0, 30), u0=r1.minimizer)
        assert all(r.converged for r in results)
        steps = sum(r.iterations for r in results)
        assert calls == {"at_level": 1 + steps, "iterate": 1 + steps, "carry_record": 0,
                         "multiplier_and_residual": 1 + steps, "descend": 1}

    @pytest.mark.parametrize("case", ["critical-p1.8", "critical-p2", "toy-q3", "toy-q4"])
    def test_closed_form_levels_match_carried_solves(self, critical_small, case):
        # each level solved as before the closed form: the last level's
        # record carried (``carry_record``) and descended (``descend``).
        # Critical starts from the default bump's level-1 solve, which stops
        # at a residual far above its rounding (7.8e-8 at p = 2).
        spec, y = exact_case(critical_small, case)
        model = spec.model
        lambdas = np.geomspace(1.0, 4000.0, 30)
        seed = model.wrap(y) if case.startswith("toy") else None
        u0 = minimize_on_level(spec, 1.0, seed).minimizer
        results = continuation_sweep(spec, lambdas, u0=u0)
        prev = None
        for r, lam in zip(results, lambdas):
            if prev is None:
                it = constrained.seed_record(model, model.unwrap(u0), lam)
            else:
                it = model.carry_record(prev, lam_prev, lam)
            prev, theta, res, iterations, converged = constrained.descend(model, it, lam)
            lam_prev = lam
            assert (r.iterations, r.converged) == (iterations, converged)
            assert r.i_value == pytest.approx(prev.T, rel=1e-14, abs=0.0)
            assert r.multiplier == pytest.approx(theta, rel=1e-14, abs=0.0)
            assert_close(model.unwrap(r.minimizer), prev.x, 1e-14)
            # The residual vector grad T - theta grad U cancels: it is
            # rounded to a few eps ||grad T||, and the residual, relative to
            # 1 + ||grad T||, to a few eps.  At p < 2 the carried grad T is
            # evaluated afresh, and on the toy the residual is that rounding.
            assert r.residual == pytest.approx(res, rel=1e-9, abs=4.0 * np.finfo(float).eps)

    def test_level_above_grad_tol_is_solved_and_becomes_the_base(self, critical_small, monkeypatch):
        # a first level converged just under grad_tol at a small level,
        # where ||grad T|| is small, so that the scaled residual grows
        # with the level: the second level exceeds grad_tol and is carried
        # and descended, and the third is read off the second
        spec, model, grid = critical_small, critical_small.model, critical_small.grid
        lam0, tol = 1e-6, critical_small.model.grad_tol
        x = model.unwrap(minimize_on_level(spec, lam0).minimizer)
        h = model.mask(np.sin(3.0 * np.pi * grid.nodes) * x)

        def seed_residual(eps):
            it = constrained.seed_record(model, x + eps * h, lam0)
            return multiplier_and_residual(model, it)[1]

        eps = 1e-3 * 0.9 * tol / seed_residual(1e-3)
        assert 0.5 * tol < seed_residual(eps) <= tol
        calls = []
        carry, descend = Critical.carry_record, constrained.descend

        def carry_spy(self, it, lam_from, lam):
            calls.append(("carry_record", lam_from, lam))
            return carry(self, it, lam_from, lam)

        def descend_spy(model, it, lam):
            calls.append(("descend", lam))
            return descend(model, it, lam)

        monkeypatch.setattr(Critical, "carry_record", carry_spy)
        monkeypatch.setattr(constrained, "descend", descend_spy)
        lambdas = lam0 * np.array([1.0, 1e4, 1e8])
        first, solved, scaled = continuation_sweep(spec, lambdas, u0=model.wrap(x + eps * h))
        assert calls == [("descend", lambdas[0]), ("carry_record", lambdas[0], lambdas[1]),
                         ("descend", lambdas[1])]
        assert first.iterations == 0 and first.residual > 0.5 * tol
        assert solved.iterations > 0 and solved.residual <= tol
        assert scaled.iterations == 0 and all(r.converged for r in (first, solved, scaled))
        p, r = model.p, model.U_degree
        s = (lambdas[2] / lambdas[1]) ** (1.0 / r)
        assert scaled.i_value == pytest.approx(solved.i_value * s**p, rel=1e-14, abs=0.0)
        assert scaled.multiplier == pytest.approx(solved.multiplier * s ** (p - r), rel=1e-14, abs=0.0)
        assert np.array_equal(scaled.minimizer.values, solved.minimizer.values * s)

    def test_hardy_sweep_costs_one_factor_per_step(self, hardy_mu_half, monkeypatch):
        # the conftest sweep's 40 levels: one factor and one two-column
        # solve per Newton step, and one retraction per level (its seed or
        # carried point) plus one per line-search trial
        spec, r1 = hardy_mu_half["spec"], hardy_mu_half["r1"]
        calls = {"factor_tridiagonal": 0, "solve_tridiagonal": 0, "retractions": 0, "trials": 0}
        in_descent = [False]

        def counting(name):
            kernel = getattr(constrained, name)

            def call(*args):
                calls[name] += 1
                return kernel(*args)
            return call

        onto, at_level, descend = Hardy._onto_level, Hardy.at_level, constrained.descend

        def onto_spy(self, x, lam):
            calls["retractions"] += 1
            return onto(self, x, lam)

        def at_level_spy(self, y, lam):
            calls["trials"] += in_descent[0]
            return at_level(self, y, lam)

        def descend_spy(*args):
            in_descent[0] = True
            try:
                return descend(*args)
            finally:
                in_descent[0] = False

        for name in ("factor_tridiagonal", "solve_tridiagonal"):
            monkeypatch.setattr(constrained, name, counting(name))
        monkeypatch.setattr(Hardy, "_onto_level", onto_spy)
        monkeypatch.setattr(Hardy, "at_level", at_level_spy)
        monkeypatch.setattr(constrained, "descend", descend_spy)
        lambdas = np.geomspace(1.0, 30000.0, 40)
        results = continuation_sweep(spec, lambdas, u0=r1.minimizer)
        assert all(r.converged for r in results)
        steps = sum(r.iterations for r in results)
        assert steps > 0 and calls["trials"] >= steps
        assert calls["factor_tridiagonal"] == calls["solve_tridiagonal"] == steps
        assert calls["retractions"] == len(lambdas) + calls["trials"]


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
        it = model.iterate(x)
        theta, _, res_vec = multiplier_and_residual(model, it)
        d, e = model.hessian(x, theta)
        H = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert (np.linalg.eigvalsh(H) < 0).sum() >= 2
        assert factor_tridiagonal(d, e) is None
        assert newton_direction(model, it, theta, res_vec) is None
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

    def test_infeasible_level_is_recorded_and_skipped(self, hardy_small, monkeypatch):
        # a level whose solve raises InfeasibleError is an unconverged entry,
        # and the next level starts from the last minimizer before it.  On
        # Hardy every level runs the descent (its dilation is not exact).
        spec, model = hardy_small, hardy_small.model
        solve = constrained.descend
        seeds = {}

        def flaky(model, it, lam):
            seeds[lam] = it.x
            if lam == 1.0:
                raise InfeasibleError("no point on this level")
            return solve(model, it, lam)

        monkeypatch.setattr(constrained, "descend", flaky)
        first, failed, last = continuation_sweep(spec, [0.5, 1.0, 2.0])
        assert failed.lam == 1.0 and not failed.converged and failed.minimizer is None
        assert math.isnan(failed.i_value) and failed.residual == math.inf
        assert first.converged and last.converged
        carried = model.transport(first.minimizer, 4.0)
        assert np.array_equal(seeds[2.0], model.retract(carried.values, 2.0))
        assert_same_result(last, minimize_on_level(spec, 2.0, carried))


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
        # two steps from the cold seed are too few for either loop (it takes
        # three): both spend the budget and report a point on the level,
        # unconverged
        monkeypatch.setattr(constrained, "MAX_ITERS", 2)
        new = minimize_on_level(hardy_small, 1.0)
        old = minimize_oracle(hardy_small, 1.0)
        assert new.iterations == old.iterations == 2
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
        (one, lambda: default_seed(spec, bad)),
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
