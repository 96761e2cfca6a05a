"""The direct estimate of the pass level: a descent over rays."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal, solve_banded
from scipy.optimize import minimize_scalar

import maxminpass.mpa
from maxminpass import (
    DiscretePath,
    GridFunction,
    MpaOptions,
    NonlinearitySpec,
    ProblemSpec,
    ToyProblem,
    ValidationError,
    build_radial_grid,
    crosses_all_levels,
    estimate_c,
    eval_F,
    eval_T,
    find_endpoint,
    hardy_constant,
    minimize_on_level,
    scaling_exponent,
    scaling_path,
    toy_closed_form,
)
from maxminpass.functionals import Hardy, factor_tridiagonal
from maxminpass.verify import pick_solution_scale, weighted_residual


def toy_spec(q=4.0):
    return ProblemSpec(variant="toy", toy=ToyProblem(2, q))


def toy_endpoint(spec, radius=2.0):
    u = np.zeros(spec.toy.d)
    u[0] = radius
    return u


def refuse(*args):
    """A ``_certify`` that certifies nothing, so that a run descends."""
    return False, np.nan, None, None


def newton_critical_point(spec, x, steps=30):
    """Newton's method on F' = 0 from the array x, solving each step with a
    banded LU, which takes a Hessian of any inertia; returns the first
    iterate whose residual is at most 1e-12."""
    model = spec.model
    for _ in range(steps):
        r, res = weighted_residual(model, model.iterate(x))
        if res <= 1e-12:
            return x
        d, e = model.hessian(x, 1.0)
        bands = np.zeros((3, len(d)))
        bands[0, 1:], bands[1], bands[2, :-1] = e, d, e
        x = x - solve_banded((1, 1), bands, model.grid.weights * r)
    raise AssertionError(f"no critical point: residual {res:.3g}")


def saddle_of(spec, result):
    """The critical point that Newton's method reaches from the maximum of
    the ray through a run's final endpoint."""
    e = result.path.images[-1]
    return newton_critical_point(spec, spec.model.ray_sup(e)[1] * e)


def straight_path(spec, end, k):
    """The straight path from 0 to the array ``end`` with k interior images
    t_j end, with energies from end's fibering map, 0 at 0 and F(end) at
    end: the reference that ``MpaResult.path`` must equal bit for bit."""
    model = spec.model
    it = model.energies(end)
    t = np.linspace(0.0, 1.0, k + 2)
    energies = model.fibering_of(it)(t)
    energies[0], energies[-1] = 0.0, eval_F(spec, it)
    return DiscretePath(t[:, None] * end, energies, model.grid)


def morse_index(spec, x):
    return int(np.sum(eigvalsh_tridiagonal(*spec.model.hessian(x, 1.0)) < 0.0))


def assert_close(a, b, rel):
    """Agreement to ``rel`` relative to b's largest entry."""
    assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestInitPath:
    """The final path (``MpaResult.path``) and ``estimate_c``'s refusal of an
    endpoint that does not start one."""

    def test_valid_toy_path(self):
        spec = toy_spec()
        # F at radius 2 is 4 - 16 = -12 < 0
        path = estimate_c(spec, toy_endpoint(spec), MpaOptions(step=0.05), k=16).path
        assert len(path.points) == 18
        # the pass level is a lower bound for the sup along any admissible
        # path, up to the sampling resolution of the discrete max
        assert path.max_energy >= 0.25 - 1e-4

    def test_rejects_zero_endpoint(self):
        spec = toy_spec()
        with pytest.raises(ValidationError, match="not admissible"):
            estimate_c(spec, np.zeros(2), k=8)

    def test_rejects_positive_energy_endpoint(self):
        spec = toy_spec()
        with pytest.raises(ValidationError, match="not admissible"):
            estimate_c(spec, toy_endpoint(spec, radius=0.5), k=8)
        with pytest.raises(ValidationError, match="interior image"):
            estimate_c(spec, toy_endpoint(spec), k=0)

    def test_hardy_scaled_endpoint_admissible(self, hardy_small):
        r1 = minimize_on_level(hardy_small, 1.0)
        alpha = scaling_exponent(hardy_small)
        lam_ss = r1.i_value ** (1.0 / (1.0 - alpha))
        endpoint = scaling_path(hardy_small, r1.minimizer, 2.0 * lam_ss)
        path = estimate_c(hardy_small, endpoint, k=8).path
        assert len(path.images) == 10 and path.energies[-1] < 0


class TestDeform:
    """One descent step over rays (``deform``)."""

    def test_starts_at_zero_after_sweeps(self, hardy_small, monkeypatch):
        # with certificates refused the run descends; its final path, the
        # last ray's straight path, starts at 0 and ends where F < 0
        monkeypatch.setattr(maxminpass.mpa, "_certify", refuse)
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        result = estimate_c(hardy_small, endpoint, MpaOptions(), k=16)
        path = result.path
        assert result.sweeps > 0 and len(path.images) == 18
        assert np.all(path.images[0] == 0.0)
        assert path.energies[-1] == eval_F(hardy_small, path.point(-1)) < 0
        assert path.max_energy <= result.path_sup

    def test_perturbed_path_stays_admissible(self, hardy_small):
        # from a ray reshaped off the saddle's, each step lands on the maximum
        # of a ray with a lower sup, whose straight path to 4x is admissible,
        # crosses every level and stays above the pass level
        spec = hardy_small
        endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        c = estimate_c(spec, endpoint, MpaOptions()).c_mpa
        x = endpoint.values * (1.0 + 0.5 * np.cos(np.pi * spec.grid.nodes / spec.grid.R))
        sup, t = spec.model.ray_sup(x)
        x, step = t * x, 0.2
        for _ in range(10):
            x, new_sup, step = maxminpass.mpa.deform(x, spec, step, sup)
            assert c <= new_sup < sup
            assert abs(spec.model.F(x) - new_sup) <= 1e-12 * new_sup
            sup = new_sup
            path = straight_path(spec, 4.0 * x, 16)
            end_level = spec.model.U(path.images[-1])
            assert crosses_all_levels(path, spec, np.linspace(1e-6, 0.999, 50) * end_level)
            assert path.max_energy <= sup

    def test_near_critical_path_is_stable(self, hardy_small):
        # from a saddle, on the toy and on Hardy, a step finds no lower sup
        # beyond rounding
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        x = saddle_of(hardy_small, estimate_c(hardy_small, endpoint, MpaOptions()))
        for spec, x, step in ((toy_spec(), np.array([0.5**0.5, 0.0]), 0.02),
                              (hardy_small, x, 0.2)):
            sup = spec.model.ray_sup(x)[0]
            out = maxminpass.mpa.deform(x, spec, step, sup)
            assert out is None or abs(out[1] - sup) <= 1e-12 * sup


class TestEstimateC:
    def test_toy_q4(self):
        spec = toy_spec()
        result = estimate_c(spec, toy_endpoint(spec), MpaOptions(step=0.05), k=48)
        assert result.converged
        assert result.c_mpa == pytest.approx(0.25, abs=1e-3)

    def test_toy_q3(self):
        spec = toy_spec(3.0)
        endpoint = toy_endpoint(spec, radius=2.0)  # 4 - 8 < 0
        result = estimate_c(spec, endpoint, MpaOptions(step=0.05), k=48)
        assert result.c_mpa == pytest.approx(4.0 / 27.0, abs=1e-3)

    def test_argmax_point_at_saddle(self):
        # the maximizing image approaches the saddle sphere |u| = (1/4)^(1/4)
        spec = toy_spec()
        result = estimate_c(spec, toy_endpoint(spec), MpaOptions(step=0.05), k=48)
        top = result.path.point(result.path.argmax_index)
        # accuracy is limited by the image spacing along the path
        assert np.linalg.norm(top) == pytest.approx(0.25**0.25, abs=0.03)

    def test_upper_bound_is_monotone(self, hardy_small, monkeypatch):
        # The endpoint's ray is certified before any step: refuse it.  Each
        # step's sup is the maximum of F on its iterate's ray, which is an
        # admissible path, so it bounds the pass level above, and the sups
        # strictly fall.  On the toy every ray peaks at a critical point, so
        # no step lowers the sup and the run stops at once.
        spec = hardy_small
        endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        cases = [(toy_spec(), toy_endpoint(toy_spec()), MpaOptions(step=0.05), 0.25),
                 (spec, endpoint, MpaOptions(), estimate_c(spec, endpoint).c_mpa)]
        iterates = []
        deform = maxminpass.mpa.deform

        def spy(x, spec, step, c_sup):
            out = deform(x, spec, step, c_sup)
            if out is not None:
                iterates.append(out[0])
            return out

        monkeypatch.setattr(maxminpass.mpa, "deform", spy)
        monkeypatch.setattr(maxminpass.mpa, "_certify", refuse)
        for spec, endpoint, opts, c in cases:
            iterates.clear()
            result = estimate_c(spec, endpoint, opts, k=24)
            assert not result.converged
            sups = [row[1] for row in result.trace]
            assert len(sups) == result.sweeps == len(iterates)
            assert (result.sweeps == 0) == (spec.variant == "toy")
            for sup, x in zip(sups, iterates):
                assert abs(sup - ray_oracle(spec, x)[0]) <= 1e-12 * abs(sup)
            assert all(b < a for a, b in zip(sups, sups[1:]))
            assert all(s >= c * (1.0 - 1e-12) for s in [*sups, result.path_sup])


class TestCertifiedStop:
    @pytest.mark.parametrize("case", ["toy", "critical"])
    def test_one_sweep_certifies_the_straight_path(self, case, critical_small, monkeypatch):
        # the endpoint's ray maximum is already an index-1 critical point, so
        # it is certified before the first step; with that refused, the
        # descent finds at most rounding-level lower sups and stops, each
        # still an upper bound
        if case == "toy":
            spec, args = toy_spec(), (toy_endpoint(toy_spec()), MpaOptions(step=0.05), 48)
        else:
            spec = critical_small
            endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
            args = (endpoint, MpaOptions(), 32)
        result = estimate_c(spec, *args)
        assert result.sweeps == 0
        assert result.converged
        assert result.sup_residual <= spec.model.grad_tol
        monkeypatch.setattr(maxminpass.mpa, "_certify", refuse)
        refused = estimate_c(spec, *args)
        assert not refused.converged
        assert refused.sweeps < maxminpass.mpa.PATIENCE
        assert abs(refused.c_mpa - result.c_mpa) <= 1e-12 * result.c_mpa

    @pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 6.0])
    def test_toy_sup_point_is_the_saddle(self, q):
        # the endpoint's ray maximum is the saddle to rounding, so each toy
        # certifies before the first step
        spec = toy_spec(q)
        radius = 2.0
        while radius**2 - radius**q >= 0:
            radius *= 2.0
        result = estimate_c(spec, toy_endpoint(spec, radius), MpaOptions(step=0.05), k=48)
        assert result.converged
        assert result.sweeps == 0
        assert result.sup_residual <= 1e-12

    def test_hardy_straight_path_not_certified(self, hardy_small, monkeypatch):
        # the endpoint's ray maximum polishes to the saddle before any step;
        # with that refused, the run takes exactly the one step allowed, whose
        # ray maximum is not yet a critical point
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        certify = maxminpass.mpa._certify
        monkeypatch.setattr(maxminpass.mpa, "_certify", lambda *a: (False, certify(*a)[1], None, None))
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 1)
        result = estimate_c(hardy_small, endpoint, MpaOptions(), k=32)
        assert result.sweeps == 1
        assert not result.converged
        assert result.sup_residual > hardy_small.model.grad_tol

    def test_index_zero_point_refused(self, hardy_small):
        # near 0, F = T + (m/2) int u^2 + ... is convex: a tiny multiple of the
        # level-1 minimizer has a tiny residual but Morse index 0
        x = 1e-9 * minimize_on_level(hardy_small, 1.0).minimizer.values
        certified, res, saddle, ray = maxminpass.mpa._certify(hardy_small, x, 1.0)
        assert res <= hardy_small.model.grad_tol
        assert factor_tridiagonal(*hardy_small.model.hessian(x, 1.0))[2] == 0
        assert not certified and saddle is None and ray is None

    @pytest.fixture(scope="class")
    def small_saddle(self, hardy_small):
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        result = estimate_c(hardy_small, endpoint, MpaOptions(), k=32)
        assert result.converged
        x = saddle_of(hardy_small, result)
        assert morse_index(hardy_small, x) == 1
        return x, result.c_mpa

    def test_saddle_at_an_interior_image_is_certified(self, hardy_small, small_saddle):
        # the saddle is the maximum of its own ray, interior to the ray's path
        x, c = small_saddle
        certified, res, saddle, ray = maxminpass.mpa._certify(hardy_small, x, c)
        assert certified and res <= 1e-12
        assert abs(saddle - c) <= 1e-12 * c and abs(ray - c) <= 1e-12 * c

    def test_path_sup_below_the_saddle_is_refused(self, hardy_small, small_saddle):
        # a path whose sup is below F(x*) does not pass over x*
        x, c = small_saddle
        certified, _res, saddle, ray = maxminpass.mpa._certify(
            hardy_small, x, (1.0 - 1e-9) * c)
        assert not certified and saddle is None and ray is None

    def test_index_two_critical_point_refused(self, hardy_small):
        # Newton's method from a bump with a shallow negative ring reaches the
        # one-node radial solution: a critical point of Morse index 2, whose
        # factor has two negative pivots
        r = hardy_small.grid.nodes
        ring = (r / 2.6) ** 2
        guess = 89.4 * np.exp(-((r / 0.7) ** 2)) - 2.0 * ring * np.exp(1.0 - ring)
        x = newton_critical_point(hardy_small, guess)
        assert np.count_nonzero(np.diff(np.sign(x[np.abs(x) > 1e-8]))) == 1
        assert morse_index(hardy_small, x) == 2
        assert factor_tridiagonal(*hardy_small.model.hessian(x, 1.0)) is None
        F_x = float(hardy_small.model.F(x))
        assert abs(hardy_small.model.ray_sup(x)[0] - F_x) <= 1e-12 * F_x
        certified, res, saddle, ray = maxminpass.mpa._certify(hardy_small, x, F_x)
        assert res <= 1e-12
        assert not certified and saddle is None and ray is None

    def test_end_segment_sup_is_not_convergence(self, hardy_mu_half):
        # A ray's sup point is never at its path's first image (t* > 0).  The
        # wide seed bump's final path peaks inside, and the polish from its
        # amplitude-dilation orbit point reaches the saddle before any step;
        # the ray through the saddle bounds c.
        spec = hardy_mu_half["spec"]
        u = spec.model.seed(spec.grid.R / 4.0)
        while eval_F(spec, u) >= 0:
            u = GridFunction(spec.grid, 1.5 * u.values)
        result = estimate_c(spec, u, MpaOptions(), k=32)
        assert result.converged and result.path.argmax_index > 0
        c = hardy_mu_half["curve"].c_maxmin
        assert abs(result.c_mpa - c) <= 1e-9 * abs(c)


def seed_bump_endpoint(spec, width):
    """The variant's seed bump of the given width, grown until F < 0."""
    u = spec.model.seed(width)
    while eval_F(spec, u) >= 0:
        u = GridFunction(spec.grid, 1.5 * u.values)
    return u


def hardy_spec(p, mu_fraction, q, m):
    grid = build_radial_grid(5, 30.0, m, 50.0 ** (1.0 / m))
    mu = mu_fraction * hardy_constant(p, 5)
    return ProblemSpec(variant="hardy-subcritical", p=p, n=5, mu=mu,
                       nonlinearity=NonlinearitySpec(1.0, q), grid=grid)


class TestPolishedSaddle:
    PIPELINES = ["hardy_mu0", "hardy_mu_half", "critical_pipeline"]

    def test_hardy_half_stops_on_the_saddle(self, hardy_mu_half):
        result = hardy_mu_half["mpa"]
        c = hardy_mu_half["curve"].c_maxmin
        assert result.converged
        assert abs(result.c_mpa - c) <= 1e-9 * abs(c)
        assert result.c_mpa <= result.path_sup
        assert abs(result.ray_sup - result.c_mpa) <= 1e-12 * result.c_mpa

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_polished_point_is_an_index_one_critical_point(self, pipeline, request, monkeypatch):
        # Polish the final path's sup point again, recording each factored
        # point's residual, read from its record, and its count of negative
        # pivots.  The run stopped before any sweep, so its path is the
        # straight one and its sup point is the endpoint's ray maximum t* e.
        # Each factor follows the residual of the point it factors; on Hardy
        # the residual at t* e (``sup_residual``) comes first, then the
        # polish starts at its orbit point.
        pipe = request.getfixturevalue(pipeline)
        spec, result = pipe["spec"], pipe["mpa"]
        assert result.sweeps == 0
        residuals, factored = [], []

        def residual_spy(model, it):
            out = weighted_residual(model, it)
            residuals.append(out[1])
            return out

        def factor_spy(d, e):
            out = factor_tridiagonal(d, e)
            factored.append((residuals[-1], None if out is None else out[2]))
            return out

        monkeypatch.setattr(maxminpass.mpa, "weighted_residual", residual_spy)
        monkeypatch.setattr(maxminpass.mpa, "factor_tridiagonal", factor_spy)
        endpoint = result.path.images[-1]
        c_sup, t = spec.model.ray_sup(endpoint)
        verdict = maxminpass.mpa._certify(spec, t * endpoint, c_sup)
        assert verdict == (True, result.sup_residual, result.c_mpa, result.ray_sup)
        residual, pivots = min(factored, key=lambda rp: rp[0])
        assert residual <= 1e-10
        assert pivots == 1
        c = pipe["curve"].c_maxmin
        assert abs(result.c_mpa - c) <= 1e-9 * abs(c)

    @pytest.mark.parametrize("pipeline", ["hardy_mu0", "hardy_mu_half"])
    def test_polish_from_the_orbit_point_takes_at_most_three_factors(self, pipeline, request,
                                                                     monkeypatch):
        # one factor at the orbit point of t* e and one per Newton step, of
        # which the polish from there takes 2
        pipe = request.getfixturevalue(pipeline)
        factors = []

        def factor_spy(d, e):
            factors.append(1)
            return factor_tridiagonal(d, e)

        monkeypatch.setattr(maxminpass.mpa, "factor_tridiagonal", factor_spy)
        result = estimate_c(pipe["spec"], pipe["endpoint"], MpaOptions(), k=32)
        assert result.converged and result.sweeps == 0
        assert len(factors) <= 3

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_saddle_is_the_certified_point(self, pipeline, request):
        # MpaResult.saddle is x*: the critical point that an independent
        # Newton iteration reaches, at which F is the reported c_mpa
        pipe = request.getfixturevalue(pipeline)
        spec, result = pipe["spec"], pipe["mpa"]
        assert result.converged
        assert_close(result.saddle.values, saddle_of(spec, result), 1e-10)
        assert eval_F(spec, result.saddle) == pytest.approx(result.c_mpa, rel=1e-14, abs=0.0)

    def test_uncertified_run_has_no_saddle(self, hardy_small, monkeypatch):
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        monkeypatch.setattr(maxminpass.mpa, "_certify", refuse)
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 1)
        result = estimate_c(hardy_small, endpoint, MpaOptions(), k=32)
        assert not result.converged and result.saddle is None

    def test_sweep_counts_of_the_reference_pipelines(self, hardy_mu0, hardy_mu_half,
                                                     critical_pipeline):
        # the certified stop ends each run at its first polished saddle
        assert hardy_mu_half["mpa"].sweeps == 0
        assert hardy_mu0["mpa"].sweeps == 0
        assert critical_pipeline["mpa"].sweeps == 0

    @pytest.mark.parametrize("pipeline", ["hardy_mu0", "hardy_mu_half"])
    @pytest.mark.parametrize("fraction", [15.0, 40.0])
    def test_independent_starts_certify_on_one_saddle(self, pipeline, fraction, request):
        pipe = request.getfixturevalue(pipeline)
        spec, coupled = pipe["spec"], pipe["mpa"].c_mpa
        result = estimate_c(spec, seed_bump_endpoint(spec, spec.grid.R / fraction),
                            MpaOptions(), k=32)
        assert result.converged
        assert abs(result.c_mpa - coupled) <= 1e-12 * abs(coupled)

    @staticmethod
    def F_at_verified_solution(spec):
        v = minimize_on_level(spec, 1.0).minimizer
        return eval_F(spec, pick_solution_scale(spec, v)["minimizer_at_unit_multiplier"])

    @pytest.mark.parametrize("p, q, m, fraction", [
        pytest.param(2.0, 8.0 / 3.0, 800, 15.0, id="15.0"),
        pytest.param(2.0, 8.0 / 3.0, 800, 4.0, id="4.0"),
        # q midway to p* = 2.8125
        pytest.param(1.8, (1.8 + 9.0 / 3.2) / 2.0, 200, 15.0, id="p1.8-m200-15.0"),
    ])
    def test_path_near_the_hardy_constant_certifies_on_verify(self, p, q, m, fraction):
        # at mu = 0.99 H the rays' sup stays above the unit-multiplier level
        # (8.71 at p = 2), but the sup point polishes to the saddle there,
        # after 5 and 7 descent steps at p = 2 and 136 at p = 1.8.  A deformed
        # string exited uncertified at p = 1.8: its broken-line sup fell
        # below c, to 0.19 against 1.24, which no admissible path reaches.
        spec = hardy_spec(p, 0.99, q, m)
        result = estimate_c(spec, seed_bump_endpoint(spec, spec.grid.R / fraction),
                            MpaOptions(), k=32)
        assert result.converged
        c = self.F_at_verified_solution(spec)
        assert abs(result.c_mpa - c) <= 1e-9 * abs(c)
        assert result.c_mpa < result.path_sup

    def test_path_at_p_3_certifies_on_verify(self):
        # after one descent step the ray's sup is 85% above the
        # unit-multiplier level 74.8, but its sup point polishes to the saddle
        # there
        spec = hardy_spec(3.0, 0.5, 5.0, 100)
        endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        result = estimate_c(spec, endpoint, MpaOptions(), k=32)
        assert result.converged
        c = self.F_at_verified_solution(spec)
        assert abs(result.c_mpa - c) <= 1e-9 * abs(c)
        assert result.c_mpa < result.path_sup

    @pytest.mark.parametrize("m, fraction, steps", [
        pytest.param(200, None, 1, id="200"),
        pytest.param(800, None, 1, id="800"),
        pytest.param(800, 15.0, 20, id="800-15.0"),
    ])
    def test_finer_p_3_grids_certify_on_verify(self, m, fraction, steps):
        # the backtracking polish reaches the saddle from the orbit point of
        # the ray's sup point, where full Newton steps overshoot, after one
        # descent step from the coupled endpoint and 20 from the R/15 bump,
        # where a deformed string exited uncertified after 52 sweeps
        spec = hardy_spec(3.0, 0.5, 5.0, m)
        if fraction is None:
            endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        else:
            endpoint = seed_bump_endpoint(spec, spec.grid.R / fraction)
        result = estimate_c(spec, endpoint, MpaOptions(), k=32)
        assert result.converged and result.sweeps == steps
        c = self.F_at_verified_solution(spec)
        assert abs(result.c_mpa - c) <= 1e-9 * abs(c)


class TestRecordPolish:
    """``polish`` runs Newton's method on F' = 0 on records; the point-level
    loop of ``conftest._point_polish`` is its reference."""

    @pytest.mark.parametrize("case", ["hardy_mu0", "hardy_mu_half", "critical_pipeline", "hardy_p3"])
    def test_matches_the_point_level_reference(self, case, request, polish_oracle, monkeypatch):
        if case == "hardy_p3":
            spec = hardy_spec(3.0, 0.5, 5.0, 100)
            endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        else:
            pipe = request.getfixturevalue(case)
            spec, endpoint = pipe["spec"], pipe["endpoint"]
        model = spec.model
        e = model.unwrap(endpoint)
        c_sup, t = model.ray_sup(e)
        top = t * e
        if case == "hardy_p3":
            # the factor at the endpoint's ray maximum is refused; the run
            # polishes after one descent step, in 6 Newton steps
            top = maxminpass.mpa.deform(top, spec, MpaOptions().step, c_sup)[0]
        start = model.orbit_point(model.iterate(top))
        factors = []

        def factor_spy(d, e):
            factors.append(1)
            return factor_tridiagonal(d, e)

        monkeypatch.setattr(maxminpass.mpa, "factor_tridiagonal", factor_spy)
        it, res, pivots = maxminpass.mpa.polish(model, model.iterate(start))
        x_ref, res_ref, pivots_ref, steps = polish_oracle(spec, start)
        assert len(factors) == steps + 1 and steps > 0  # one factor per point it steps from
        assert pivots == pivots_ref
        assert res == pytest.approx(res_ref, rel=1e-12, abs=0.0)
        assert_close(it.x, x_ref, 1e-12)
        F_ref = eval_F(spec, model.wrap(x_ref))
        assert abs(eval_F(spec, it) - F_ref) <= 1e-14 * abs(F_ref)


class TestOneEvaluationPerPoint:
    """The direct route evaluates each point it visits once, into its record:
    the endpoint (``energies``), the sup point, its orbit point and each
    polish trial, a rejected one included (``iterate``).  Only the rounding
    guard F(4 t* x*) < 0 evaluates F on the grid apart."""

    @pytest.mark.parametrize("pipeline", ["hardy_mu_half", "critical_pipeline"])
    def test_estimate_c_records_each_point_once(self, pipeline, request, monkeypatch):
        pipe = request.getfixturevalue(pipeline)
        spec = pipe["spec"]
        cls = type(spec.model)
        seen, checked = [], []
        calls = {"_du": 0, "_power": 0}
        T, U = cls.T, cls.U

        def record_spy(builder):
            def call(model, x, *args):
                seen.append(x.copy())
                return builder(model, x, *args)
            return call

        def grid_check(model, x):
            checked.append(x.copy())
            return T(model, x) - U(model, x)

        def forbidden(name):
            def call(*args):
                raise AssertionError(f"{name} evaluated outside the record")
            return call

        def counted(name, method):
            def call(*args):
                calls[name] += 1
                return method(*args)
            return call

        for name in calls:
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        for name in ("energies", "iterate"):
            monkeypatch.setattr(cls, name, record_spy(getattr(cls, name)))
        monkeypatch.setattr(cls, "F", grid_check)
        for name in ("T", "U", "grad_T", "grad_U", "hessian", "ray_sup", "_U_moments"):
            monkeypatch.setattr(cls, name, forbidden(name))
        result = estimate_c(spec, pipe["endpoint"], MpaOptions(), k=32)
        assert result.converged and result.sweeps == 0
        assert result.c_mpa == pipe["mpa"].c_mpa
        assert not any(np.array_equal(a, b) for a, b in itertools.combinations(seen, 2))
        assert np.array_equal(seen[0], pipe["endpoint"].values)
        assert any(np.array_equal(x, result.saddle.values) for x in seen)
        assert len(checked) == 1
        assert_close(checked[0], 4.0 * result.saddle.values, 1e-9)
        # one difference quotient and one power of |x| per record, and one
        # each for the grid check
        assert calls["_du"] == calls["_power"] == len(seen) + 1
        if pipeline == "hardy_mu_half":
            # e, t* e, its orbit point and the two Newton steps of the polish
            assert len(seen) == 5


def ray_oracle(spec, x):
    """(max, argmax) of t -> F(t x) by a bounded search on (0, 4)."""
    r = minimize_scalar(lambda t: -float(spec.model.F(t * x)), bounds=(0.0, 4.0),
                        method="bounded", options={"xatol": 1e-12})
    return -float(r.fun), float(r.x)


class TestRaySup:
    SADDLES = ["hardy_mu0", "hardy_mu_half", "critical_pipeline", "hardy_p3"]

    @pytest.fixture(scope="class")
    def hardy_p3(self):
        spec = hardy_spec(3.0, 0.5, 5.0, 100)
        endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        return {"spec": spec, "mpa": estimate_c(spec, endpoint, MpaOptions(), k=32)}

    @pytest.mark.parametrize("pipeline", SADDLES)
    def test_ray_through_a_saddle_peaks_there(self, pipeline, request):
        pipe = request.getfixturevalue(pipeline)
        spec, result = pipe["spec"], pipe["mpa"]
        x = saddle_of(spec, result)
        F_x = float(spec.model.F(x))
        value, t = spec.model.ray_sup(x)
        oracle, t_oracle = ray_oracle(spec, x)
        assert abs(t - 1.0) <= 1e-6 and abs(t_oracle - 1.0) <= 1e-6
        assert abs(value - F_x) <= 1e-12 * abs(F_x)
        assert abs(value - oracle) <= 1e-12 * abs(value)
        assert spec.model.F(4.0 * x) < 0
        assert result.converged
        assert abs(result.ray_sup - value) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("pipeline", SADDLES)
    def test_perturbed_saddle_matches_the_search(self, pipeline, request):
        pipe = request.getfixturevalue(pipeline)
        spec = pipe["spec"]
        x = saddle_of(spec, pipe["mpa"])
        x = x * (1.0 + 0.5 * np.cos(np.pi * spec.grid.nodes / spec.grid.R))
        value, t = spec.model.ray_sup(x)
        oracle, t_oracle = ray_oracle(spec, x)
        assert 0.1 < t_oracle < 3.9 and abs(t - 1.0) > 1e-3
        assert abs(t - t_oracle) <= 1e-6 * t
        assert abs(value - oracle) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("p, q, amplitude", [(1.5, 2.1, 30.0), (2.0, 8.0 / 3.0, 3.0),
                                                 (3.0, 5.0, 1.0)])
    def test_seed_bump_matches_the_search(self, p, q, amplitude):
        # p < 2 and p > 2 take the root of f'(t)/t; p = 2 the closed form
        spec = hardy_spec(p, 0.5, q, 200)
        x = amplitude * spec.model.seed().values
        value, t = spec.model.ray_sup(x)
        oracle, t_oracle = ray_oracle(spec, x)
        assert 0.1 < t_oracle < 3.9
        assert abs(t - t_oracle) <= 1e-6 * t
        assert abs(value - oracle) <= 1e-12 * abs(value)
        assert spec.model.F(4.0 * t * x) < 0

    def test_zero_point_has_no_ray_maximum(self, critical_small):
        x = np.zeros_like(critical_small.grid.nodes)
        assert all(map(np.isnan, critical_small.model.ray_sup(x)))


class TestClosedFormStart:
    """The straight path takes its energies from the endpoint's fibering
    map, and the run its sweep-0 sup from that map's maximum."""

    CASES = ["toy", "hardy", "hardy_p3", "critical"]

    @pytest.fixture(scope="class")
    def start(self, hardy_small, critical_small):
        """(spec, endpoint) of each case, keyed by name."""
        hardy_p3 = hardy_spec(3.0, 0.5, 5.0, 100)
        return {
            "toy": (toy_spec(6.0), toy_endpoint(toy_spec(6.0))),
            "hardy": (hardy_small, find_endpoint(
                hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)),
            "hardy_p3": (hardy_p3, seed_bump_endpoint(hardy_p3, hardy_p3.grid.R / 15.0)),
            "critical": (critical_small, find_endpoint(
                critical_small, minimize_on_level(critical_small, 1.0).minimizer)),
        }

    @staticmethod
    def sweep_zero(spec, endpoint, monkeypatch, k=32):
        """The run's sweep-0 (sup, sup point), read by a refusing
        ``_certify``, and the run, which makes no sweep."""
        seen = []

        def spy(spec, top, c_sup):
            seen.append((c_sup, top))
            return refuse()

        monkeypatch.setattr(maxminpass.mpa, "_certify", spy)
        monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 0)
        result = estimate_c(spec, endpoint, MpaOptions(), k=k)
        assert result.sweeps == 0 and len(seen) == 1
        return seen[0], result

    @pytest.mark.parametrize("case", CASES)
    def test_energies_are_F_at_the_images(self, case, start, monkeypatch):
        spec, endpoint = start[case]
        path = self.sweep_zero(spec, endpoint, monkeypatch)[1].path
        grid_F = spec.model.F(path.images)
        assert np.max(np.abs(path.energies - grid_F)) <= 1e-13 * np.max(np.abs(grid_F))
        assert path.energies[0] == 0.0
        assert path.energies[-1] == eval_F(spec, endpoint)

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_zero_sup_is_the_ray_maximum(self, case, start, monkeypatch):
        spec, endpoint = start[case]
        (c_sup, top), result = self.sweep_zero(spec, endpoint, monkeypatch)
        e = result.path.images[-1]
        value, t = spec.model.ray_sup(e)
        assert c_sup == value == result.path_sup
        assert np.array_equal(top, t * e)
        if case == "toy":
            assert c_sup == pytest.approx(toy_closed_form(spec.toy)["c"], rel=1e-14)

    def test_endpoint_without_positive_T_is_refused(self, hardy_small):
        # a profile flat near R has T <= 0 (here T = 0: the profile is flat
        # everywhere), so its fibering map has no maximum and its ray starts
        # no descent
        endpoint = GridFunction(hardy_small.grid, np.full(hardy_small.grid.m, 3.0))
        assert eval_T(hardy_small, endpoint) <= 0.0 and eval_F(hardy_small, endpoint) < 0.0
        assert all(map(np.isnan, hardy_small.model.ray_sup(endpoint.values)))
        with pytest.raises(ValidationError, match=r"T\(endpoint\) <= 0"):
            estimate_c(hardy_small, endpoint, MpaOptions(), k=32)

    def test_certified_start_takes_no_stacked_energy(self, hardy_small, monkeypatch):
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        ndims = []
        for name in ("T", "U", "F"):
            def spy(self, x, method=getattr(Hardy, name)):
                ndims.append(np.ndim(x))
                return method(self, x)
            monkeypatch.setattr(Hardy, name, spy)
        result = estimate_c(hardy_small, endpoint, MpaOptions(), k=32)
        assert result.converged and result.sweeps == 0
        assert ndims and set(ndims) == {1}


class TestPathOnFirstRead:
    """The run builds no path: ``MpaResult.path`` is built when it is first
    read, as the straight path to the last ray's endpoint."""

    @pytest.mark.parametrize("case", ["hardy", "refused", "toy"])
    def test_run_builds_no_path(self, case, hardy_small, monkeypatch):
        built, moves = [], []
        init, deform = DiscretePath.__init__, maxminpass.mpa.deform

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        def spy(*args):
            out = deform(*args)
            if out is not None:
                moves.append(out[0])
            return out

        if case == "toy":
            spec, endpoint, opts, k = toy_spec(), toy_endpoint(toy_spec()), MpaOptions(0.05), 48
        else:
            spec, opts, k = hardy_small, MpaOptions(), 32
            endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
        if case == "refused":
            monkeypatch.setattr(maxminpass.mpa, "_certify", refuse)
            monkeypatch.setattr(maxminpass.mpa, "MAX_SWEEPS", 5)
        monkeypatch.setattr(maxminpass.mpa, "deform", spy)
        monkeypatch.setattr(DiscretePath, "__init__", counting)
        result = estimate_c(spec, endpoint, opts, k=k)
        assert built == []
        assert result.sweeps == len(moves) == (5 if case == "refused" else 0)
        assert result.converged == (case != "refused")
        # the last ray's endpoint: e when no step was taken, else 4x; the
        # path is the run's, whatever the caller does to e before reading it
        e = spec.model.unwrap(endpoint)
        end = 4.0 * moves[-1] if moves else e.copy()
        e[:] = 0.0
        path = result.path
        assert result.path is path and len(built) == 1
        old = straight_path(spec, end, k)
        assert np.array_equal(path.images, old.images)
        assert np.array_equal(path.energies, old.energies)
        assert path.grid is old.grid


class TestOptions:
    def test_only_the_step_is_settable(self):
        assert [f.name for f in dataclasses.fields(MpaOptions)] == ["step"]

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, step):
        # step = 0 would hold the path still: the straight path's sup, 35%
        # above c on Hardy mu = 0, would be reported converged
        with pytest.raises(ValidationError, match="step"):
            MpaOptions(step=step)


class TestLevelCrossing:
    def test_final_path_crosses_all_levels(self):
        spec = toy_spec()
        result = estimate_c(spec, toy_endpoint(spec), MpaOptions(step=0.05), k=48)
        end_level = 2.0**4
        lambdas = np.linspace(1e-3, end_level * 0.999, 50)
        assert crosses_all_levels(result.path, spec, lambdas)

    def test_detects_missing_crossing(self):
        spec = toy_spec()
        path = estimate_c(spec, toy_endpoint(spec), MpaOptions(step=0.05), k=8).path
        assert not crosses_all_levels(path, spec, [1e9])
