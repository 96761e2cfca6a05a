"""Energies, gradients, the Hardy gate and the first-eigenvalue estimate."""

import copy
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from maxminpass import (
    ConvergenceError,
    GridFunction,
    GridMismatchError,
    NonlinearitySpec,
    ProblemSpec,
    ValidationError,
    build_radial_grid,
    estimate_mu_p,
    eval_F,
    eval_T,
    eval_U,
    grad_T,
    grad_U,
    hardy_constant,
    inner,
    minimize_on_level,
    norm,
    precondition,
    problem_from_config,
    problem_to_config,
    retract_to_level,
)
from maxminpass.constrained import descend
from maxminpass.functionals import (
    Critical,
    _Rayleigh,
    factor_tridiagonal,
    solve_tridiagonal,
)

RNG = np.random.default_rng(20240817)


def gaussian(grid, width=1.0, amp=1.0):
    return GridFunction(grid, amp * np.exp(-((grid.nodes / width) ** 2)))


def hardy_spec(mu=0.0, p=2.0, m=200, R=30.0, q=8.0 / 3.0):
    grid = build_radial_grid(5, R, m, 50.0 ** (1.0 / m))
    return ProblemSpec(
        variant="hardy-subcritical",
        p=p,
        n=5,
        mu=mu,
        nonlinearity=NonlinearitySpec(1.0, q),
        grid=grid,
    )


def critical_spec(mu=3.0, m=120, p=2.0):
    grid = build_radial_grid(5, 1.0, m, 1.0)
    return ProblemSpec(variant="critical-bounded", p=p, n=5, mu=mu, grid=grid)


class TestHardyConstant:
    def test_known_values(self):
        assert hardy_constant(2.0, 4) == pytest.approx(1.0)
        assert hardy_constant(2.0, 3) == pytest.approx(0.25)
        assert hardy_constant(2.0, 6) == pytest.approx(4.0)


class TestNonlinearity:
    def test_g_and_primitive(self):
        nl = NonlinearitySpec(1.0, 3.0)
        assert nl.g(2.0) == pytest.approx(-2.0 + 4.0)
        assert nl.G(2.0) == pytest.approx(-2.0 + 8.0 / 3.0)

    def test_oddness(self):
        nl = NonlinearitySpec(2.0, 2.7)
        s = np.linspace(-5, 5, 101)
        assert np.allclose(nl.g(-s), -nl.g(s))

    def test_growth_gate_accepts_subcritical(self):
        NonlinearitySpec(1.0, 8.0 / 3.0).check_growth_conditions(2.0, 10.0 / 3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            NonlinearitySpec(0.0, 3.0)
        with pytest.raises(ValidationError):
            NonlinearitySpec(1.0, 2.0)
        with pytest.raises(ValidationError):
            NonlinearitySpec(1.0, 4.0).check_growth_conditions(2.0, 10.0 / 3.0)
        with pytest.raises(ValidationError):
            NonlinearitySpec(1.0, 10.0 / 3.0).check_growth_conditions(2.0, 10.0 / 3.0)
        with pytest.raises(ValidationError):
            NonlinearitySpec(1.0, 2.5).check_growth_conditions(2.5, 5.0)

    def test_default_nonlinearity_is_admissible_at_n5(self):
        # q = 3 lies in (p, p*) = (2, 10/3); a sampled growth bound, which
        # rejected every q above p* - 0.375, used to refuse it
        grid = build_radial_grid(5, 30.0, 200, 50.0 ** (1.0 / 200))
        spec = ProblemSpec(
            variant="hardy-subcritical", p=2.0, n=5, nonlinearity=NonlinearitySpec(), grid=grid
        )
        r = minimize_on_level(spec, 1.0)
        assert r.converged
        assert r.i_value > 0

    def test_positive_level_beyond_the_scan_is_admissible(self):
        # G > 0 only from (q m / 2)^(1/(q-2)) = 1.5625e6; no sampled scan
        # of s decides admissibility
        spec = ProblemSpec(
            variant="hardy-subcritical", p=2.0, n=5,
            nonlinearity=NonlinearitySpec(1e3, 2.5), grid=build_radial_grid(5, 30.0, 60, 1.0),
        )
        assert spec.model.nl.G(1.6e6) > 0 > spec.model.nl.G(1.5e6)


class TestEvalT:
    def test_zero_function_is_zero(self):
        spec = hardy_spec()
        zero = GridFunction(spec.grid, np.zeros(spec.grid.m))
        assert eval_T(spec, zero) == 0.0
        assert eval_U(spec, zero) == 0.0

    def test_gaussian_against_fine_quadrature(self):
        # mu = 0, p = 2, n = 3: T(u) = (1/2) int |grad u|^2 over R^3
        grid = build_radial_grid(3, 8.0, 2000, 1.0)
        spec = ProblemSpec(
            variant="hardy-subcritical",
            p=2.0,
            n=3,
            mu=0.0,
            nonlinearity=NonlinearitySpec(1.0, 4.0),
            grid=grid,
        )
        u = gaussian(grid)
        du = lambda r: -2.0 * r * np.exp(-(r**2))
        oracle = 0.5 * 4.0 * math.pi * quad(lambda r: du(r) ** 2 * r**2, 0, 8.0)[0]
        assert eval_T(spec, u) == pytest.approx(oracle, rel=1e-4)

    def test_hardy_inequality_per_sample(self):
        # with mu at half the Hardy constant, T keeps at least half the
        # gradient energy, sample by sample
        spec = hardy_spec(mu=0.5 * hardy_constant(2.0, 5))
        dr, we = spec.grid.dr, spec.grid.we
        for _ in range(50):
            width = RNG.uniform(0.2, 5.0)
            amp = RNG.uniform(0.1, 10.0)
            u = gaussian(spec.grid, width, amp)
            grad_energy = float(np.dot(we, (np.diff(u.values) / dr) ** 2))
            assert eval_T(spec, u) >= 0.5 * 0.5 * grad_energy - 1e-12


class TestEdgeGeometry:
    @pytest.mark.parametrize("stretch", [1.0, 1.05])
    def test_matches_nodes_bit_for_bit(self, stretch):
        grid = build_radial_grid(5, 30.0, 150, stretch)
        dr, we = grid.dr, grid.we
        area = 2.0 * math.pi ** (grid.n / 2.0) / math.gamma(grid.n / 2.0)
        assert np.array_equal(dr, np.diff(grid.nodes))
        assert np.array_equal(we, area / grid.n * np.diff(grid.nodes**grid.n))


class TestEvalU:
    def test_critical_amplitude_homogeneity_exact(self):
        spec = critical_spec()
        u = gaussian(spec.grid, width=0.3)
        beta = 1.7
        expected = beta**spec.pstar * eval_U(spec, u)
        assert eval_U(spec, beta * u) == pytest.approx(expected, rel=1e-14)

    def test_hardy_small_amplitude_is_negative(self):
        spec = hardy_spec()
        u = gaussian(spec.grid, amp=1e-3)
        assert eval_U(spec, u) < 0.0

    def test_grid_mismatch(self):
        spec = hardy_spec(m=200)
        other = build_radial_grid(5, 30.0, 100, 1.02)
        with pytest.raises(GridMismatchError):
            eval_U(spec, gaussian(other))


class TestEvalF:
    def test_f_is_t_minus_u_exactly(self):
        spec = hardy_spec()
        for _ in range(10):
            u = gaussian(spec.grid, RNG.uniform(0.3, 3.0), RNG.uniform(0.5, 5.0))
            assert eval_F(spec, u) == eval_T(spec, u) - eval_U(spec, u)

    def test_critical_large_amplitude_diverges_below(self):
        spec = critical_spec()
        u = gaussian(spec.grid, width=0.3)
        vals = [eval_F(spec, beta * u) for beta in (1.0, 10.0, 100.0)]
        assert vals[2] < vals[1]
        assert vals[2] < -1e2


def fd_gradient_error(spec, energy, gradient, u, h, eps):
    """Central-difference defect of the weighted-pairing gradient."""
    lhs = inner(spec, gradient(spec, u), h)
    rhs = (energy(spec, u + eps * h) - energy(spec, u - eps * h)) / (2.0 * eps)
    return abs(lhs - rhs)


class TestGradients:
    def test_grad_t_zero_at_origin(self):
        spec = hardy_spec()
        zero = GridFunction(spec.grid, np.zeros(spec.grid.m))
        assert norm(spec, grad_T(spec, zero)) == 0.0

    def test_grad_t_linear_for_p2(self):
        spec = hardy_spec()
        u = gaussian(spec.grid)
        a = 3.7
        assert np.allclose(
            grad_T(spec, a * u).values, a * grad_T(spec, u).values, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "make_spec", [lambda: hardy_spec(mu=1.0), lambda: hardy_spec(p=2.5, q=3.5),
                      lambda: critical_spec()],
    )
    @pytest.mark.parametrize("which", ["T", "U"])
    def test_finite_difference_second_order(self, make_spec, which):
        spec = make_spec()
        energy, gradient = (eval_T, grad_T) if which == "T" else (eval_U, grad_U)
        u = gaussian(spec.grid, 1.2, 1.5)
        h = gaussian(spec.grid, 0.8, 0.6)
        scale = 1.0 + abs(energy(spec, u))
        errs = {
            eps: fd_gradient_error(spec, energy, gradient, u, h, eps)
            for eps in (1e-3, 1e-4)
        }
        # second order: error at eps is O(eps^2), with a constant of modest size
        assert errs[1e-3] <= 50.0 * scale * 1e-6
        assert errs[1e-4] <= 50.0 * scale * 1e-8

    def test_toy_gradients(self):
        from maxminpass import ToyProblem

        spec = ProblemSpec(variant="toy", toy=ToyProblem(3, 4.0))
        u = np.array([1.0, 2.0, 2.0])
        assert np.allclose(grad_T(spec, u), 2.0 * u)
        assert np.allclose(grad_U(spec, u), 4.0 * 9.0 * u)


def dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestHessian:
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: hardy_spec(m=60),
            lambda: hardy_spec(mu=0.5 * hardy_constant(2.0, 5), m=60),
            lambda: hardy_spec(mu=0.5 * hardy_constant(3.0, 5), p=3.0, q=5.0, m=60),
            # p < 2: the weight carries the gradients' regularization
            lambda: hardy_spec(mu=0.5 * hardy_constant(1.8, 5), p=1.8, q=2.5, m=60),
            lambda: critical_spec(m=60),
        ],
    )
    def test_bands_match_central_differences(self, make_spec):
        # columns of the Jacobian of the Euclidean gradient W (grad T - theta
        # grad U), at a profile whose slope and values stay away from 0
        spec = make_spec()
        model, grid, theta = spec.model, spec.grid, 0.7
        dirichlet = spec.variant == "critical-bounded"
        x = (1.0 - grid.nodes / grid.R) * (1.0 + np.exp(-((4.0 * grid.nodes / grid.R) ** 2)))
        x += 0.0 if dirichlet else 0.5
        d, e = model.hessian(x, theta)
        H = dense(d, e)
        J = np.empty_like(H)
        for j in range(grid.m):
            h = 1e-6 * max(1.0, abs(x[j]))
            step = np.zeros(grid.m)
            step[j] = h
            gp, gm = (grid.weights * (model.grad_T(y) - theta * model.grad_U(y))
                      for y in (x + step, x - step))
            J[:, j] = (gp - gm) / (2.0 * h)
        n = grid.m - 1 if dirichlet else grid.m
        err = np.abs(H - J)[:n, :n].max(axis=1) / np.abs(H[:n, :n]).max(axis=1)
        assert err.max() <= 1e-6
        if dirichlet:  # the boundary row is the identity
            assert d[-1] == 1.0 and e[-1] == 0.0

    def test_toy_has_none(self):
        from maxminpass import ToyProblem

        spec = ProblemSpec(variant="toy", toy=ToyProblem(3, 4.0))
        assert spec.model.hessian(np.ones(3), 0.5) is None


class TestTridiagonalKernel:
    @pytest.mark.parametrize("where", [0, 17, 38, 39])
    @pytest.mark.parametrize("negatives", [0, 1, 2])
    def test_inertia_and_solve_against_dense(self, where, negatives):
        # a diagonally dominant matrix with `negatives` rows pushed below 0,
        # the first at `where`, including the last and next-to-last rows
        m = 40
        d = 3.0 + RNG.random(m)
        e = -RNG.random(m - 1)
        for k in range(negatives):
            d[(where + 11 * k) % m] -= 8.0
        H = dense(d, e)
        assert (np.linalg.eigvalsh(H) < 0).sum() == negatives
        factor = factor_tridiagonal(d, e)
        if negatives == 2:
            assert factor is None
            return
        assert factor[2] == negatives
        b = RNG.standard_normal((3, m))
        x = solve_tridiagonal(factor, b)
        assert np.allclose(x @ H, b, rtol=0.0, atol=1e-12 * np.abs(x).max() * np.abs(H).max())
        # a stack's rows are solved bit for bit as single right-hand sides
        for row, rhs in zip(x, b):
            assert np.array_equal(row, solve_tridiagonal(factor, rhs))

    def test_zero_pivot_is_refused(self):
        assert factor_tridiagonal(np.array([0.0, 1.0]), np.array([1.0])) is None
        assert factor_tridiagonal(np.array([1.0, 1.0]), np.array([1.0])) is None


class TestPreconditioner:
    def test_positive_definite_on_gradients(self):
        spec = hardy_spec()
        for _ in range(5):
            u = gaussian(spec.grid, RNG.uniform(0.5, 2.0))
            g = grad_T(spec, u)
            assert inner(spec, g, precondition(spec, g)) > 0.0

    def test_linearity(self):
        spec = critical_spec()
        g1 = grad_T(spec, gaussian(spec.grid, 0.4))
        g2 = grad_U(spec, gaussian(spec.grid, 0.3))
        lhs = precondition(spec, g1 + 2.0 * g2)
        rhs = precondition(spec, g1) + 2.0 * precondition(spec, g2)
        assert np.allclose(lhs.values, rhs.values, rtol=1e-10)

    def test_stacked_rows_bit_identical_and_zero_at_the_boundary(self):
        spec = critical_spec()
        g = np.stack([grad_T(spec, gaussian(spec.grid, w)).values for w in (0.2, 0.3, 0.4)])
        z = spec.model.precondition(g)
        assert np.all(z[:, -1] == 0.0)
        for row, gi in zip(z, g):
            assert np.array_equal(row, spec.model.precondition(gi))


def mp_mu_p(grid, dps=40):
    """First eigenvalue of the Dirichlet p=2 stiffness K against the mass W
    on the grid, by Rayleigh-quotient iteration in mpmath at ``dps`` digits:
    two inverse iterations at shift 0 from 1 - r^2, then the shift follows
    the quotient until it settles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        c = [mpf(we) / mpf(dr) ** 2 for we, dr in zip(grid.we.tolist(), grid.dr.tolist())]
        w = [mpf(x) for x in grid.weights[:-1].tolist()]
        n = len(w)

        def quotient(u):
            v = u + [mpf(0)]
            num = mpmath.fsum(ce * (b - a) ** 2 for ce, a, b in zip(c, v, v[1:]))
            return num / mpmath.fsum(wi * ui * ui for wi, ui in zip(w, u))

        def solve(shift, b):
            # Thomas algorithm on (K - shift W) x = b, with K[i, i+1] = -c[i]
            diag = [c[i] + (c[i - 1] if i else 0) - shift * w[i] for i in range(n)]
            cp, bp = [mpf(0)] * n, [b[0] / diag[0]] + [mpf(0)] * (n - 1)
            cp[0] = -c[0] / diag[0]
            for i in range(1, n):
                den = diag[i] + c[i - 1] * cp[i - 1]
                cp[i] = -c[i] / den if i < n - 1 else mpf(0)
                bp[i] = (b[i] + c[i - 1] * bp[i - 1]) / den
            x = [mpf(0)] * n
            x[-1] = bp[-1]
            for i in range(n - 2, -1, -1):
                x[i] = bp[i] - cp[i] * x[i + 1]
            return x

        u = [1 - (mpf(r) / grid.R) ** 2 for r in grid.nodes[:-1].tolist()]
        shift, ray = mpf(0), quotient(u)
        for it in range(50):
            u = solve(shift, [wi * ui for wi, ui in zip(w, u)])
            top = max(abs(x) for x in u)
            u = [x / top for x in u]
            new = quotient(u)
            settled = abs(new - ray) <= mpf(10) ** (5 - dps) * new
            ray = new
            if it >= 1:
                if settled:
                    return float(ray)
                shift = ray
        raise AssertionError("reference Rayleigh-quotient iteration did not settle")


class TestMuP:
    def test_matches_dense_oracle(self, mu_p_dense):
        grid = build_radial_grid(5, 1.0, 200, 1.0)
        spec = ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=3.0, grid=grid)
        est = estimate_mu_p(spec)
        dense = mu_p_dense(grid)
        assert abs(est - dense) / dense <= 1e-6

    @pytest.mark.parametrize("stretch", [1.0, 1.003])
    def test_gate_matches_dense_oracle(self, stretch):
        # the gate is the spec's one mu_p, held to the 40-digit reference: the
        # dense oracle, like LAPACK's raw eigenvalue, carries an error of eps
        # times ||D^(-1/2) K D^(-1/2)||, which grows as the first cell shrinks
        grid = build_radial_grid(5, 1.0, 200, stretch)
        spec = ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=3.0, grid=grid)
        ref = mp_mu_p(grid)
        assert abs(spec.mu_limit - ref) / ref <= 1e-14
        assert estimate_mu_p(spec) == spec.mu_limit

    @pytest.mark.parametrize("m,stretch", [(200, 1.0), (200, 1.003), (800, 1.0049)])
    def test_matches_high_precision_reference(self, m, stretch):
        grid = build_radial_grid(5, 1.0, m, stretch)
        spec = ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=3.0, grid=grid)
        ref = mp_mu_p(grid)
        assert abs(estimate_mu_p(spec) - ref) / ref <= 1e-14

    def test_refinement_study(self):
        # the scheme is second order: each halving of the spacing should
        # shrink the continuum error by about 4
        # first Dirichlet eigenvalue of the unit 5-ball: square of the first
        # zero of the Bessel function of order 3/2, the root of tan x = x
        exact = brentq(lambda x: math.sin(x) - x * math.cos(x), 4.0, 4.7) ** 2
        errs = []
        for m in (100, 200, 400):
            grid = build_radial_grid(5, 1.0, m, 1.0)
            spec = ProblemSpec(
                variant="critical-bounded", p=2.0, n=5, mu=3.0, grid=grid
            )
            errs.append(abs(estimate_mu_p(spec) - exact))
        assert errs[1] < errs[0] / 3.0
        assert errs[2] < errs[1] / 3.0

    @pytest.mark.parametrize("p,m", [(1.8, 150), (2.2, 150), (1.5, 60)])
    def test_stopping_rule_at_p_not_2(self, monkeypatch, p, m):
        # mu_p stops at the variant's grad_tol; the same Rayleigh model,
        # continued from its answer to a residual of 1e-12, moves it by less
        # than 1e-13
        grid = build_radial_grid(5, 1.0, m, 1.0)
        mu_p = Critical.mu_limit_of(p, 5, grid)
        model = _Rayleigh(grid, p)
        x = descend(model, model.precondition(model.seed().values), 1.0)[0]
        assert float(model.T(x) / model.U(x)) == mu_p
        monkeypatch.setattr(_Rayleigh, "grad_tol", 1e-12)
        x, *_, converged = descend(model, x, 1.0)
        assert converged
        ref = float(model.T(x) / model.U(x))
        assert abs(mu_p - ref) / ref <= 1e-13

    def test_radius_scaling(self):
        # continuum scaling: the eigenvalue on the R-ball is R^-p times the
        # unit-ball value
        for p in (2.0, 1.8):
            vals = {}
            for R in (1.0, 2.0):
                grid = build_radial_grid(5, R, 150, 1.0)
                spec = ProblemSpec(
                    variant="critical-bounded", p=p, n=5, mu=1.0, grid=grid,
                )
                vals[R] = estimate_mu_p(spec)
            assert vals[2.0] == pytest.approx(vals[1.0] * 2.0**-p, rel=1e-3)


class TestProblemSpecValidation:
    def test_mu_at_hardy_constant_rejected(self):
        with pytest.raises(ValidationError):
            hardy_spec(mu=hardy_constant(2.0, 5))

    def test_mu_above_first_eigenvalue_rejected(self):
        grid = build_radial_grid(5, 1.0, 60, 1.0)
        with pytest.raises(ValidationError):
            ProblemSpec(variant="critical-bounded", p=2.0, n=5, mu=100.0, grid=grid)

    @pytest.mark.parametrize("fraction,admissible", [(0.99, True), (1.01, False), (60.0, False)])
    def test_first_eigenvalue_gates_mu_at_p_not_2(self, fraction, admissible):
        # mu_p is about 16.4 on this ball at p = 1.8: the gate is the first
        # Dirichlet eigenvalue at the spec's p, at every p
        grid = build_radial_grid(5, 1.0, 150, 1.0)
        probe = ProblemSpec(variant="critical-bounded", p=1.8, n=5, mu=1.0, grid=grid)
        mu_p = estimate_mu_p(probe)
        assert probe.mu_limit == mu_p
        if admissible:
            ProblemSpec(variant="critical-bounded", p=1.8, n=5, mu=fraction * mu_p, grid=grid)
        else:
            with pytest.raises(ValidationError):
                ProblemSpec(variant="critical-bounded", p=1.8, n=5, mu=fraction * mu_p, grid=grid)

    def test_p_range(self):
        with pytest.raises(ValidationError):
            hardy_spec(p=5.0)
        with pytest.raises(ValidationError):
            critical_spec(p=2.3)  # p^2 > n

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            ProblemSpec(variant="mystery")


class TestConfigRoundtrip:
    def test_hardy_roundtrip(self):
        spec = hardy_spec(mu=1.125, m=50)
        back = problem_from_config(problem_to_config(spec))
        assert back.variant == spec.variant
        assert back.mu == spec.mu
        assert back.nonlinearity.q == spec.nonlinearity.q
        assert back.grid.same_as(spec.grid)

    def test_mu_fraction_of_limit(self):
        cfg = {
            "variant": "hardy-subcritical",
            "p": 2.0,
            "n": 5,
            "mu_fraction_of_limit": 0.5,
            "grid": {"n": 5, "R": 30.0, "m": 50, "stretch": 1.02},
        }
        spec = problem_from_config(cfg)
        assert spec.mu == pytest.approx(0.5 * hardy_constant(2.0, 5))

    def test_mu_fraction_of_limit_at_p_not_2(self):
        # the limit is the first Dirichlet eigenvalue at the spec's p, not
        # the p = 2 one, which is 1.23 times larger here
        cfg = {
            "variant": "critical-bounded",
            "p": 1.8,
            "n": 5,
            "mu_fraction_of_limit": 0.5,
            "grid": {"n": 5, "R": 1.0, "m": 150, "stretch": 1.0},
        }
        spec = problem_from_config(cfg)
        mu_p = estimate_mu_p(spec)
        assert mu_p == pytest.approx(16.404, rel=1e-4)
        assert spec.mu == 0.5 * mu_p

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copy_rebuilds_the_model(self, duplicate):
        spec = hardy_spec(mu=1.125, m=50)
        back = duplicate(spec)
        assert back.model is not spec.model and back.model.spec.mu == spec.mu
        u = gaussian(spec.grid, amp=2.0)
        assert eval_F(back, u) == eval_F(spec, u)
        assert eval_U(back, retract_to_level(back, u, 3.0)) == pytest.approx(3.0, rel=1e-10)

    def test_toy_roundtrip(self):
        from maxminpass import ToyProblem

        spec = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
        back = problem_from_config(problem_to_config(spec))
        assert back.toy.q == 4.0
