"""Euler-Lagrange residuals, multipliers, and the unit-multiplier scale."""

import zlib

import numpy as np
import pytest

import maxminpass.constrained
import maxminpass.verify
from maxminpass import (
    GridFunction,
    NonlinearitySpec,
    ProblemSpec,
    ToyProblem,
    ValidationError,
    build_radial_grid,
    el_residual,
    hardy_constant,
    minimize_on_level,
    multiplier_of,
    pick_solution_scale,
    scaling_path,
)


def toy_spec(q=4.0):
    return ProblemSpec(variant="toy", toy=ToyProblem(2, q))


class TestElResidual:
    def test_zero_function_is_solution(self, hardy_small):
        zero = GridFunction(hardy_small.grid, np.zeros(hardy_small.grid.m))
        assert el_residual(hardy_small, zero) == 0.0

    def test_toy_saddle_sphere(self):
        # grad F = 2u - 4|u|^2 u vanishes on |u|^2 = 1/2
        spec = toy_spec()
        u = np.array([1.0, 1.0]) * 0.5
        assert np.linalg.norm(u) == pytest.approx(2.0**-0.5)
        assert el_residual(spec, u) <= 1e-10

    def test_nonsolution_has_large_residual(self):
        spec = toy_spec()
        assert el_residual(spec, np.array([2.0, 0.0])) > 0.1


class TestMultiplier:
    def test_toy_level_one(self):
        r = minimize_on_level(toy_spec(), 1.0)
        assert multiplier_of(toy_spec(), r.minimizer) == pytest.approx(0.5, abs=1e-6)

    def test_toy_at_derived_argmax(self):
        # scaling to lambda_bar = 1/4 puts the minimizer on |u|^2 = 1/2,
        # where theta = 1
        spec = toy_spec()
        r = minimize_on_level(spec, 1.0)
        u = scaling_path(spec, r.minimizer, 0.25)
        assert multiplier_of(spec, u) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_along_scaling_path(self):
        # theta is proportional to lambda^(alpha - 1), hence decreasing
        spec = toy_spec()
        r = minimize_on_level(spec, 1.0)
        thetas = [
            multiplier_of(spec, scaling_path(spec, r.minimizer, lam))
            for lam in np.geomspace(0.01, 4.0, 12)
        ]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))

    def test_undefined_at_zero(self):
        with pytest.raises(ValidationError):
            multiplier_of(toy_spec(), np.zeros(2))


class TestPickSolutionScale:
    def test_toy_unit_multiplier_at_lambda_bar(self):
        spec = toy_spec()
        r = minimize_on_level(spec, 1.0)
        report = pick_solution_scale(spec, r.minimizer)
        assert report["lambda_at_unit_multiplier"] == pytest.approx(0.25, rel=1e-6)
        assert report["theta"] == pytest.approx(1.0, abs=1e-8)
        assert report["residual"] <= 1e-8

    def test_hardy_agrees_with_derived_argmax(self, hardy_small):
        r = minimize_on_level(hardy_small, 1.0)
        report = pick_solution_scale(hardy_small, r.minimizer)
        labels = {c["label"]: c for c in report["candidates_compared"]}
        derived = labels["derived_argmax"]["lam"]
        assert report["lambda_at_unit_multiplier"] == pytest.approx(derived, rel=0.02)
        # the printed closed form misses the numerically located level
        paper = labels["paper_formula"]["lam"]
        assert abs(paper - derived) / derived > 0.5

    def test_critical_amplitude_exponent_resolution(self, critical_small):
        # the residual table singles out the lambda^(1/p*) amplitude factor
        r = minimize_on_level(critical_small, 1.0)
        report = pick_solution_scale(critical_small, r.minimizer)
        labels = {c["label"]: c for c in report["candidates_compared"]}
        good = labels["amplitude_exponent_1_over_pstar"]["residual"]
        bad = labels["amplitude_exponent_p_over_pstar"]["residual"]
        assert good < 1e-3
        assert bad > 100 * good

    def test_residual_within_ten_grad_tol(self, critical_small):
        r = minimize_on_level(critical_small, 1.0)
        report = pick_solution_scale(critical_small, r.minimizer)
        assert report["residual"] <= 10.0 * 1e-6


@pytest.fixture(scope="module", params=["toy", "hardy", "critical"])
def searched(request, bisect_oracle):
    """One problem per variant: its level-1 minimizer, the report of
    ``pick_solution_scale`` with every re-minimization it made, and the
    log-bisection oracle's report."""
    spec = {
        "toy": toy_spec,
        "hardy": lambda: request.getfixturevalue("hardy_small"),
        "critical": lambda: request.getfixturevalue("critical_small"),
    }[request.param]()
    v = minimize_on_level(spec, 1.0).minimizer
    calls = []
    inner = maxminpass.verify.minimize_on_level

    def counting(spec, lam, *args):
        calls.append(lam)
        return inner(spec, lam, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maxminpass.verify, "minimize_on_level", counting)
        report = pick_solution_scale(spec, v)
    return request.param, report, calls, bisect_oracle(spec, v)


class TestBrentAgainstBisection:
    """The Newton search of ``pick_solution_scale`` against the
    log-bisection oracle."""

    def test_unit_level_matches_oracle(self, searched):
        _name, report, _calls, oracle = searched
        assert report["lambda_at_unit_multiplier"] == pytest.approx(
            oracle["lambda_at_unit_multiplier"], rel=1e-9
        )
        assert abs(report["theta"] - 1.0) <= 1e-9

    def test_residual_matches_oracle(self, searched):
        _name, report, _calls, oracle = searched
        # abs: where the minimizer solves the equation exactly (the toy) the
        # residual is only the root's error, of the order of bisect_tol
        assert report["residual"] == pytest.approx(oracle["residual"], rel=1e-3, abs=1e-10)

    def test_other_candidates_bit_identical(self, searched):
        _name, report, _calls, oracle = searched
        rows = report["candidates_compared"]
        assert [r["label"] for r in rows] == [r["label"] for r in oracle["candidates_compared"]]
        assert rows[-1]["label"] == "unit_multiplier"
        assert rows[:-1] == oracle["candidates_compared"][:-1]

    def test_unit_row_reuses_the_root_solve(self, searched):
        _name, report, _calls, _oracle = searched
        row = report["candidates_compared"][-1]
        assert row["lam"] == report["lambda_at_unit_multiplier"]
        assert row["theta"] == report["theta"]
        assert row["residual"] == report["residual"]

    def test_each_level_solved_once(self, searched):
        name, report, calls, _oracle = searched
        assert len(set(calls)) == len(calls)
        assert report["solves"] == len(calls)
        assert report["unconverged"] == 0
        if name == "hardy":
            assert 0 < len(calls) <= 4
        else:  # exact transport: nothing is re-minimized
            assert calls == []


def test_unconverged_re_minimizations_counted(hardy_small, monkeypatch):
    v = minimize_on_level(hardy_small, 1.0).minimizer
    # no budget: a warm-started Newton re-minimization converges in one step
    monkeypatch.setattr(maxminpass.constrained, "MAX_ITERS", 0)
    report = pick_solution_scale(hardy_small, v)
    assert 0 < report["unconverged"] <= report["solves"]


class TestFarStart:
    """The Newton search from a start far from the unit-multiplier level."""

    @pytest.mark.parametrize("factor", [1e-4, 1e4])
    def test_converges_from_a_far_guess(self, monkeypatch, factor):
        spec = toy_spec()
        v = minimize_on_level(spec, 1.0).minimizer
        forms = maxminpass.verify.closed_form_lambda_bar

        def far_guess(spec, i_1):
            out = dict(forms(spec, i_1))
            out["derived_argmax"] *= factor
            return out

        monkeypatch.setattr(maxminpass.verify, "closed_form_lambda_bar", far_guess)
        report = pick_solution_scale(spec, v)
        assert report["lambda_at_unit_multiplier"] == pytest.approx(0.25, rel=1e-9)
        assert abs(report["theta"] - 1.0) <= 1e-9


class TestBracket:
    """Multipliers off the scaling law, where the Newton search cannot
    resolve the unit-multiplier level, are rejected."""

    def test_nonpositive_multiplier_rejected(self, monkeypatch):
        # theta crosses 1 but turns negative at larger levels, off the
        # scaling law: the Newton steps move away from the root
        spec = toy_spec()
        v = minimize_on_level(spec, 1.0).minimizer
        real = maxminpass.verify.multiplier_of
        monkeypatch.setattr(
            maxminpass.verify, "multiplier_of", lambda spec, u: 2.0 * real(spec, u) - 1.5
        )
        with pytest.raises(ValidationError, match="unit-multiplier level"):
            pick_solution_scale(spec, v)

    def test_multiplier_off_the_scaling_law_rejected(self, monkeypatch, hardy_small):
        # theta^3 has its root where theta has, but three times the slope in
        # log lambda: each Newton step doubles the distance to the root, so
        # the search stops at its first level, which is not resolved
        v = minimize_on_level(hardy_small, 1.0).minimizer
        real = maxminpass.verify.multiplier_of
        monkeypatch.setattr(maxminpass.verify, "multiplier_of", lambda spec, u: real(spec, u) ** 3)
        with pytest.raises(ValidationError, match="unit-multiplier level"):
            pick_solution_scale(hardy_small, v)

    @pytest.mark.parametrize(
        "bad", [lambda theta: -theta, lambda theta: np.nan], ids=["negative", "nan"]
    )
    def test_undefined_log_multiplier_rejected(self, monkeypatch, bad):
        spec = toy_spec()
        v = minimize_on_level(spec, 1.0).minimizer
        real = maxminpass.verify.multiplier_of
        monkeypatch.setattr(
            maxminpass.verify, "multiplier_of", lambda spec, u: bad(real(spec, u))
        )
        with pytest.raises(ValidationError, match="unit-multiplier level"):
            pick_solution_scale(spec, v)


def test_stops_at_the_noise_floor(monkeypatch, hardy_small):
    # A multiplier known only to 1e-7 relative, a function of the point as a
    # re-minimization's error is: Newton reaches that floor in a few levels
    # and must stop there, on the level closest to theta = 1, rather than
    # wander among levels that cannot sharpen the answer.
    v = minimize_on_level(hardy_small, 1.0).minimizer
    real = maxminpass.verify.multiplier_of

    def noisy(spec, u):
        x = spec.model.unwrap(u)
        return real(spec, u) * (1.0 + 1e-7 * (zlib.crc32(x.tobytes()) / 2.0**32 - 0.5))

    seen = []
    level = maxminpass.verify._theta_at_level

    def recording(*args):
        out = level(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(maxminpass.verify, "multiplier_of", noisy)
    monkeypatch.setattr(maxminpass.verify, "_theta_at_level", recording)
    report = pick_solution_scale(hardy_small, v)
    assert report["solves"] == len(seen) <= 8
    assert report["theta"] == min(seen, key=lambda theta: abs(np.log(theta)))
    assert abs(report["theta"] - 1.0) <= 1e-6


@pytest.mark.parametrize("n,fraction", [(5, 0.99), (3, 0.5), (3, 0.9)])
def test_envelope_matches_oracle(bisect_oracle, n, fraction):
    # near the Hardy constant and at n = 3 the re-minimized multiplier
    # leaves the scaling law furthest; the search still lands within the
    # re-minimizations' noise (~1e-8 in lambda) of the bisection's level
    spec = ProblemSpec(
        variant="hardy-subcritical", p=2.0, n=n, mu=fraction * hardy_constant(2.0, n),
        nonlinearity=NonlinearitySpec(1.0, 8.0 / 3.0),
        grid=build_radial_grid(n, 30.0, 200, 50.0 ** (1.0 / 200)),
    )
    v = minimize_on_level(spec, 1.0).minimizer
    report = pick_solution_scale(spec, v)
    oracle = bisect_oracle(spec, v)
    gtol = spec.model.grad_tol
    assert report["lambda_at_unit_multiplier"] == pytest.approx(
        oracle["lambda_at_unit_multiplier"], rel=1e-6
    )
    assert abs(report["theta"] - 1.0) <= gtol
    assert report["residual"] <= 10.0 * gtol
    assert 0 < report["solves"] <= 8
    assert report["unconverged"] == 0
