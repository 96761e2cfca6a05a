"""Level curve assembly, thresholds, argmax handling, scaling paths."""

import math

import numpy as np
import pytest

from maxminpass import (
    NonlinearitySpec,
    ProblemSpec,
    ToyProblem,
    ValidationError,
    apply_scaling,
    build_level_curve,
    build_radial_grid,
    closed_form_lambda_bar,
    continuation_sweep,
    eval_F,
    eval_T,
    eval_U,
    minimize_on_level,
    scaling_exponent,
    scaling_path,
    toy_closed_form,
    toy_i_lambda,
)


def toy_spec(q=4.0):
    return ProblemSpec(variant="toy", toy=ToyProblem(2, q))


def toy_curve(q=4.0, scale=1.0):
    """The toy's level curve, refined by ``scale`` times its exact i."""
    prob = ToyProblem(2, q)
    lambdas = np.geomspace(1e-3, 4.0, 200)
    return build_level_curve([(lam, toy_i_lambda(prob, lam)) for lam in lambdas],
                             i_fn=lambda lam: scale * toy_i_lambda(prob, lam))


def unqueried(lam):
    raise AssertionError("no level is refined")


class TestBuildLevelCurve:
    def test_toy_q4_thresholds_and_argmax(self):
        curve = toy_curve()
        assert curve.lambda_star == pytest.approx(1.0, abs=1e-4)
        assert curve.lambda_star_star == pytest.approx(1.0, abs=1e-4)
        assert curve.lambda_bar == pytest.approx(0.25, abs=1e-4)
        assert curve.c_maxmin == pytest.approx(0.25, abs=1e-6)

    def test_refinement_queries_each_level_once(self):
        # a strict crossing: lambda* and lambda** are one root, found once
        prob = ToyProblem(2, 4.0)
        queried = []

        def i_fn(lam):
            queried.append(lam)
            return toy_i_lambda(prob, lam)

        lambdas = np.geomspace(1e-3, 4.0, 200)
        curve = build_level_curve([(lam, toy_i_lambda(prob, lam)) for lam in lambdas], i_fn=i_fn)
        assert len(queried) == len(set(queried))
        assert curve.lambda_star == curve.lambda_star_star
        assert curve.lambda_star == pytest.approx(1.0, rel=1e-12)
        assert curve.lambda_bar == pytest.approx(0.25, rel=1e-6)
        assert curve.c_maxmin == pytest.approx(0.25, rel=1e-12)

    def test_power_law_solves_are_exact(self):
        # log i is affine in log lambda: the crossing's first secant and the
        # argmax's first power-law step land on the closed forms
        prob = ToyProblem(2, 4.0)
        queried = []

        def i_fn(lam):
            queried.append(lam)
            return toy_i_lambda(prob, lam)

        lambdas = np.geomspace(1e-3, 4.0, 200)
        curve = build_level_curve([(lam, toy_i_lambda(prob, lam)) for lam in lambdas], i_fn=i_fn)
        assert len(queried) <= 4
        assert curve.lambda_star == pytest.approx(1.0, rel=1e-14)
        assert curve.lambda_bar == pytest.approx(0.25, rel=1e-14)
        assert curve.c_maxmin == pytest.approx(0.25, rel=1e-14)

    def test_hardy_refinement_takes_few_solves(self, hardy_small):
        # the thresholds and the argmax of a PDE curve in at most 8 warm
        # re-minimizations
        r1 = minimize_on_level(hardy_small, 1.0)
        sweep = continuation_sweep(hardy_small, np.geomspace(1.0, 30000.0, 40), u0=r1.minimizer)
        mins = {r.lam: r.minimizer for r in sweep}
        keys = np.array(sorted(mins))
        queried = []

        def i_fn(lam):
            queried.append(lam)
            k = float(keys[np.argmin(np.abs(np.log(keys / lam)))])
            seed = scaling_path(hardy_small, mins[k], lam / k)
            return minimize_on_level(hardy_small, lam, seed).i_value

        curve = build_level_curve([(r.lam, r.i_value) for r in sweep], i_fn=i_fn)
        assert len(queried) <= 8
        forms = closed_form_lambda_bar(hardy_small, r1.i_value)
        assert curve.lambda_bar == pytest.approx(forms["derived_argmax"], rel=1e-3)
        assert curve.c_maxmin == pytest.approx(max(curve.I_values), rel=1e-3)
        assert curve.c_maxmin >= max(curve.I_values)

    def test_hardy_crossing_stops_at_the_noise_floor(self, hardy_small):
        # on a 25-level sweep the lambda* crossing solves twice, and stops
        # where its next step would be below the re-minimizations' noise (it
        # took four more solves that agreed to 10 digits)
        sweep = continuation_sweep(hardy_small, np.geomspace(1.0, 30000.0, 25))
        mins = {r.lam: r.minimizer for r in sweep}
        keys = np.array(sorted(mins))
        queried = {}

        def i_fn(lam):
            k = float(keys[np.argmin(np.abs(np.log(keys / lam)))])
            seed = scaling_path(hardy_small, mins[k], lam / k)
            queried[lam] = minimize_on_level(hardy_small, lam, seed).i_value
            return queried[lam]

        curve = build_level_curve([(r.lam, r.i_value) for r in sweep], i_fn=i_fn)
        k = int(np.argmax(curve.I_values <= 0))
        lo, hi = keys[k - 1], keys[k]
        crossing = [lam for lam in queried if lo < lam < hi]
        assert len(crossing) == 2
        assert crossing[-1] == curve.lambda_star
        assert abs(queried[curve.lambda_star] / curve.lambda_star - 1.0) <= 1e-12

    def test_identity_I_equals_i_minus_lambda(self):
        curve = toy_curve()
        assert np.array_equal(curve.I_values, curve.i_values - curve.lambdas)

    def test_flat_plateau_midpoint(self):
        # constant I on an interior plateau: argmax_set spans it and
        # lambda_bar is its midpoint
        lambdas = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        I = np.array([0.5, 1.0, 1.0, 1.0, 0.5, -1.0])
        curve = build_level_curve(list(zip(lambdas, I + lambdas)),
                                  i_fn=lambda lam: np.interp(lam, lambdas, I + lambdas))
        assert curve.argmax_set == [1, 2, 3]
        assert curve.lambda_bar == pytest.approx(1.5)
        assert curve.c_maxmin == pytest.approx(1.0)
        # I = 8 - 3 lambda on the last segment: no power law, an exact crossing
        assert curve.lambda_star == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert curve.lambda_star_star == curve.lambda_star

    def test_exact_zero_samples_are_the_thresholds(self):
        # lambda* is the first sample with I == 0 and lambda** the last one
        # before I < 0; with a plateau argmax nothing is refined
        lambdas = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        I = np.array([0.5, 1.0, 1.0, 0.0, 0.0, -1.0])
        curve = build_level_curve(list(zip(lambdas, I + lambdas)), i_fn=unqueried)
        assert curve.lambda_star == 2.0
        assert curve.lambda_star_star == 2.5
        assert curve.argmax_set == [1, 2]
        assert curve.lambda_bar == 1.25

    def test_refinement_never_loses_sampled_max(self):
        # an i_fn below the samples: the refined max is lower than the
        # sampled one, which is kept with its level
        curve = toy_curve(scale=0.9)
        k = int(np.argmax(curve.I_values))
        assert curve.c_maxmin == np.max(curve.I_values)
        assert curve.lambda_bar == curve.lambdas[k]

    def test_widen_sweep_errors(self):
        with pytest.raises(ValidationError, match="smaller lambda"):
            build_level_curve([(2.0, 1.0), (3.0, 1.2), (4.0, 1.3)], i_fn=unqueried)
        with pytest.raises(ValidationError, match="larger lambda"):
            build_level_curve([(0.1, 0.5), (0.2, 0.7), (0.3, 0.8)], i_fn=unqueried)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValidationError):
            build_level_curve([(1.0, 1.0), (2.0, 1.0)], i_fn=unqueried)
        with pytest.raises(ValidationError):
            build_level_curve([(2.0, 1.0), (1.0, 1.0), (3.0, 1.0)], i_fn=unqueried)
        with pytest.raises(ValidationError):
            build_level_curve([(1.0, math.nan), (2.0, 1.0), (3.0, 1.0)], i_fn=unqueried)


class TestScalingExponent:
    def test_values(self, hardy_small, critical_small):
        assert scaling_exponent(toy_spec(4.0)) == pytest.approx(0.5)
        assert scaling_exponent(hardy_small) == pytest.approx(0.6)
        assert scaling_exponent(critical_small) == pytest.approx(0.6)


class TestScalingPath:
    def test_identity_at_level_one(self, hardy_small):
        v = minimize_on_level(hardy_small, 1.0).minimizer
        assert np.array_equal(scaling_path(hardy_small, v, 1.0).values, v.values)

    def test_critical_amplitude_factor(self, critical_small):
        # p* = 10/3: level 32 needs amplitude 32^(3/10) and U scales by 32
        v = minimize_on_level(critical_small, 1.0).minimizer
        u = scaling_path(critical_small, v, 32.0)
        factor = 32.0 ** (3.0 / 10.0)
        assert np.allclose(u.values, factor * v.values, rtol=1e-12)
        assert eval_U(critical_small, u) == pytest.approx(32.0, rel=1e-10)

    def test_hardy_kinetic_scaling_law(self, hardy_small):
        # T along the dilation path scales like lambda^(1 - p/n)
        v = minimize_on_level(hardy_small, 1.0).minimizer
        T1 = eval_T(hardy_small, v)
        for lam in (0.25, 0.5, 2.0, 4.0):
            u = scaling_path(hardy_small, v, lam)
            assert eval_T(hardy_small, u) / T1 == pytest.approx(
                lam**0.6, rel=1e-2
            )

    def test_rejects_nonpositive_level(self, hardy_small):
        v = minimize_on_level(hardy_small, 1.0).minimizer
        with pytest.raises(ValidationError):
            scaling_path(hardy_small, v, 0.0)


class TestFAlongPath:
    def test_vanishes_at_zero_and_negative_past_threshold(self, critical_small):
        r1 = minimize_on_level(critical_small, 1.0)
        alpha = scaling_exponent(critical_small)
        lam_ss = r1.i_value ** (1.0 / (1.0 - alpha))
        lambdas = [1e-8, 1e-4, 0.5 * lam_ss, 2.0 * lam_ss]
        pairs = {lam: eval_F(critical_small, scaling_path(critical_small, r1.minimizer, lam))
                 for lam in lambdas}
        assert 0 < pairs[1e-8] < pairs[1e-4] < 0.1  # F -> 0 along lambda -> 0
        assert pairs[0.5 * lam_ss] > 0
        assert pairs[2.0 * lam_ss] < 0

    def test_max_matches_c_maxmin(self):
        # toy: the sup of F along the scaling path is the max-min value
        spec = toy_spec()
        v = minimize_on_level(spec, 1.0).minimizer
        lambdas = np.geomspace(1e-3, 2.0, 4000)
        sup = max(eval_F(spec, scaling_path(spec, v, lam)) for lam in lambdas)
        assert sup == pytest.approx(toy_curve().c_maxmin, abs=1e-6)


class TestClosedFormLambdaBar:
    def test_critical_forms_agree(self, critical_small):
        # for the amplitude scaling both routes give (0.6 i_1)^2.5
        forms = closed_form_lambda_bar(critical_small, 1.0)
        assert forms["paper_formula"] == pytest.approx(0.6**2.5, rel=1e-12)
        assert forms["derived_argmax"] == pytest.approx(0.6**2.5, rel=1e-12)

    def test_hardy_forms_differ(self):
        # n = 4, p = 2, i_1 = 1: printed value 1, derived argmax (2/4)^2
        grid = build_radial_grid(4, 20.0, 60, 1.05)
        spec = ProblemSpec(
            variant="hardy-subcritical",
            p=2.0,
            n=4,
            mu=0.0,
            nonlinearity=NonlinearitySpec(1.0, 3.0),
            grid=grid,
        )
        forms = closed_form_lambda_bar(spec, 1.0)
        assert forms["paper_formula"] == pytest.approx(1.0)
        assert forms["derived_argmax"] == pytest.approx(0.25)

    def test_derived_argmax_maximizes_sampled_curve(self):
        # the derived form, not the printed one, lands on the numerical argmax
        prob = ToyProblem(2, 4.0)
        curve = toy_curve()
        forms = closed_form_lambda_bar(toy_spec(), 1.0)
        assert forms["derived_argmax"] == pytest.approx(curve.lambda_bar, rel=1e-4)
