"""Closed-form toy problem: oracles, brute-force scan, limits."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminpass import (
    ToyProblem,
    ValidationError,
    toy_c_bruteforce,
    toy_closed_form,
    toy_i_lambda,
)


class TestToyILambda:
    def test_q4_level_one(self):
        assert toy_i_lambda(ToyProblem(2, 4.0), 1.0) == pytest.approx(1.0)

    def test_q4_level_quarter(self):
        assert toy_i_lambda(ToyProblem(2, 4.0), 0.25) == pytest.approx(0.5)

    def test_vanishes_at_zero(self):
        prob = ToyProblem(3, 3.0)
        for lam in (1e-2, 1e-6, 1e-12):
            assert 0 < toy_i_lambda(prob, lam) < 10 * lam ** (2.0 / 3.0)
        assert toy_i_lambda(prob, 0.0) == 0.0

    def test_rejects_negative_level(self):
        with pytest.raises(ValidationError):
            toy_i_lambda(ToyProblem(2, 4.0), -1.0)

    @given(lam=st.floats(1e-6, 1e3), q=st.floats(2.1, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_power_law(self, lam, q):
        prob = ToyProblem(2, q)
        assert toy_i_lambda(prob, lam) == pytest.approx(lam ** (2.0 / q), rel=1e-12)


class TestToyClosedForm:
    def test_q4(self):
        cf = toy_closed_form(ToyProblem(2, 4.0))
        assert cf["lambda_star"] == pytest.approx(1.0)
        assert cf["lambda_star_star"] == pytest.approx(1.0)
        assert cf["lambda_bar"] == pytest.approx(0.25)
        assert cf["c"] == pytest.approx(0.25)

    def test_q3(self):
        cf = toy_closed_form(ToyProblem(2, 3.0))
        assert cf["lambda_bar"] == pytest.approx(8.0 / 27.0)
        assert cf["c"] == pytest.approx(4.0 / 27.0)

    def test_c_vanishes_as_q_approaches_two(self):
        c_21 = toy_closed_form(ToyProblem(2, 2.1))["c"]
        c_201 = toy_closed_form(ToyProblem(2, 2.01))["c"]
        assert c_201 < c_21 < 0.05

    def test_rejects_subquadratic_growth(self):
        with pytest.raises(ValidationError):
            ToyProblem(2, 2.0)
        with pytest.raises(ValidationError):
            ToyProblem(0, 4.0)

    @given(q=st.floats(2.05, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_internal_consistency(self, q):
        # c must equal I evaluated at the argmax, and the argmax must be a
        # true maximum against nearby levels
        cf = toy_closed_form(ToyProblem(2, q))
        lb = cf["lambda_bar"]
        I = lambda lam: toy_i_lambda(ToyProblem(2, q), lam) - lam
        assert cf["c"] == pytest.approx(I(lb), rel=1e-10)
        assert I(lb) >= I(lb * 1.01) - 1e-12
        assert I(lb) >= I(lb * 0.99) - 1e-12


class TestToyBruteforce:
    def test_q4(self):
        assert toy_c_bruteforce(ToyProblem(2, 4.0)) == pytest.approx(0.25, abs=1e-8)

    def test_q3(self):
        assert toy_c_bruteforce(ToyProblem(2, 3.0)) == pytest.approx(
            4.0 / 27.0, abs=1e-8
        )

    @pytest.mark.parametrize("q", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0])
    def test_cross_oracle_agreement(self, q):
        prob = ToyProblem(2, q)
        assert toy_c_bruteforce(prob) == pytest.approx(
            toy_closed_form(prob)["c"], abs=1e-10
        )
