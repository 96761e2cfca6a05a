"""Weak-residual verification that scaled minimizers solve the
unconstrained Euler-Lagrange equation with multiplier one."""

from __future__ import annotations

import math

from .errors import ValidationError
from .constrained import MinimizeOptions, minimize_on_level, multiplier_and_residual
from .functionals import ProblemSpec, eval_T, grad_T, grad_U, inner, mask, norm
from .levelcurve import closed_form_lambda_bar, scaling_path

__all__ = ["el_residual", "multiplier_of", "pick_solution_scale"]


def el_residual(spec: ProblemSpec, u) -> float:
    """Relative weak residual ||grad T - grad U|| / (1 + ||grad T||) of
    F'(u) = 0 in the quadrature-weighted pairing."""
    gT = grad_T(spec, u)
    gU = grad_U(spec, u)
    return norm(spec, mask(spec, gT - gU)) / (1.0 + norm(spec, gT))


def multiplier_of(spec: ProblemSpec, u) -> float:
    """Least-squares scalar theta minimizing ||grad T - theta grad U||."""
    gU = grad_U(spec, u)
    if inner(spec, gU, gU) == 0.0:
        raise ValidationError("multiplier undefined where grad U vanishes")
    theta, _res, _gT, _gU, _vec = multiplier_and_residual(spec, u)
    return theta


def _theta_at_level(spec: ProblemSpec, v, lam: float, opts):
    """Multiplier along the scaling path; where the transport is inexact
    (the dilation, which interpolates) its error would swamp the residual,
    so the transported point is re-minimized at the target level first."""
    u = scaling_path(spec, v, lam)
    if not spec.model.exact_transport:
        res = minimize_on_level(spec, lam, u, opts)
        u = res.minimizer
    return multiplier_of(spec, u), u


def pick_solution_scale(
    spec: ProblemSpec,
    v,
    opts: MinimizeOptions | None = None,
    bisect_tol: float = 1e-10,
) -> dict:
    """Locate the level with unit multiplier along the scaling path of the
    level-1 minimizer v, and tabulate residuals at the printed and derived
    closed-form candidates.

    The multiplier decreases along the path (theta is proportional to
    lambda^(alpha-1) with alpha < 1), so a log-bisection brackets theta = 1.
    """
    opts = opts or MinimizeOptions()
    i_1 = eval_T(spec, v)
    forms = closed_form_lambda_bar(spec, i_1)
    guess = forms["derived_argmax"]

    lo, hi = guess / 16.0, guess * 16.0
    th_lo, _ = _theta_at_level(spec, v, lo, opts)
    th_hi, _ = _theta_at_level(spec, v, hi, opts)
    if not (th_lo > 1.0 > th_hi):
        for _ in range(8):
            if th_lo <= 1.0:
                lo /= 16.0
                th_lo, _ = _theta_at_level(spec, v, lo, opts)
            if th_hi >= 1.0:
                hi *= 16.0
                th_hi, _ = _theta_at_level(spec, v, hi, opts)
            if th_lo > 1.0 > th_hi:
                break
        else:
            raise ValidationError("could not bracket the unit-multiplier level")

    a, b = math.log(lo), math.log(hi)
    while b - a > bisect_tol:
        mid = 0.5 * (a + b)
        th, _ = _theta_at_level(spec, v, math.exp(mid), opts)
        if th > 1.0:
            a = mid
        else:
            b = mid
    lam_unit = math.exp(0.5 * (a + b))
    theta_unit, u_unit = _theta_at_level(spec, v, lam_unit, opts)
    res_unit = el_residual(spec, u_unit)

    # The variant's candidate solution-scale exponents, as amplitude factors
    # lam^expo at the derived level, then the points at the three levels.
    lam = forms["derived_argmax"]
    points = []
    for label, expo in spec.model.amplitude_exponents:
        u = lam**expo * v
        points.append((label, lam, multiplier_of(spec, u), u))
    for label, lam in (
        ("paper_formula", forms["paper_formula"]),
        ("derived_argmax", forms["derived_argmax"]),
        ("unit_multiplier", lam_unit),
    ):
        points.append((label, lam, *_theta_at_level(spec, v, lam, opts)))
    candidates = [
        {"label": label, "lam": float(lam), "theta": float(theta),
         "residual": float(el_residual(spec, u))}
        for label, lam, theta, u in points
    ]

    return {
        "lambda_at_unit_multiplier": float(lam_unit),
        "theta": float(theta_unit),
        "residual": float(res_unit),
        "minimizer_at_unit_multiplier": u_unit,
        "candidates_compared": candidates,
    }
