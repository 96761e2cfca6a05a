"""Weak-residual verification that scaled minimizers solve the
unconstrained Euler-Lagrange equation with multiplier one.

The unit-multiplier level is found by Brent's method on log theta as a
function of log lambda.  Along the scaling path theta is proportional to
lambda^(alpha-1), so that function is affine up to the re-minimization's
error and the search converges in a few steps; each level it visits is
solved once per call."""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .errors import ValidationError
from .constrained import MinimizeOptions, minimize_on_level, multiplier_and_residual
from .functionals import ProblemSpec, eval_T, grad_T, grad_U, mask, norm
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
    model = spec.model
    theta, _res, _gT, gU, _vec = multiplier_and_residual(model, model.unwrap(u))
    if model.inner(gU, gU) == 0.0:
        raise ValidationError("multiplier undefined where grad U vanishes")
    return theta


def _theta_at_level(spec: ProblemSpec, v, lam: float, opts):
    """Multiplier along the scaling path; where the transport is inexact
    (the dilation, which interpolates) its error would swamp the residual,
    so the transported point is re-minimized at the target level first.
    Returns theta, the point and whether that re-minimization converged
    (True when nothing was re-minimized)."""
    u = scaling_path(spec, v, lam)
    converged = True
    if not spec.model.exact_transport:
        res = minimize_on_level(spec, lam, u, opts)
        u, converged = res.minimizer, res.converged
    return multiplier_of(spec, u), u, converged


def pick_solution_scale(
    spec: ProblemSpec,
    v,
    opts: MinimizeOptions | None = None,
    bisect_tol: float = 1e-10,
) -> dict:
    """Locate the level with unit multiplier along the scaling path of the
    level-1 minimizer v, and tabulate residuals at the printed and derived
    closed-form candidates.

    The multiplier is proportional to lambda^(alpha-1) along the path, with
    alpha < 1, so log theta is affine and decreasing in t = log lambda.  A
    bracket with theta(t_lo) > 1 > theta(t_hi) > 0 is grown by factors of
    16 around the derived argmax, then Brent's method finds the root of
    log theta to ``bisect_tol`` in t.  Its secant steps land on the root of
    an affine function at once, so it takes a few evaluations where a
    bisection takes ~36.  Each level is solved once, and the
    unit-multiplier candidate reuses the root's solve.  The report counts
    the distinct levels re-minimized (``solves``, 0 where the transport is
    exact) and those whose re-minimization did not converge
    (``unconverged``).
    """
    opts = opts or MinimizeOptions()
    i_1 = eval_T(spec, v)
    forms = closed_form_lambda_bar(spec, i_1)
    solved = {}

    def level(lam):
        if lam not in solved:
            solved[lam] = _theta_at_level(spec, v, lam, opts)
        return solved[lam]

    def theta_at(t):
        return level(math.exp(t))[0]

    step = math.log(16.0)
    t_guess = math.log(forms["derived_argmax"])
    t_lo, t_hi = t_guess - step, t_guess + step
    th_lo, th_hi = theta_at(t_lo), theta_at(t_hi)
    if not (th_lo > 1.0 > th_hi > 0.0):
        for _ in range(8):
            if th_lo <= 1.0:
                t_lo -= step
                th_lo = theta_at(t_lo)
            if th_hi >= 1.0:
                t_hi += step
                th_hi = theta_at(t_hi)
            if th_lo > 1.0 > th_hi > 0.0:
                break
        else:
            raise ValidationError("could not bracket the unit-multiplier level")

    t_unit = brentq(lambda t: math.log(theta_at(t)), t_lo, t_hi, xtol=bisect_tol)
    lam_unit = math.exp(t_unit)
    theta_unit, u_unit, _ = level(lam_unit)
    res_unit = el_residual(spec, u_unit)

    # The variant's candidate solution-scale exponents, as amplitude factors
    # lam^expo at the derived level, then the points at the three levels.
    lam = forms["derived_argmax"]
    candidates = []
    for label, expo in spec.model.amplitude_exponents:
        u = lam**expo * v
        candidates.append((label, lam, multiplier_of(spec, u), el_residual(spec, u)))
    for label in ("paper_formula", "derived_argmax"):
        theta, u, _ = level(forms[label])
        candidates.append((label, forms[label], theta, el_residual(spec, u)))
    candidates.append(("unit_multiplier", lam_unit, theta_unit, res_unit))

    return {
        "lambda_at_unit_multiplier": float(lam_unit),
        "theta": float(theta_unit),
        "residual": float(res_unit),
        "minimizer_at_unit_multiplier": u_unit,
        "candidates_compared": [
            {"label": label, "lam": float(lam), "theta": float(theta),
             "residual": float(res)}
            for label, lam, theta, res in candidates
        ],
        "solves": 0 if spec.model.exact_transport else len(solved),
        "unconverged": sum(not ok for _theta, _u, ok in solved.values()),
    }
