"""Weak-residual verification that scaled minimizers solve the
unconstrained Euler-Lagrange equation with multiplier one.

The unit-multiplier level is found by Newton's method on log theta as a
function of log lambda, with the slope alpha - 1 that the scaling law
i(lambda) = lambda^alpha i(1) fixes; each level it visits is solved once
per call."""

from __future__ import annotations

import math

from .errors import ValidationError
from .constrained import minimize_on_level, multiplier_and_residual
from .functionals import ProblemSpec, eval_T
from .levelcurve import closed_form_lambda_bar, scaling_path

__all__ = ["el_residual", "multiplier_of", "pick_solution_scale"]


def el_residual(spec: ProblemSpec, u) -> float:
    """Relative weak residual ||grad T - grad U|| / (1 + ||grad T||) of
    F'(u) = 0 in the quadrature-weighted pairing, the numerator masked."""
    return weighted_residual(spec.model, spec.model.iterate(spec.model.unwrap(u)))[1]


def weighted_residual(model, it):
    """At the record ``it``: the masked weighted gradient of F and ``el_residual``."""
    r = it.gT - it.gU
    res = math.sqrt(max(model.inner(r, r), 0.0))
    return r, res / (1.0 + math.sqrt(max(model.inner(it.gT_full, it.gT_full), 0.0)))


def multiplier_of(spec: ProblemSpec, u) -> float:
    """Least-squares scalar theta minimizing ||grad T - theta grad U||."""
    model = spec.model
    it = model.iterate(model.unwrap(u))
    theta = multiplier_and_residual(model, it)[0]
    if model.inner(it.gU, it.gU) == 0.0:
        raise ValidationError("multiplier undefined where grad U vanishes")
    return theta


def _theta_at_level(spec: ProblemSpec, v, lam: float):
    """Multiplier along the scaling path; where the transport is inexact
    (the dilation, which interpolates) its error would swamp the residual,
    so the transported point is re-minimized at the target level first.
    Returns theta, the point and whether that re-minimization converged
    (True when nothing was re-minimized)."""
    u = scaling_path(spec, v, lam)
    converged = True
    if not spec.model.exact_transport:
        res = minimize_on_level(spec, lam, u)
        u, converged = res.minimizer, res.converged
    return multiplier_of(spec, u), u, converged


def pick_solution_scale(spec: ProblemSpec, v) -> dict:
    """Locate the level with unit multiplier along the scaling path of the
    level-1 minimizer v, and tabulate residuals at the printed and derived
    closed-form candidates.

    Along the path theta is proportional to lambda^(alpha-1), alpha < 1, so
    log theta is affine in t = log lambda with the known slope alpha - 1.
    Newton's method with that slope steps lambda <- lambda theta^(1/(1-alpha))
    from the derived argmax: it lands on the root at once where the transport
    is exact, and gains several digits a step where the level is
    re-minimized.  There theta carries the re-minimization's error, set by
    ``grad_tol``: a noise floor below which log theta no longer follows t.
    So the loop stops at 1e-10 in t, or at the first level no closer to
    theta = 1 than the best so far, which the floor has reached.  A theta
    that is not positive and finite, or a best level farther than
    ``grad_tol`` from the root in t, raises ValidationError.  Each level is
    solved once, and the unit-multiplier candidate reuses the best level's
    solve.  The report counts the distinct levels re-minimized (``solves``,
    0 where the transport is exact) and those whose re-minimization did not
    converge (``unconverged``).
    """
    i_1 = eval_T(spec, v)
    forms = closed_form_lambda_bar(spec, i_1)
    solved = {}

    def level(lam):
        if lam not in solved:
            solved[lam] = _theta_at_level(spec, v, lam)
        return solved[lam]

    slope = 1.0 - spec.model.scaling_exponent
    lam, lam_unit, dist = forms["derived_argmax"], None, math.inf
    for _ in range(16):
        theta = level(lam)[0]
        if not 0.0 < theta < math.inf:
            raise ValidationError(f"no unit-multiplier level: theta = {theta} at {lam}")
        step = math.log(theta) / slope  # Newton step in log lambda
        if abs(step) >= dist:  # no closer than the best: the noise floor
            break
        lam_unit, dist = lam, abs(step)
        if dist <= 1e-10:
            break
        lam *= math.exp(step)
    if dist > spec.model.grad_tol:
        raise ValidationError(f"unit-multiplier level not resolved: {dist:.3g} in log lambda")
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
