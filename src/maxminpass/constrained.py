"""Constrained minimization of T on the level set U(u) = lambda.

Newton's method with a retraction (Nocedal & Wright, Numerical Optimization,
ch. 18; Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
Manifolds, ch. 6).  With theta the least-squares multiplier, r the residual
and H the tridiagonal Hessian of T - theta U, one factor of H gives H z1 = r,
H z2 = grad U and the tangent step s = -z1 + (grad U . z1 / grad U . z2) z2.
It is taken where the reduced Hessian is positive definite (by Sylvester and
Haynsworth: H has no negative pivot, or one and grad U . z2 < 0) and r . s <
0; elsewhere, and on the toy, the step is the variant's preconditioned
gradient of T projected against grad U.  A backtracking line search from
the unit step decreases T, retracting each trial point onto the level set.

Arrays inside, points at the edges: ``minimize_on_level`` checks and
unwraps its seed once, runs the descent on ndarrays through the variant's
array methods, and wraps only the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .functionals import ProblemSpec, eval_U, norm  # noqa: F401 (eval_U: traced binding)
from .functionals import factor_tridiagonal, solve_tridiagonal

__all__ = [
    "MinimizeResult",
    "minimize_on_level",
    "continuation_sweep",
    "retract_to_level",
    "default_seed",
]


MAX_ITERS = 2000  # Newton or gradient steps per solve
BACKTRACK = 0.5  # line-search contraction of the trial step


@dataclass
class MinimizeResult:
    lam: float
    i_value: float
    minimizer: object
    multiplier: float
    iterations: int
    converged: bool
    residual: float
    warm_distance: float | None = None


def retract_to_level(spec: ProblemSpec, u, lam: float):
    """Project u onto {U = lam} along the problem's exact group action."""
    if not 0 < lam < math.inf:
        raise ValidationError("lambda must be positive and finite")
    model = spec.model
    return model.wrap(model.retract(model.unwrap(u), lam))


def default_seed(spec: ProblemSpec, lam: float, width: float | None = None):
    """A positive bump with U > 0, retracted onto the level."""
    return retract_to_level(spec, spec.model.seed(width), lam)


def multiplier_and_residual(model, x):
    """On the array x: least-squares multiplier theta and the relative
    projected residual ||grad T - theta grad U|| / (1 + ||grad T||) in the
    weighted norm, with the masked gradients and the residual vector."""
    gT = model.mask(model.grad_T(x))
    gU = model.mask(model.grad_U(x))
    gU2 = model.inner(gU, gU)
    theta = float(model.inner(gT, gU) / gU2) if gU2 > 0 else 0.0
    res_vec = gT - theta * gU
    res = math.sqrt(max(model.inner(res_vec, res_vec), 0.0))
    res /= 1.0 + math.sqrt(max(model.inner(gT, gT), 0.0))
    return theta, res, gT, gU, res_vec


def newton_direction(model, x, theta, gU, res_vec):
    """-s for the Newton-KKT step s at the array x, or None where the guard
    refuses it; ``gU`` and ``res_vec`` are weighted, H takes W times them."""
    bands = model.hessian(x, theta)
    factor = None if bands is None else factor_tridiagonal(*bands)
    if factor is None:
        return None
    z1, z2 = solve_tridiagonal(factor, model.grid.weights * np.stack((res_vec, gU)))
    uz2 = model.inner(gU, z2)
    if not (uz2 < 0.0 if factor[2] else uz2 > 0.0):
        return None
    d = z1 - model.inner(gU, z1) / uz2 * z2
    return d if model.inner(res_vec, d) > 0.0 else None


def minimize_on_level(spec: ProblemSpec, lam: float, u0=None) -> MinimizeResult:
    """Minimize T over {U = lam} from the seed u0 (default bump), taken as 0
    on a Dirichlet boundary, to the variant's ``grad_tol`` within
    ``MAX_ITERS`` steps.  Raises ValidationError for a seed with a non-finite
    value."""
    if not 0 < lam < math.inf:
        raise ValidationError("lambda must be positive and finite")
    model = spec.model
    x = model.unwrap(default_seed(spec, lam) if u0 is None else u0)
    if not np.all(np.isfinite(x)):
        raise ValidationError("seed values must be finite")
    # The descent direction is 0 on the Dirichlet boundary and the retraction
    # only rescales, so the seed's boundary value is set here, once.
    x = model.retract(model.mask(x), lam)
    T_cur = float(model.T(x))

    theta, res, gT, gU, res_vec = multiplier_and_residual(model, x)
    iterations = 0
    converged = res <= model.grad_tol
    while not converged and iterations < MAX_ITERS:
        iterations += 1
        d = newton_direction(model, x, theta, gU, res_vec)
        if d is None:
            pT = model.precondition(gT)
            pU = model.precondition(gU)
            denom = model.inner(pU, gU)
            alpha = model.inner(pT, gU) / denom if denom != 0 else 0.0
            d = pT - alpha * pU
        slope = max(float(model.inner(d, res_vec)), 0.0)

        accepted = False
        t = 1.0
        for _ in range(60):
            try:
                xt = model.retract(x - t * d, lam)
            except InfeasibleError:
                t *= BACKTRACK
                continue
            Tt = float(model.T(xt))
            if Tt <= T_cur - 1e-4 * t * slope + 1e-14 * (1.0 + abs(T_cur)):
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break
        x, T_cur = xt, Tt
        theta, res, gT, gU, res_vec = multiplier_and_residual(model, x)
        converged = res <= model.grad_tol

    return MinimizeResult(
        lam=lam,
        i_value=T_cur,
        minimizer=model.wrap(x),
        multiplier=theta,
        iterations=iterations,
        converged=bool(converged),
        residual=res,
    )


def continuation_sweep(spec: ProblemSpec, lambdas, u0=None) -> list[MinimizeResult]:
    """Solve a whole increasing lambda sweep, warm-starting each level with
    the previous minimizer transported along the group action.  Failures are
    recorded as non-converged entries and the sweep continues."""
    lambdas = np.asarray(lambdas, dtype=float)
    ok = lambdas.ndim == 1 and np.all(np.isfinite(lambdas) & (lambdas > 0))
    if not ok or np.any(np.diff(lambdas) <= 0):
        raise ValidationError("lambdas must be positive, finite and strictly increasing")
    results: list[MinimizeResult] = []
    prev = None
    for lam in lambdas:
        seed = u0 if prev is None else spec.model.transport(prev.minimizer, lam / prev.lam)
        try:
            r = minimize_on_level(spec, float(lam), seed)
        except InfeasibleError:
            r = MinimizeResult(
                lam=float(lam),
                i_value=math.nan,
                minimizer=None,
                multiplier=math.nan,
                iterations=0,
                converged=False,
                residual=math.inf,
            )
        if r.minimizer is not None:
            if prev is not None:
                r.warm_distance = norm(spec, r.minimizer - prev.minimizer)
            prev = r
        results.append(r)
    return results
