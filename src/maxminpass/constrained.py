"""Constrained minimization of T on the level set U(u) = lambda.

Descent on the constraint manifold: the (optionally Sobolev-preconditioned)
gradient of T is projected against the gradient of U, a backtracking line
search decreases T, and every trial point is retracted back onto the level
set along the problem's natural group action (dilation for the whole-space
problem, amplitude for the Dirichlet problem, radial rescaling for the toy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ValidationError
from .functionals import (
    Preconditioner,
    ProblemSpec,
    eval_T,
    eval_U,
    grad_T,
    grad_U,
    inner,
    norm,
)
from .grids import GridFunction, ScalingAction, apply_scaling

__all__ = [
    "MinimizeOptions",
    "MinimizeResult",
    "minimize_on_level",
    "continuation_sweep",
    "retract_to_level",
    "default_seed",
]


@dataclass
class MinimizeOptions:
    max_iters: int = 2000
    grad_tol: float | None = None  # default: 1e-8 toy, 1e-6 PDE
    constraint_tol: float = 1e-10
    step: float = 1.0
    backtrack: float = 0.5
    precondition: bool = True

    def __post_init__(self):
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValidationError("grad_tol must be positive")
        if self.constraint_tol <= 0:
            raise ValidationError("constraint_tol must be positive")
        if not 0 < self.backtrack < 1:
            raise ValidationError("backtrack factor must lie in (0, 1)")

    def resolved_grad_tol(self, spec: ProblemSpec) -> float:
        if self.grad_tol is not None:
            return self.grad_tol
        return 1e-8 if spec.variant == "toy" else 1e-6


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


def retract_to_level(spec: ProblemSpec, u, lam: float, constraint_tol: float = 1e-10):
    """Project u onto {U = lam} along the problem's exact group action."""
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    if spec.variant == "toy":
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u)
        if r == 0.0:
            raise InfeasibleError("cannot rescale the zero vector onto the level")
        return u * (lam ** (1.0 / spec.toy.q) / r)
    if spec.variant == "critical-bounded":
        Uv = eval_U(spec, u)
        if Uv <= 0.0:
            raise InfeasibleError("seed has U <= 0; amplitude scaling cannot reach the level")
        return u * (lam / Uv) ** (1.0 / spec.pstar)
    # hardy-subcritical: scale the amplitude so that U(a u) = lam.  This is
    # exact on the grid (no resampling), unlike a dilation, whose
    # interpolation error would put a noise floor under the line search.
    # U(a u) tends to 0 from below as a -> 0 and to +inf as a -> inf, so a
    # root exists for every nonzero u and positive lam.  The root search runs
    # on the closed form of a -> U(a u); the result is checked on the grid.
    from scipy.optimize import brentq

    if norm(spec, u) == 0.0:
        raise InfeasibleError("cannot scale the zero function onto the level")
    U_of = spec.nonlinearity.amplitude_integral(spec.grid.weights, u.values)

    def gap(a):
        return U_of(a) - lam

    hi = 1.0
    for _ in range(200):
        if gap(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise InfeasibleError("amplitude scaling could not reach the level")
    lo = hi / 2.0
    while gap(lo) > 0.0:
        lo /= 2.0
        if lo < 1e-200:
            raise InfeasibleError("amplitude scaling could not bracket the level")
    a = brentq(gap, lo, hi, xtol=1e-300, rtol=8.9e-16)
    v = a * u
    err = eval_U(spec, v) - lam
    if abs(err) > constraint_tol * lam:
        # When lam is tiny against either term of U, the closed form and the
        # grid sum cancel differently by more than the tolerance; one Newton
        # step on the grid value, d/da U(a u) = <g(a u), u>, closes the gap.
        a -= err / inner(spec, grad_U(spec, v), u)
        v = a * u
        err = eval_U(spec, v) - lam
    if abs(err) > constraint_tol * lam:
        raise InfeasibleError("amplitude retraction did not reach the level")
    return v


def default_seed(spec: ProblemSpec, lam: float, width: float | None = None):
    """A positive bump with U > 0, ready to be retracted onto the level."""
    if spec.variant == "toy":
        u = np.zeros(spec.toy.d)
        u[0] = 1.0
        return retract_to_level(spec, u, lam)
    r = spec.grid.nodes
    if spec.variant == "critical-bounded":
        vals = np.maximum(1.0 - (r / spec.grid.R) ** 2, 0.0)
        vals[-1] = 0.0
        return retract_to_level(spec, GridFunction(spec.grid, vals), lam)
    w = width if width is not None else spec.grid.R / 15.0
    prof = np.exp(-((r / w) ** 2))
    for a in np.logspace(-1.0, 4.0, 120):
        u = GridFunction(spec.grid, a * prof)
        if eval_U(spec, u) > 0.0:
            return retract_to_level(spec, 1.5 * u, lam)
    raise InfeasibleError("could not find a bump amplitude with U > 0")


def _masked(spec: ProblemSpec, g):
    """Zero the boundary component of a gradient for Dirichlet problems."""
    if spec.variant == "toy" or not spec.dirichlet:
        return g
    vals = g.values.copy()
    vals[-1] = 0.0
    return GridFunction(spec.grid, vals)


def multiplier_and_residual(spec: ProblemSpec, u):
    """Least-squares multiplier theta and the relative projected residual
    ||grad T - theta grad U|| / (1 + ||grad T||) in the weighted norm."""
    gT = _masked(spec, grad_T(spec, u))
    gU = _masked(spec, grad_U(spec, u))
    gU2 = inner(spec, gU, gU)
    theta = inner(spec, gT, gU) / gU2 if gU2 > 0 else 0.0
    res_vec = gT - theta * gU
    res = norm(spec, res_vec) / (1.0 + norm(spec, gT))
    return theta, res, gT, gU, res_vec


def minimize_on_level(
    spec: ProblemSpec,
    lam: float,
    u0=None,
    opts: MinimizeOptions | None = None,
) -> MinimizeResult:
    """Minimize T over {U = lam} from the seed u0 (default bump)."""
    opts = opts or MinimizeOptions()
    gtol = opts.resolved_grad_tol(spec)
    if u0 is None:
        u0 = default_seed(spec, lam)
    u = retract_to_level(spec, u0, lam, opts.constraint_tol)
    T_cur = eval_T(spec, u)
    prec = None
    if spec.variant != "toy" and opts.precondition:
        prec = Preconditioner(spec.grid, dirichlet=spec.dirichlet)

    step = opts.step
    theta, res, gT, gU, res_vec = multiplier_and_residual(spec, u)
    iterations = 0
    converged = res <= gtol
    prev_u = prev_d = None
    while not converged and iterations < opts.max_iters:
        iterations += 1
        if prec is not None:
            pT = prec.apply(gT)
            pU = prec.apply(gU)
        else:
            pT, pU = gT, gU
        denom = inner(spec, pU, gU)
        alpha = inner(spec, pT, gU) / denom if denom != 0 else 0.0
        d = _masked(spec, pT - alpha * pU)
        # Barzilai-Borwein secant step, safeguarded by the monotone line
        # search below; plain unit steps give an impractically slow tail.
        if prev_u is not None:
            s = u - prev_u
            y = d - prev_d
            sy = inner(spec, s, y)
            if sy > 0:
                step = min(max(inner(spec, s, s) / sy, 1e-10), 1e6)
        slope = max(inner(spec, d, res_vec), 0.0)

        accepted = False
        t = step
        for _ in range(60):
            try:
                ut = retract_to_level(spec, u - t * d, lam, opts.constraint_tol)
            except InfeasibleError:
                t *= opts.backtrack
                continue
            Tt = eval_T(spec, ut)
            if Tt <= T_cur - 1e-4 * t * slope + 1e-14 * (1.0 + abs(T_cur)):
                accepted = True
                break
            t *= opts.backtrack
        if not accepted:
            break
        prev_u, prev_d = u, d
        u, T_cur = ut, Tt
        step = t / opts.backtrack
        theta, res, gT, gU, res_vec = multiplier_and_residual(spec, u)
        converged = res <= gtol

    return MinimizeResult(
        lam=lam,
        i_value=T_cur,
        minimizer=u,
        multiplier=theta,
        iterations=iterations,
        converged=bool(converged),
        residual=res,
    )


def continuation_sweep(
    spec: ProblemSpec,
    lambdas,
    opts: MinimizeOptions | None = None,
    u0=None,
) -> list[MinimizeResult]:
    """Solve a whole increasing lambda sweep, warm-starting each level with
    the previous minimizer rescaled by the group action.  Failures are
    recorded as non-converged entries and the sweep continues."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or np.any(lambdas <= 0) or np.any(np.diff(lambdas) <= 0):
        raise ValidationError("lambdas must be positive and strictly increasing")
    results: list[MinimizeResult] = []
    prev = None
    for lam in lambdas:
        if prev is not None and prev.minimizer is not None:
            seed = prev.minimizer
            if spec.variant == "hardy-subcritical":
                # Transport along the dilation, which maps minimizers at one
                # level near the minimizers at the next.
                beta = (lam / prev.lam) ** (1.0 / spec.n)
                seed = apply_scaling(seed, ScalingAction("dilation", beta))
        else:
            seed = u0
        try:
            r = minimize_on_level(spec, float(lam), seed, opts)
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
        if prev is not None and prev.minimizer is not None and r.minimizer is not None:
            r.warm_distance = norm(spec, r.minimizer - prev.minimizer)
        if r.minimizer is not None:
            prev = r
        results.append(r)
    return results
