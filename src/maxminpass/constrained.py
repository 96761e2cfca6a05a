"""Constrained minimization of T on the level set U(u) = lambda.

Descent on the constraint manifold: the gradient of T, preconditioned by
the variant (Sobolev for the PDE variants), is projected against the
gradient of U, a backtracking line search decreases T, and every trial
point is retracted back onto the level set by the variant's ``retract``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .functionals import ProblemSpec, eval_T, eval_U, grad_T, grad_U, inner, norm

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
    grad_tol: float | None = None  # default: the variant's grad_tol
    constraint_tol: float = 1e-10
    step: float = 1.0
    backtrack: float = 0.5

    def __post_init__(self):
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValidationError("grad_tol must be positive")
        if self.constraint_tol <= 0:
            raise ValidationError("constraint_tol must be positive")
        if not 0 < self.backtrack < 1:
            raise ValidationError("backtrack factor must lie in (0, 1)")

    def resolved_grad_tol(self, spec: ProblemSpec) -> float:
        return self.grad_tol if self.grad_tol is not None else spec.model.grad_tol


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
    return spec.model.retract(u, lam, constraint_tol)


def default_seed(spec: ProblemSpec, lam: float, width: float | None = None):
    """A positive bump with U > 0, retracted onto the level."""
    return retract_to_level(spec, spec.model.seed(width), lam)


def multiplier_and_residual(spec: ProblemSpec, u):
    """Least-squares multiplier theta and the relative projected residual
    ||grad T - theta grad U|| / (1 + ||grad T||) in the weighted norm."""
    gT = spec.model.mask(grad_T(spec, u))
    gU = spec.model.mask(grad_U(spec, u))
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

    step = opts.step
    theta, res, gT, gU, res_vec = multiplier_and_residual(spec, u)
    iterations = 0
    converged = res <= gtol
    prev_u = prev_d = None
    while not converged and iterations < opts.max_iters:
        iterations += 1
        pT = spec.model.precondition(gT)
        pU = spec.model.precondition(gU)
        denom = inner(spec, pU, gU)
        alpha = inner(spec, pT, gU) / denom if denom != 0 else 0.0
        d = spec.model.mask(pT - alpha * pU)
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
    the previous minimizer transported along the group action.  Failures are
    recorded as non-converged entries and the sweep continues."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or np.any(lambdas <= 0) or np.any(np.diff(lambdas) <= 0):
        raise ValidationError("lambdas must be positive and strictly increasing")
    results: list[MinimizeResult] = []
    prev = None
    for lam in lambdas:
        seed = u0 if prev is None else spec.model.transport(prev.minimizer, lam / prev.lam)
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
        if r.minimizer is not None:
            if prev is not None:
                r.warm_distance = norm(spec, r.minimizer - prev.minimizer)
            prev = r
        results.append(r)
    return results
