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

One evaluation per iterate: a trial point costs its retraction and T
(the variant's ``at_level``); an accepted one becomes an ``Iterate`` record
(``iterate``) built from the trial's intermediates, and the multiplier,
the residual and the Hessian all read from that record.  The checks stay
whole: the retraction's check on the grid sum of U, the inertia guard, the
Armijo test and ``grad_tol``.

Arrays inside, points at the edges: ``minimize_on_level`` checks and
unwraps its seed once, runs the descent (``descend``) from the seed's record
(``seed_record``), and wraps only the result, with its last record;
``continuation_sweep`` starts from a seed or a solved result and carries
the last solved level's last record to the next level (the variant's
``carry_record``) and solves there, wrapping each result.  Where
the group action is exact (critical, toy) T, the multiplier and the
residual of the carried point follow from the solved level's by
homogeneity, so a level whose residual is then within ``grad_tol`` is read
off in closed form (``_scaled_level``), one scaled array and no record; a
level above it is carried, descended and becomes the solved level.  The
sweep evaluates on the grid only a seeded first level and its Newton steps.
``level_curve``'s refinements carry the nearest level's record.
``descend`` also computes the first Dirichlet eigenvalue on a Rayleigh
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ValidationError
from .functionals import Iterate, ProblemSpec, eval_U  # noqa: F401 (eval_U: traced binding)
from .functionals import factor_tridiagonal, solve_tridiagonal
from .levelcurve import LevelCurve, build_level_curve

__all__ = [
    "MinimizeResult",
    "minimize_on_level",
    "continuation_sweep",
    "level_curve",
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
    # (level, Iterate) that ``carry_record`` carries the result from, the solved
    # level's for a level read off in closed form; None for a failed solve.  Never serialized.
    record: tuple | None = field(default=None, repr=False, compare=False)


def _check_level(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ValidationError("lambda must be positive and finite")


def retract_to_level(spec: ProblemSpec, u, lam: float):
    """Project u onto {U = lam} along the problem's exact group action."""
    _check_level(lam)
    model = spec.model
    return model.wrap(model.retract(model.unwrap(u), lam))


def default_seed(spec: ProblemSpec, lam: float, width: float | None = None):
    """A positive bump with U > 0, retracted onto the level.  Without a
    width, Hardy's bump is dilated to the level's own scale
    (``Hardy.seed_width``)."""
    _check_level(lam)
    model = spec.model
    return retract_to_level(spec, model.seed(model.seed_width(lam) if width is None else width), lam)


def multiplier_and_residual(model, it: Iterate):
    """At the record ``it``: least-squares multiplier theta, the relative
    projected residual ||grad T - theta grad U|| / (1 + ||grad T||) in the
    weighted norm, and the residual vector."""
    gT, gU = it.gT, it.gU
    wgU = model.weights * gU
    gU2 = gU @ wgU
    theta = float(gT @ wgU / gU2) if gU2 > 0 else 0.0
    res_vec = gT - theta * gU
    res = math.sqrt(max(model.inner(res_vec, res_vec), 0.0))
    res /= 1.0 + math.sqrt(max(model.inner(gT, gT), 0.0))
    return theta, res, res_vec


def newton_direction(model, it: Iterate, theta, res_vec):
    """(-s, its slope <-s, res_vec>) for the Newton-KKT step s at the record
    ``it``, or None where the guard refuses it; ``it.gU`` and ``res_vec``
    are weighted, H takes W times them."""
    bands = model.bands(it, theta)
    factor = None if bands is None else factor_tridiagonal(*bands)
    if factor is None:
        return None
    w = model.weights
    rhs = np.empty((2, len(res_vec)))
    np.multiply(w, res_vec, out=rhs[0])
    np.multiply(w, it.gU, out=rhs[1])
    z = solve_tridiagonal(factor, rhs)
    uz1, uz2 = z @ rhs[1]  # <gU, z1>, <gU, z2>
    if not (uz2 < 0.0 if factor[2] else uz2 > 0.0):
        return None
    d = z[0] - uz1 / uz2 * z[1]
    slope = float(d @ rhs[0])
    return (d, slope) if slope > 0.0 else None


def minimize_on_level(spec: ProblemSpec, lam: float, u0=None) -> MinimizeResult:
    """Minimize T over {U = lam} from the seed u0 (default bump), taken as 0
    on a Dirichlet boundary, to the variant's ``grad_tol`` within
    ``MAX_ITERS`` steps.  Raises ValidationError for a seed with a non-finite
    value."""
    _check_level(lam)
    model = spec.model
    it = seed_record(model, _seed(spec, lam, u0), lam)
    return _result(model, lam, *descend(model, it, lam))


def _seed(spec: ProblemSpec, lam: float, u0):
    # The default bump at the level's scale, not yet retracted:
    # ``seed_record`` retracts it, once.
    model = spec.model
    x = model.unwrap(model.seed(model.seed_width(lam)) if u0 is None else u0)
    if not np.all(np.isfinite(x)):
        raise ValidationError("seed values must be finite")
    return x


def _result(model, lam, it: Iterate, theta, res, iterations, converged) -> MinimizeResult:
    return MinimizeResult(
        lam=lam,
        i_value=it.T,
        minimizer=model.wrap(it.x),
        multiplier=theta,
        iterations=iterations,
        converged=converged,
        residual=res,
        # where the action is not exact ``carry_record`` reads x alone: keep no gradients
        record=(lam, it if model.exact_transport else Iterate(it.x, it.T, None, None, None, None, None)),
    )


def seed_record(model, x, lam: float) -> Iterate:
    """The record (``iterate``) of the array x retracted onto {U = lam}
    (``at_level``), where the descent starts.  The descent direction is 0 on
    the Dirichlet boundary and the retraction only rescales, so the seed's
    boundary value is set here, once."""
    return model.iterate(*model.at_level(model.mask(x), lam))


def descend(model, it: Iterate, lam: float):
    """``minimize_on_level``'s descent for the variant ``model`` from the
    record ``it`` of a point on {U = lam}: (the last record, multiplier,
    residual, iterations, converged).  Each trial point is retracted and its
    T evaluated (``at_level``); each accepted one becomes the record
    (``iterate``) that the multiplier, the residual and the Newton step
    read, built from the intermediates the trial left."""
    theta, res, res_vec = multiplier_and_residual(model, it)
    iterations = 0
    converged = res <= model.grad_tol
    while not converged and iterations < MAX_ITERS:
        iterations += 1
        step = newton_direction(model, it, theta, res_vec)
        if step is None:
            pT = model.precondition(it.gT)
            pU = model.precondition(it.gU)
            denom = model.inner(pU, it.gU)
            alpha = model.inner(pT, it.gU) / denom if denom != 0 else 0.0
            d = pT - alpha * pU
            slope = max(float(model.inner(d, res_vec)), 0.0)
        else:
            d, slope = step

        accepted = False
        t = 1.0
        T_cur = it.T
        for _ in range(60):
            try:
                trial = model.at_level(it.x - t * d, lam)
            except InfeasibleError:
                t *= BACKTRACK
                continue
            if trial[1] <= T_cur - 1e-4 * t * slope + 1e-14 * (1.0 + abs(T_cur)):
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break
        it = model.iterate(*trial)
        theta, res, res_vec = multiplier_and_residual(model, it)
        converged = res <= model.grad_tol
    return it, theta, res, iterations, bool(converged)


def continuation_sweep(spec: ProblemSpec, lambdas, u0=None) -> list[MinimizeResult]:
    """Solve a whole increasing lambda sweep, warm-starting each level from
    the last solved level's last record carried along the group action
    (``carry_record``).  Where that action is exact (``exact_transport``), a
    level the carried point already solves is read off the last solved level
    in closed form (``_scaled_level``) and builds no record.  Failures are
    recorded as non-converged entries and the sweep continues.  The solves
    run on records; only each result is wrapped.  u0 is a seed point or a
    solved ``MinimizeResult``: at the first level that result is the first
    row (0 iterations), elsewhere its minimizer is the seed."""
    lambdas = np.asarray(lambdas, dtype=float)
    ok = lambdas.ndim == 1 and np.all(np.isfinite(lambdas) & (lambdas > 0))
    if not ok or np.any(np.diff(lambdas) <= 0):
        raise ValidationError("lambdas must be positive, finite and strictly increasing")
    model = spec.model
    results: list[MinimizeResult] = []
    prev = None  # (level, last record) of the last solved level
    base = None  # and its closed-form scaling data, where the action is exact
    start = None  # a result solved at the first level
    if isinstance(u0, MinimizeResult):
        start, u0 = (u0 if u0.record and u0.record[0] == u0.lam == lambdas[0] else None), u0.minimizer
    for lam in map(float, lambdas):
        r = None if base is None else _scaled_level(model, *base, lam)
        if r is not None:
            results.append(r)
            continue
        try:
            if prev is None and start is not None:  # the first level's row, 0 steps
                model.unwrap(start.minimizer)  # GridMismatchError for another grid's result
                out = start.record[1], start.multiplier, start.residual, 0, start.converged
            elif prev is None:
                out = descend(model, seed_record(model, _seed(spec, lam, u0), lam), lam)
            else:
                out = descend(model, model.carry_record(prev[1], prev[0], lam), lam)
        except InfeasibleError:
            r = MinimizeResult(
                lam=lam,
                i_value=math.nan,
                minimizer=None,
                multiplier=math.nan,
                iterations=0,
                converged=False,
                residual=math.inf,
            )
        else:
            r = _result(model, lam, *out)
            it, theta, res = out[:3]
            prev = lam, it
            if model.exact_transport:
                n_g = math.sqrt(max(model.inner(it.gT, it.gT), 0.0))
                base = lam, it, theta, res * (1.0 + n_g), n_g
        results.append(r)
    return results


def _scaled_level(model, lam_b: float, it: Iterate, theta: float, n_r: float, n_g: float, lam: float):
    """The result at lam of the point carried from the solved level lam_b,
    from its last record ``it``, its multiplier theta and the weighted norms
    n_r of its residual vector and n_g of grad T, where U is exactly
    r-homogeneous (``U_degree``) and T p-homogeneous: the carried point s x,
    s = (lam / lam_b)^(1/r), has T s^p T(x) and multiplier s^(p-r) theta,
    and grad T and the residual vector scale by s^(p-1).  So the relative
    residual that ``descend`` tests at 0 steps is s^(p-1) n_r / (1 + s^(p-1)
    n_g).  None where it is above ``grad_tol``: the level is then solved."""
    p, r = model.p, model.U_degree
    s = (lam / lam_b) ** (1.0 / r)
    g = s ** (p - 1.0)
    res = g * n_r / (1.0 + g * n_g)
    if not res <= model.grad_tol:
        return None
    return MinimizeResult(lam, it.T * s**p, model.wrap(it.x * s), theta * s ** (p - r), 0, True, res,
                          record=(lam_b, it))


def level_curve(spec: ProblemSpec, sweep) -> tuple[LevelCurve, list[MinimizeResult]]:
    """The level curve of a sweep's solved levels (``build_level_curve``) and
    its refinement solves, in query order.  Each carries the record of the
    level nearest in log lambda (``carry_record``) and descends there."""
    model = spec.model
    good = [r for r in sweep if r.record is not None and math.isfinite(r.i_value)]
    keys = np.log([r.lam for r in good])
    refined: list[MinimizeResult] = []

    def i_fn(lam: float) -> float:
        lam_r, it = good[int(np.argmin(np.abs(keys - np.log(lam))))].record
        refined.append(_result(model, lam, *descend(model, model.carry_record(it, lam_r, lam), lam)))
        return refined[-1].i_value

    return build_level_curve([(r.lam, r.i_value) for r in good], i_fn), refined
