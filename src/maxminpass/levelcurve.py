"""Level curve I(lambda) = i(lambda) - lambda and the max-min value.

Builds the sampled curve, locates the thresholds lambda_star (first
nonpositive I) and lambda_star_star (first strictly negative I), the argmax
set, and the max-min value; constructs the scaling path of minimizers and
evaluates F along it; reports the printed and the derived closed-form
argmax side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import ValidationError
from .functionals import ProblemSpec, eval_F

__all__ = [
    "LevelCurve",
    "build_level_curve",
    "scaling_path",
    "evaluate_F_along_path",
    "closed_form_lambda_bar",
    "scaling_exponent",
]

TIE_TOL = 1e-9  # sampled I this close to its max (relative) ties for the argmax


@dataclass
class LevelCurve:
    lambdas: np.ndarray
    i_values: np.ndarray
    I_values: np.ndarray
    lambda_star: float
    lambda_star_star: float
    argmax_set: list[int]
    lambda_bar: float
    c_maxmin: float


def build_level_curve(samples, i_fn) -> LevelCurve:
    """Build the level curve from (lambda, i) samples.

    ``i_fn`` is a callable lambda -> i (a float) that refines the thresholds
    and the argmax beyond the sampled resolution (e.g. the toy closed form or
    a warm-started solver); it is queried at most once per lambda.
    """
    samples = list(samples)
    lambdas = np.asarray([s[0] for s in samples], dtype=float)
    i_values = np.asarray([s[1] for s in samples], dtype=float)
    if lambdas.ndim != 1 or lambdas.size < 3:
        raise ValidationError("need at least three samples")
    if not np.all(np.isfinite(lambdas) & (lambdas > 0)) or np.any(np.diff(lambdas) <= 0):
        raise ValidationError("lambdas must be positive, finite and strictly increasing")
    if not np.all(np.isfinite(i_values)):
        raise ValidationError("i values must be finite")

    I_values = i_values - lambdas
    if I_values[0] <= 0:
        raise ValidationError(
            "first sample already has I <= 0; widen the sweep toward smaller lambda"
        )
    if np.all(I_values >= 0):
        raise ValidationError(
            "no sign change of I in the sampled range; widen the sweep toward larger lambda"
        )

    solved = {}  # on a strict crossing, lambda** reuses lambda*'s solves

    def I_of(lam: float) -> float:
        if lam not in solved:
            solved[lam] = float(i_fn(lam)) - lam
        return solved[lam]

    # First crossing into I <= 0 / I < 0.
    k_nonpos = int(np.argmax(I_values <= 0))
    k_neg = int(np.argmax(I_values < 0))
    lambda_star = _refine_root(I_of, lambdas[k_nonpos - 1], lambdas[k_nonpos])
    if I_values[k_neg] < 0 and I_values[k_neg - 1] > 0:
        lambda_star_star = _refine_root(I_of, lambdas[k_neg - 1], lambdas[k_neg])
    else:
        # Exact-zero plateau between the two thresholds.
        lambda_star_star = float(lambdas[k_neg - 1]) if k_neg > 0 else lambda_star

    inside = lambdas < lambda_star_star
    I_in = np.where(inside, I_values, -np.inf)
    I_max = float(np.max(I_in))
    scale = max(1.0, abs(I_max))
    argmax_set = [int(i) for i in np.flatnonzero(I_in >= I_max - TIE_TOL * scale)]

    if len(argmax_set) > 1:
        # Degenerate plateau: report its midpoint, no refinement.
        lo, hi = lambdas[argmax_set[0]], lambdas[argmax_set[-1]]
        lambda_bar = 0.5 * (lo + hi)
        c_maxmin = I_max
    else:
        k = argmax_set[0]
        lo = lambdas[max(k - 1, 0)]
        hi = min(float(lambdas[min(k + 1, lambdas.size - 1)]), lambda_star_star)
        r = minimize_scalar(
            lambda t: -I_of(math.exp(t)),
            bounds=(math.log(lo), math.log(hi)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        lambda_bar = float(math.exp(r.x))
        c_maxmin = float(-r.fun)
        if I_max > c_maxmin:  # refinement must not lose the sampled max
            lambda_bar, c_maxmin = float(lambdas[k]), I_max

    return LevelCurve(
        lambdas=lambdas,
        i_values=i_values,
        I_values=I_values,
        lambda_star=lambda_star,
        lambda_star_star=lambda_star_star,
        argmax_set=argmax_set,
        lambda_bar=lambda_bar,
        c_maxmin=c_maxmin,
    )


def _refine_root(I_of, lo: float, hi: float) -> float:
    f_lo, f_hi = I_of(lo), I_of(hi)
    if f_lo == 0.0:
        return float(lo)
    if f_hi == 0.0:
        return float(hi)
    if f_lo * f_hi > 0:
        return float(hi) if f_hi <= 0 else float(lo)
    return float(brentq(I_of, lo, hi, xtol=1e-14, rtol=1e-14))


def scaling_exponent(spec: ProblemSpec) -> float:
    """Power alpha in the scaling law i(lambda) = lambda^alpha i(1)."""
    return spec.model.scaling_exponent


def scaling_path(spec: ProblemSpec, v, lam: float):
    """Transport the level-1 minimizer v to the level lam by the group action."""
    if not 0 < lam < math.inf:
        raise ValidationError("lambda must be positive and finite")
    return spec.model.transport(v, lam)


def evaluate_F_along_path(spec: ProblemSpec, v, lambdas) -> list[tuple[float, float]]:
    """F along the scaling path of minimizers, as (lambda, F) pairs."""
    out = []
    for lam in np.asarray(lambdas, dtype=float):
        u = scaling_path(spec, v, float(lam))
        out.append((float(lam), eval_F(spec, u)))
    return out


def closed_form_lambda_bar(spec: ProblemSpec, i_1: float) -> dict:
    """Printed closed-form argmax next to the analytic argmax of the
    scaling law lambda^alpha i_1 - lambda, which is (alpha i_1)^(1/(1-alpha)).

    The two differ for the whole-space problem (the printed formula uses
    the factor (n-p)/p where the calculus gives (n-p)/n); both are returned
    so the numerical argmax can adjudicate.
    """
    alpha = scaling_exponent(spec)
    derived = (alpha * i_1) ** (1.0 / (1.0 - alpha))
    paper = spec.model.paper_lambda_bar(i_1)
    return {"paper_formula": float(paper), "derived_argmax": float(derived)}
