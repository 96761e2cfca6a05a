"""Level curve I(lambda) = i(lambda) - lambda and the max-min value.

Builds the sampled curve, locates the thresholds lambda_star (first
nonpositive I) and lambda_star_star (first strictly negative I), the argmax
set, and the max-min value; constructs the scaling path of minimizers and
evaluates F along it; reports the printed and the derived closed-form
argmax side by side.  Refinements follow the scaling law i ~ lambda^alpha:
the thresholds by regula falsi on log i - log lambda, the argmax by steps to
that of a fitted power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .functionals import ProblemSpec, eval_F, regula_falsi

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
    a warm-started solver); it is queried at most once per lambda, and never
    at a sample.
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

    solved = {}  # each level is solved once: lambda** reuses lambda*'s solves

    def log_i(lam: float) -> float:  # an i <= 0 counts as below the level
        if lam not in solved:
            solved[lam] = float(i_fn(lam))
        return math.log(max(solved[lam], 1e-300))

    t_s, log_i_s = np.log(lambdas), np.log(np.maximum(i_values, 1e-300))

    def crossing(k: int) -> float:
        # Root of h(t) = log i(e^t) - t, which has the sign of I and is affine
        # where i is a power law, between samples k - 1 (I > 0) and k (I < 0).
        ts = t_s[k - 1 : k + 1]
        h_s = log_i_s[k - 1 : k + 1] - ts
        return math.exp(regula_falsi(lambda t: log_i(math.exp(t)) - t, *ts, *h_s))

    # First crossing into I <= 0 / I < 0; a sample with I == 0 is the threshold.
    k_nonpos = int(np.argmax(I_values <= 0))
    k_neg = int(np.argmax(I_values < 0))
    lambda_star = float(lambdas[k_nonpos]) if I_values[k_nonpos] == 0 else crossing(k_nonpos)
    if I_values[k_neg - 1] == 0:  # exact-zero plateau between the two thresholds
        lambda_star_star = float(lambdas[k_neg - 1])
    else:
        lambda_star_star = crossing(k_neg)

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
        # Power-law steps from the samples k -+ 1: fit log i = log C + alpha t
        # through two points, move to the fit's argmax and drop the farther
        # point.  An argmax outside the bracket ends them (I is below I_max
        # at both ends), and so does a step of <= 1.5e-8 in t, or one no
        # shorter than the last: I locates its max only to ~sqrt(eps).
        k = argmax_set[0]
        lambda_bar, c_maxmin = float(lambdas[k]), I_max
        a = max(k - 1, 0)
        pts = [(t_s[a], log_i_s[a]), (t_s[k + 1], log_i_s[k + 1])]
        lo, hi = t_s[a], math.log(min(lambdas[k + 1], lambda_star_star))
        t_prev, last = t_s[k], math.inf
        for _ in range(16):
            (t1, y1), (t2, y2) = pts
            alpha = (y2 - y1) / (t2 - t1)
            if not 0.0 < alpha < 1.0:
                break
            t = (y1 - alpha * t1 + math.log(alpha)) / (1.0 - alpha)
            step = abs(t - t_prev)
            if not lo < t < hi or step <= 1.5e-8 or step >= last:
                break
            lam = math.exp(t)
            pts = [min(pts, key=lambda pt: abs(pt[0] - t)), (t, log_i(lam))]
            if solved[lam] - lam > c_maxmin:  # refinement must not lose the sampled max
                lambda_bar, c_maxmin = lam, solved[lam] - lam
            t_prev, last = t, step

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
