"""Finite-dimensional analytic instances: X = R^d, T(u) = |u|^2, U(u) = |u|^q.

Every downstream quantity has a closed form here, which makes this module
the exact oracle for the constrained minimizer, the level-curve engine and
the direct estimate over rays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["ToyProblem", "toy_i_lambda", "toy_closed_form", "toy_c_bruteforce"]


@dataclass(frozen=True)
class ToyProblem:
    d: int = 2
    q: float = 4.0

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("dimension d must be >= 1")
        if self.q <= 2:
            raise ValidationError("need q > 2 for the level-curve geometry")


def toy_i_lambda(prob: ToyProblem, lam: float) -> float:
    """Minimum of |u|^2 over |u|^q = lam, attained on the sphere |u| = lam^(1/q)."""
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    return lam ** (2.0 / prob.q)


def toy_closed_form(prob: ToyProblem) -> dict:
    """Closed forms for the thresholds, the argmax and the pass level.

    I(lam) = lam^(2/q) - lam vanishes first at lam = 1 and is maximized at
    lam_bar = (2/q)^(q/(q-2)), where its value equals the pass level c.
    """
    q = prob.q
    lambda_bar = (2.0 / q) ** (q / (q - 2.0))
    c = lambda_bar ** (2.0 / q) - lambda_bar
    return {
        "lambda_star": 1.0,
        "lambda_star_star": 1.0,
        "lambda_bar": lambda_bar,
        "c": c,
    }


def toy_c_bruteforce(prob: ToyProblem) -> float:
    """Pass level straight from its definition, by radial reduction.

    F depends on |u| only, so any admissible path's running max is at
    least the max of the radial profile r -> r^2 - r^q, and the straight
    radial path achieves it.  Scans [0, 2] on 2,001 points (q > 2, so
    F(2 e_1) = 4 - 2^q < 0), then 2,001 points across the two cells around
    the coarse argmax: the profile has one critical point on (0, 2], its
    maximum, which lies in (0.6, 1), so the coarse argmax is interior and
    the maximum lies in those cells.
    """
    r = np.linspace(0.0, 2.0, 2001)
    j = int(np.argmax(r**2 - r**prob.q))
    r = np.linspace(r[j - 1], r[j + 1], 2001)
    return float(np.max(r**2 - r**prob.q))
