"""Direct estimate of the pass level from its path definition.

A discrete path from 0 to a negative-energy endpoint is deformed by damped
steepest descent of F on the interior images (elastic-string style), with
arc-length re-parameterization each sweep.  The running max of F along the
path is a monotone sequence of upper bounds on the pass level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .functionals import ProblemSpec, eval_F, eval_U, grad_T, grad_U, norm

__all__ = ["DiscretePath", "MpaOptions", "init_path", "deform", "estimate_c",
           "crosses_all_levels"]


@dataclass
class DiscretePath:
    points: list
    energies: np.ndarray

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValidationError("path needs at least one interior point")
        first = self.points[0]
        first_vals = first if isinstance(first, np.ndarray) else first.values
        if np.any(first_vals != 0.0):
            raise ValidationError("path must start at the zero function")
        if not self.energies[-1] < 0:
            raise ValidationError("path endpoint must have strictly negative energy")

    @property
    def max_energy(self) -> float:
        return float(np.max(self.energies))

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.energies))


@dataclass
class MpaOptions:
    step: float = 0.2
    c_tol: float | None = None  # default: the variant's c_tol
    max_sweeps: int = 10_000
    patience: int = 25

    def resolved_c_tol(self, spec: ProblemSpec) -> float:
        return self.c_tol if self.c_tol is not None else spec.model.c_tol


def init_path(spec: ProblemSpec, endpoint, k: int = 32) -> DiscretePath:
    """Straight segment from 0 to the endpoint with k interior images."""
    if k < 1:
        raise ValidationError("need at least one interior image")
    if not eval_F(spec, endpoint) < 0:
        raise ValidationError("endpoint is not admissible: F(endpoint) must be < 0")
    ts = np.linspace(0.0, 1.0, k + 2)
    points = [t * endpoint for t in ts]
    energies = np.asarray([eval_F(spec, u) for u in points])
    return DiscretePath(points=points, energies=energies)


def _grad_F(spec: ProblemSpec, u):
    """Preconditioned gradient of F, zero on a Dirichlet boundary."""
    return spec.model.mask(spec.model.precondition(grad_T(spec, u) - grad_U(spec, u)))


def _reparameterize(spec: ProblemSpec, points):
    """Resample the polygonal path at uniform arc length (weighted norm)."""
    k = len(points)
    seg = np.array(
        [norm(spec, points[i + 1] - points[i]) for i in range(k - 1)]
    )
    s = np.concatenate(([0.0], np.cumsum(seg)))
    total = s[-1]
    if total == 0.0:
        return list(points)
    targets = np.linspace(0.0, total, k)
    out = [points[0]]
    j = 0
    for t in targets[1:-1]:
        while j < k - 2 and s[j + 1] < t:
            j += 1
        h = s[j + 1] - s[j]
        w = (t - s[j]) / h if h > 0 else 0.0
        out.append((1.0 - w) * points[j] + w * points[j + 1])
    out.append(points[-1])
    return out


def deform(path: DiscretePath, spec: ProblemSpec, step: float) -> DiscretePath:
    """One sweep: descend F on every interior image, then re-parameterize.

    Endpoints are fixed, so membership in the admissible path class is
    preserved by construction.
    """
    points = list(path.points)
    # Cap each displacement at half the mean image spacing: F is unbounded
    # below past the barrier, and uncapped descent lets images run away.
    total = sum(
        norm(spec, points[i + 1] - points[i]) for i in range(len(points) - 1)
    )
    cap = 0.5 * total / (len(points) - 1)
    for i in range(1, len(points) - 1):
        g = _grad_F(spec, points[i])
        gn = norm(spec, g)
        scale = step if step * gn <= cap or gn == 0.0 else cap / gn
        points[i] = points[i] - scale * g
    points = _reparameterize(spec, points)
    energies = np.asarray([eval_F(spec, u) for u in points])
    energies[0] = path.energies[0]
    energies[-1] = path.energies[-1]
    return DiscretePath(points=points, energies=energies)


def _segment_sup(spec: ProblemSpec, a, b) -> float:
    """Supremum of F along the straight segment from a to b."""
    from scipy.optimize import minimize_scalar

    r = minimize_scalar(
        lambda t: -eval_F(spec, (1.0 - t) * a + t * b),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(-r.fun)


def _path_sup(path: DiscretePath, spec: ProblemSpec) -> float:
    """Exact sup of F over the polygonal path: the discrete max refined by
    1-D maximization on the segments adjacent to the argmax.  The polygonal
    path is itself admissible, so this is a true upper bound on the pass
    level."""
    j = path.argmax_index
    sup = path.max_energy
    if j > 0:
        sup = max(sup, _segment_sup(spec, path.points[j - 1], path.points[j]))
    if j < len(path.points) - 1:
        sup = max(sup, _segment_sup(spec, path.points[j], path.points[j + 1]))
    return sup


@dataclass
class MpaResult:
    c_mpa: float
    argmax_point: object
    sweeps: int
    converged: bool
    stagnant: bool
    path: DiscretePath
    trace: list = field(default_factory=list)


def estimate_c(
    spec: ProblemSpec,
    endpoint,
    opts: MpaOptions | None = None,
    k: int = 32,
    trace_path=None,
) -> MpaResult:
    """Drive the path's max energy down until sweep improvements fall below
    the tolerance; returns the final upper bound and the maximizing image."""
    opts = opts or MpaOptions()
    c_tol = opts.resolved_c_tol(spec)

    path = init_path(spec, endpoint, k=k)
    c_cur = _path_sup(path, spec)
    step = opts.step
    plateau = 0
    converged = False
    stagnant = False
    trace = []
    sweeps = 0
    while sweeps < opts.max_sweeps:
        sweeps += 1
        new = deform(path, spec, step)
        c_new = _path_sup(new, spec)
        if math.isfinite(c_new) and c_new <= c_cur + 1e-12 * max(1.0, abs(c_cur)):
            improvement = c_cur - c_new
            path, c_cur = new, c_new
            step = min(step * 1.1, opts.step * 10.0)
            plateau = plateau + 1 if improvement < c_tol * max(abs(c_cur), 1e-12) else 0
        else:
            step *= 0.5
            plateau += 1
            if step < 1e-14:
                stagnant = True
                break
        trace.append((sweeps, c_cur, path.argmax_index))
        if plateau >= opts.patience:
            converged = True
            break

    if trace_path is not None:
        with open(trace_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["sweep", "max_energy", "argmax_index"])
            w.writerows(trace)
    return MpaResult(
        c_mpa=c_cur,
        argmax_point=path.points[path.argmax_index],
        sweeps=sweeps,
        converged=converged,
        stagnant=stagnant,
        path=path,
        trace=trace,
    )


def crosses_all_levels(path: DiscretePath, spec: ProblemSpec, lambdas) -> bool:
    """Intermediate-value scan: the path must cross U = lambda for every
    lambda between 0 and the endpoint's level."""
    Us = np.asarray([eval_U(spec, u) for u in path.points])
    for lam in np.asarray(lambdas, dtype=float):
        if not np.any((Us[:-1] - lam) * (Us[1:] - lam) <= 0.0):
            return False
    return True
