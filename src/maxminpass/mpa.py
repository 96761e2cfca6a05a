"""Direct estimate of the pass level from its path definition.

A discrete path from 0 to a negative-energy endpoint is deformed by damped
steepest descent of F on the interior images (elastic-string style), with
arc-length re-parameterization each sweep.  Each path's sup of F bounds the
pass level above; the max of F over the images, refined by one local bounded
search on the two segments at the argmax image, reaches that sup only when
it lies on those segments.  A run stops, converged, at the first plateau
sweep whose sup point polishes (Newton on F' = 0) to an index-1 critical
point within ``c_tol`` below that sup, and reports F there; ``PATIENCE``
plateau sweeps end an uncertified run, which is never converged.

The path is one stacked array, one image per row: ``(k+2, m)`` on a radial
grid, ``(k+2, d)`` for the toy.  A sweep moves the whole string at once, as
in the simplified string method (E, Ren & Vanden-Eijnden, J. Chem. Phys.
126, 164103, 2007): one stacked gradient through the variant's array
methods, one preconditioner solve with k right-hand sides, a vectorized
arc-length interpolation and one stacked evaluation of F.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import GridMismatchError, ValidationError
from .functionals import ProblemSpec, eval_F, eval_T, eval_U  # noqa: F401 (eval_U: traced binding)
from .functionals import factor_tridiagonal, solve_tridiagonal
from .grids import GridFunction, RadialGrid
from .levelcurve import scaling_exponent, scaling_path
from .verify import weighted_residual

__all__ = ["DiscretePath", "MpaOptions", "init_path", "deform", "estimate_c",
           "crosses_all_levels", "find_endpoint"]

MAX_SWEEPS = 10_000
PATIENCE = 25  # plateau sweeps in a row that end an uncertified run
POLISH_STEPS = 20  # Newton steps on F' = 0 from a sup point
POLISH_FLOOR = 1e-3  # residual, in units of grad_tol, at which the polish stops


class DiscretePath:
    """Images of a discrete path, stacked as the rows of the read-only array
    ``images``, with F at each image in ``energies`` (one value per image).

    ``points`` is a list of the variant's points (GridFunctions on a radial
    grid, arrays for the toy), or their stacked array together with the
    ``grid`` the rows live on (None for the toy).
    """

    def __init__(self, points, energies, grid: RadialGrid | None = None):
        if len(points) < 3:
            raise ValidationError("path needs at least one interior point")
        if not isinstance(points, np.ndarray):
            grid = getattr(points[0], "grid", grid)
            points = [getattr(u, "values", u) for u in points]
        images = np.array(points, dtype=float)
        energies = np.asarray(energies, dtype=float)
        if energies.shape != images.shape[:1]:
            raise ValidationError("path needs one energy per image")
        if not np.all(np.isfinite(images)):
            raise ValidationError("path values must be finite")
        if np.any(images[0] != 0.0):
            raise ValidationError("path must start at the zero function")
        if not energies[-1] < 0:
            raise ValidationError("path endpoint must have strictly negative energy")
        images.flags.writeable = False
        self.images, self.energies, self.grid = images, energies, grid

    def point(self, i: int):
        row = self.images[i]
        return row if self.grid is None else GridFunction(self.grid, row)

    @property
    def points(self) -> list:
        return [self.point(i) for i in range(len(self.images))]

    @property
    def max_energy(self) -> float:
        return float(np.max(self.energies))

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.energies))


@dataclass
class MpaOptions:
    step: float = 0.2  # initial descent step of a sweep

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValidationError(f"mpa.step must be positive and finite, got {self.step!r}")


def find_endpoint(spec: ProblemSpec, v):
    """An endpoint with F < 0 on the scaling path of the level-1 minimizer v.

    Starts at twice the first negative level of the scaling law,
    i(1)^(1/(1-alpha)), and grows the level by 1.5 up to 10 times; raises
    ValidationError if F is still >= 0 there.
    """
    lam = 2.0 * eval_T(spec, v) ** (1.0 / (1.0 - scaling_exponent(spec)))
    for _ in range(11):
        endpoint = scaling_path(spec, v, lam)
        if eval_F(spec, endpoint) < 0:
            return endpoint
        lam *= 1.5
    raise ValidationError(
        f"no admissible endpoint: F >= 0 on the scaling path up to level {lam / 1.5:.6g}"
    )


def init_path(spec: ProblemSpec, endpoint, k: int = 32) -> DiscretePath:
    """Straight segment from 0 to the endpoint with k interior images."""
    if k < 1:
        raise ValidationError("need at least one interior image")
    if not eval_F(spec, endpoint) < 0:
        raise ValidationError("endpoint is not admissible: F(endpoint) must be < 0")
    model = spec.model
    images = np.linspace(0.0, 1.0, k + 2)[:, None] * model.unwrap(endpoint)
    return DiscretePath(images, model.F(images), model.grid)


def _arc_length(spec: ProblemSpec, images: np.ndarray) -> np.ndarray:
    """Cumulative weighted length along the polygonal path, from 0."""
    d = np.diff(images, axis=0)
    seg = np.sqrt(np.maximum(spec.model.inner(d, d), 0.0))
    return np.concatenate(([0.0], np.cumsum(seg)))


def _reparameterize(spec: ProblemSpec, images: np.ndarray) -> np.ndarray:
    """Resample the polygonal path at uniform arc length (weighted norm)."""
    s = _arc_length(spec, images)
    n = len(images)
    if s[-1] == 0.0:
        return images
    t = np.linspace(0.0, s[-1], n)[1:-1]
    j = np.clip(np.searchsorted(s, t) - 1, 0, n - 2)
    h = s[j + 1] - s[j]
    w = np.divide(t - s[j], h, out=np.zeros_like(t), where=h > 0)
    out = images.copy()
    out[1:-1] = (1.0 - w)[:, None] * images[j] + w[:, None] * images[j + 1]
    return out


def _check_grid(path: DiscretePath, spec: ProblemSpec) -> None:
    grid = spec.model.grid
    if grid is not None and (path.grid is None or not path.grid.same_as(grid)):
        raise GridMismatchError("path does not live on the spec's grid")


def deform(path: DiscretePath, spec: ProblemSpec, step: float) -> DiscretePath:
    """One sweep: descend F on every interior image, then re-parameterize.

    Endpoints are fixed, so membership in the admissible path class is
    preserved by construction.
    """
    model = spec.model
    _check_grid(path, spec)
    x = path.images
    # Cap each displacement at half the mean image spacing: F is unbounded
    # below past the barrier, and uncapped descent lets images run away.
    cap = 0.5 * _arc_length(spec, x)[-1] / (len(x) - 1)
    mid = x[1:-1]
    g = model.precondition(model.grad_T(mid) - model.grad_U(mid))
    gn = np.sqrt(np.maximum(model.inner(g, g), 0.0))
    capped = ~(step * gn <= cap) & (gn != 0.0)
    scale = np.divide(cap, gn, out=np.full_like(gn, step), where=capped)
    moved = x.copy()
    moved[1:-1] -= scale[:, None] * g
    images = _reparameterize(spec, moved)
    energies = np.empty(len(images))
    energies[[0, -1]] = path.energies[[0, -1]]
    energies[1:-1] = model.F(images[1:-1])
    return DiscretePath(images, energies, path.grid)


def _path_sup(path: DiscretePath, spec: ProblemSpec):
    """Sup of F over the polygonal path near its argmax image x_j, and the
    point attaining it: the discrete max (point x_j), refined by one bounded
    Brent search of the broken line psi(s) = F(x_j + |s| (x_{j-1} - x_j)) for
    s < 0, F(x_j + s (x_{j+1} - x_j)) for s >= 0, with s clipped to 0 where x_j
    ends the path.  The search is local: it finds a local max of psi, not a
    certified global sup.  The value is F at a point of the path, so it is at
    most the path's sup, which bounds the pass level above; it equals that
    sup only when the sup lies on the two segments at x_j."""
    x, j, last = path.images, path.argmax_index, len(path.images) - 1
    F = spec.model.F
    left = x[max(j - 1, 0)] - x[j]
    right = x[min(j + 1, last)] - x[j]
    def along(s):
        return x[j] + s * right if s >= 0.0 else x[j] - s * left
    r = minimize_scalar(
        lambda s: -F(along(s)),
        bounds=(-1.0 if j > 0 else 0.0, 1.0 if j < last else 0.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if float(-r.fun) > path.max_energy:
        return float(-r.fun), along(r.x)
    return path.max_energy, x[j]


def _certify(path: DiscretePath, spec: ProblemSpec, top, c_sup: float):
    """(certified, ``el_residual`` at the sup point ``top``, F at the saddle
    or None).  Newton steps H s = W r on F' = 0 polish ``top`` to x* while the
    residual decreases, until it is within ``POLISH_FLOOR`` ``grad_tol``, where
    a further step moves x* only by rounding.  x* is certified if the argmax
    image is interior, its residual is within ``grad_tol``, its Morse index is
    1 and 0 <= c_sup - F(x*) <= ``c_tol`` |F(x*)| up to rounding.  The toy (no
    Hessian) is not polished."""
    model = spec.model
    interior = 0 < path.argmax_index < len(path.images) - 1
    x, star, residuals = top, top, []
    for _ in range(POLISH_STEPS + 1):
        r, res = weighted_residual(model, x)
        if residuals and not res < residuals[-1]:
            break
        star = x
        residuals.append(res)
        bands = model.hessian(x, 1.0) if interior else None
        factor = None if bands is None else factor_tridiagonal(*bands)
        if factor is None or res <= POLISH_FLOOR * model.grad_tol:
            break  # the factor at x* is kept: it gives the Morse index
        x = x - solve_tridiagonal(factor, model.grid.weights * r)
    ok = interior and residuals[-1] <= model.grad_tol
    if not ok or bands is None:
        return ok, residuals[0], None
    F_star = float(model.F(star))
    ok = (factor is not None and factor[2] == 1
          and -1e-12 * max(1.0, abs(c_sup)) <= c_sup - F_star <= model.c_tol * abs(F_star))
    return ok, residuals[0], F_star if ok else None


@dataclass
class MpaResult:
    c_mpa: float  # F at the certified saddle, else the path's sup
    argmax_point: object
    sweeps: int
    converged: bool  # equals certified: a patience stop is never convergence
    stagnant: bool
    certified: bool  # the run stopped on a certified sup point
    sup_residual: float  # weighted residual of F' = 0 at the path's sup point
    path_sup: float  # the final path's sup of F, an upper bound on the pass level
    path: DiscretePath
    trace: list = field(default_factory=list)


def estimate_c(
    spec: ProblemSpec,
    endpoint,
    opts: MpaOptions | None = None,
    k: int = 32,
    trace_path=None,
) -> MpaResult:
    """Drive the path's sup of F down.  After each plateau sweep (rejected,
    or improving by less than the variant's ``c_tol``) the sup point is
    polished and certified (``_certify``, once per accepted path); the run
    stops on the first certified one, converged, with ``c_mpa`` F at the
    saddle (the path's sup on the toy).  ``PATIENCE`` plateau sweeps in a row
    end an uncertified run, which is never converged."""
    opts = opts or MpaOptions()

    path = init_path(spec, endpoint, k=k)
    c_cur, top = _path_sup(path, spec)
    verdict = None  # _certify's (certified, residual, saddle F) on the current path
    step = opts.step
    plateau = 0
    stagnant = False
    trace = []
    sweeps = 0
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        new = deform(path, spec, step)
        c_new, top_new = _path_sup(new, spec)
        if math.isfinite(c_new) and c_new <= c_cur + 1e-12 * max(1.0, abs(c_cur)):
            improvement = c_cur - c_new
            path, c_cur, top, verdict = new, c_new, top_new, None
            step = min(step * 1.1, opts.step * 10.0)
            plateau = plateau + 1 if improvement < spec.model.c_tol * max(abs(c_cur), 1e-12) else 0
        else:
            step *= 0.5
            plateau += 1
            if step < 1e-14:
                stagnant = True
                break
        trace.append((sweeps, c_cur, path.argmax_index))
        if plateau:
            verdict = verdict or _certify(path, spec, top, c_cur)
            if verdict[0] or plateau >= PATIENCE:
                break

    if trace_path is not None:
        with open(trace_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["sweep", "max_energy", "argmax_index"])
            w.writerows(trace)
    certified, res, saddle = verdict or (False, weighted_residual(spec.model, top)[1], None)
    return MpaResult(
        c_mpa=c_cur if saddle is None else saddle,
        argmax_point=path.point(path.argmax_index),
        sweeps=sweeps,
        converged=certified,
        stagnant=stagnant,
        certified=certified,
        sup_residual=res,
        path_sup=c_cur,
        path=path,
        trace=trace,
    )


def crosses_all_levels(path: DiscretePath, spec: ProblemSpec, lambdas) -> bool:
    """Intermediate-value scan: the path must cross U = lambda for every
    lambda between 0 and the endpoint's level."""
    _check_grid(path, spec)
    Us = spec.model.U(path.images)
    for lam in np.asarray(lambdas, dtype=float):
        if not np.any((Us[:-1] - lam) * (Us[1:] - lam) <= 0.0):
            return False
    return True
