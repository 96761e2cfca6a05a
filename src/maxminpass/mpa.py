"""Direct estimate of the pass level from its path definition.

A discrete path from 0 to a negative-energy endpoint is deformed by damped
steepest descent of F on the interior images (elastic-string style), with
arc-length re-parameterization each sweep.  Each path's sup of F bounds the
pass level above.  The run starts on the straight path from 0 to the
endpoint e, which lies on e's ray, so F along it is e's fibering map
f(t) = F(t e) = a t^p + c t^2 - b t^r (``Variant.fibering``): the images'
energies are f at their parameters, and the path's sup is f's maximum, at
t* e, in closed form (by a scalar root at p != 2), with no evaluation of F
on the grid.  On a deformed path (or where f has no such maximum: T(e) <=
0), the max of F over the images, refined by a local root of F's slope on
each segment at the argmax image, reaches that sup only when it lies on
those segments.  Before the first sweep and after every accepted one, the
sup point is polished (Newton on F' = 0), from the critical point of F on
its orbit under the variant's scalings (``orbit_point``: on Hardy, the
amplitude and dilation t x(./beta) in closed form; elsewhere the point
itself).  A run stops, converged,
when the polished point x* is an index-1 critical point at or below the
path's sup whose ray {t x*} peaks at x* and goes on into {F < 0}: that ray,
continued inside {F < 0}, is an admissible path with sup F(x*), so the pass
level is at most F(x*), which the run reports (Nehari; Li & Zhou, SIAM J.
Sci. Comput. 23, 2001).  ``PATIENCE`` plateau sweeps end an uncertified run,
which is never converged.

The path is one stacked array, one image per row: ``(k+2, m)`` on a radial
grid, ``(k+2, d)`` for the toy.  A sweep moves the whole string at once, as
in the simplified string method (E, Ren & Vanden-Eijnden, J. Chem. Phys.
126, 164103, 2007): one stacked gradient through the variant's array
methods, one preconditioner solve with k right-hand sides, a vectorized
arc-length interpolation and one stacked evaluation of F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ValidationError
from .functionals import ProblemSpec, eval_F, eval_T, eval_U  # noqa: F401 (eval_U: traced binding)
from .functionals import factor_tridiagonal, regula_falsi, solve_tridiagonal
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
    return _straight_path(spec, endpoint, k)[0]


def _straight_path(spec: ProblemSpec, endpoint, k: int):
    """``init_path``'s path and the endpoint e's fibering map f.  The images
    t_j e lie on e's ray, so F at each is f(t_j): 0 at 0, and at e the grid
    value F(e) that the admissibility check takes."""
    if k < 1:
        raise ValidationError("need at least one interior image")
    F_end = eval_F(spec, endpoint)
    if not F_end < 0:
        raise ValidationError("endpoint is not admissible: F(endpoint) must be < 0")
    model = spec.model
    e = model.unwrap(endpoint)
    f = model.fibering(e)
    t = np.linspace(0.0, 1.0, k + 2)
    energies = f(t)
    energies[0], energies[-1] = 0.0, F_end
    return DiscretePath(t[:, None] * e, energies, model.grid), f


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
    point attaining it: the image max at x_j, or F at the root that
    ``regula_falsi`` finds of psi'(s) = <F'(x_j + s d), d> on a segment
    d = x_k - x_j to a neighbour, where psi' falls from positive at s = 0 to
    negative at s = 1 (from x_0 = 0, a strict local minimum of F, F rises
    although F' = 0).  The search is local: it finds a local max on each
    segment, not a certified global sup.  The value is F at a point of the
    path, so it is at most the path's sup, which bounds the pass level
    above; it equals that sup only when the sup lies on the two segments.
    ``estimate_c`` takes it on deformed paths, and on a straight path whose
    fibering map has no closed-form maximum."""
    x, j = path.images, path.argmax_index
    model = spec.model
    sup, top = path.max_energy, x[j]
    rows = [j] + [k for k in (j - 1, j + 1) if 0 <= k < len(x)]
    g = model.grad_T(x[rows]) - model.grad_U(x[rows])  # F' at x_j and its neighbours
    for g_k, d in zip(g[1:], x[rows[1:]] - x[j]):
        def slope(s):
            y = x[j] + s * d
            return float(model.inner(model.grad_T(y) - model.grad_U(y), d))
        end = float(model.inner(g_k, d))
        start = float(model.inner(g[0], d)) if j > 0 else -end  # a positive stand-in for 0 at x_0
        if start > 0.0 > end:
            y = x[j] + regula_falsi(slope, 0.0, 1.0, start, end) * d
            F = float(model.F(y))
            if F > sup:
                sup, top = F, y
    return sup, top


def _certify(path: DiscretePath, spec: ProblemSpec, top, c_sup: float):
    """(certified, ``el_residual`` at the sup point ``top``, F at the saddle
    or None, the ray's sup or None).  Newton on F' = 0 polishes ``top`` to
    x*, starting from its orbit point (``orbit_point``), which on Hardy
    removes the amplitude and dilation by which ``top`` misses the saddle:
    from there the reference pipelines take 2 Newton steps, from ``top`` 5
    and 6.  Each step solves H s = W r and takes the first of x - h s, h = 1,
    1/2, ..., 1/64, whose residual is below x's; the polish stops when none
    is, or within ``POLISH_FLOOR`` ``grad_tol``, where a further step moves
    x* only by rounding.  x* is certified if the argmax image is interior,
    its residual is within ``grad_tol``, its Morse index is 1, F(x*) <= c_sup
    up to rounding (the path passes above x*), and the ray {t x*} bounds the
    pass level by F(x*): its sup (``ray_sup``) is F(x*) to 1e-12, and it
    reaches F < 0 by 4 t*.  Any fibering map a t^p + c t^2 - b t^r
    (r > max(p, 2)) whose maximum is at t* is negative there, so that last
    check fails only by rounding.  The toy (no Hessian) is not polished: its
    rule is the residual."""
    model = spec.model
    interior = 0 < path.argmax_index < len(path.images) - 1
    r, res = weighted_residual(model, top)
    res_top = res
    star = model.orbit_point(top) if interior else top
    if star is not top:
        r, res = weighted_residual(model, star)
    bands = model.hessian(star, 1.0) if interior else None
    factor = None if bands is None else factor_tridiagonal(*bands)
    for _ in range(POLISH_STEPS):
        if factor is None or res <= POLISH_FLOOR * model.grad_tol:
            break
        s = solve_tridiagonal(factor, model.grid.weights * r)
        for h in 0.5 ** np.arange(7):
            x = star - h * s
            r_x, res_x = weighted_residual(model, x)
            if res_x < res:
                break
        else:
            break
        star, r, res = x, r_x, res_x
        factor = factor_tridiagonal(*model.hessian(star, 1.0))
    ok = interior and res <= model.grad_tol
    if not ok or bands is None:
        return ok, res_top, None, None
    F_star = float(model.F(star))
    ray, t = model.ray_sup(star)
    ok = (factor is not None and factor[2] == 1
          and F_star <= c_sup + 1e-12 * max(1.0, abs(c_sup))
          and abs(ray - F_star) <= 1e-12 * abs(F_star)
          and model.F(4.0 * t * star) < 0)
    if not ok:
        return False, res_top, None, None
    return True, res_top, F_star, ray


@dataclass
class MpaResult:
    c_mpa: float  # F at the certified saddle, else the path's sup
    sweeps: int
    converged: bool  # the run stopped on a certified sup point; a patience stop never is
    sup_residual: float  # weighted residual of F' = 0 at the path's sup point
    path_sup: float  # the final path's sup of F, an upper bound on the pass level
    ray_sup: float | None  # sup of F on the ray through the certified saddle, else None
    path: DiscretePath
    trace: list = field(default_factory=list)  # (sweep, path sup, argmax index) per sweep


def estimate_c(
    spec: ProblemSpec,
    endpoint,
    opts: MpaOptions | None = None,
    k: int = 32,
) -> MpaResult:
    """Drive the path's sup of F down.  The straight path's sup and sup
    point come from the endpoint's fibering map (``Fibering.sup``), each
    deformed path's from ``_path_sup``.  The sup point is polished and
    certified (``_certify``) before the first sweep and after every accepted
    one; a rejected sweep keeps the verdict it had.  The run stops on the
    first certified point, converged, with ``c_mpa`` F at the saddle (the
    path's sup on the toy).  ``PATIENCE`` plateau sweeps in a row (rejected,
    or improving by less than the variant's ``c_tol``) end an uncertified
    run, which is never converged."""
    opts = opts or MpaOptions()

    path, f = _straight_path(spec, endpoint, k)
    c_cur, t = f.sup()  # the straight path's exact sup, at t* e
    if math.isnan(c_cur):  # T(e) <= 0: f has no closed-form maximum
        c_cur, top = _path_sup(path, spec)
    else:
        top = t * path.images[-1]
    verdict = _certify(path, spec, top, c_cur)
    step = opts.step
    plateau = 0
    trace = []
    sweeps = 0
    while not verdict[0] and plateau < PATIENCE and sweeps < MAX_SWEEPS:
        sweeps += 1
        new = deform(path, spec, step)
        c_new, top_new = _path_sup(new, spec)
        if math.isfinite(c_new) and c_new <= c_cur + 1e-12 * max(1.0, abs(c_cur)):
            improvement = c_cur - c_new
            path, c_cur, top = new, c_new, top_new
            step = min(step * 1.1, opts.step * 10.0)
            plateau = plateau + 1 if improvement < spec.model.c_tol * max(abs(c_cur), 1e-12) else 0
            verdict = _certify(path, spec, top, c_cur)
        else:
            step *= 0.5
            plateau += 1
            if step < 1e-14:
                break
        trace.append((sweeps, c_cur, path.argmax_index))

    converged, res, saddle, ray = verdict
    return MpaResult(
        c_mpa=c_cur if saddle is None else saddle,
        sweeps=sweeps,
        converged=converged,
        sup_residual=res,
        path_sup=c_cur,
        ray_sup=ray,
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
