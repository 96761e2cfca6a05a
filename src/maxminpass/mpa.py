"""Direct estimate of the pass level from its path definition, over rays.

For a point x with T(x) > 0, F along the ray {t x} is x's fibering map
f(t) = F(t x) = a t^p + c t^2 - b t^r (``Variant.fibering_of``), which rises
from 0 to one maximum and falls to -inf.  The ray, continued into {F < 0},
is an admissible path, and its sup, f's maximum, is in closed form (by a
scalar root at p != 2: ``ray_sup``).  So every ray bounds the pass level
above, and driving that bound down over x is a deformation of paths (the
Nehari characterization; as an algorithm, Li & Zhou's local minimax method
with L = {0}, SIAM J. Sci. Comput. 23, 2001).

The run starts on the endpoint e's ray, at its maximum t* e.  Each
descent step (``deform``) moves the current ray maximum x along the
preconditioned gradient of F, takes the maximum of the new ray, and accepts
it only if its sup is lower, so the reported bound falls monotonically.
Before the first step and after every one, the ray maximum is polished
(``polish``: Newton on F' = 0), from the critical point of F on its orbit
under the variant's scalings (``orbit_point``: on Hardy, the amplitude and
dilation t x(./beta) in closed form; elsewhere the point itself).  Each
point is evaluated once, into a record (``Iterate``: one difference quotient
and one power of |x|) that gives its residual, Hessian, F and fibering map;
only the rounding guard F(4 t* x*) < 0 evaluates F apart.  A run stops,
converged, when the polished point x* is an index-1 critical point at or
below the ray's sup whose own ray {t x*} peaks at x* and goes on into
{F < 0}: then the pass level is at most F(x*), which the run reports.
``PATIENCE`` plateau steps, or a step that finds no lower sup, end an
uncertified run, which is never converged.  The run builds no path: the
final path, the last ray's straight path (to e if no step was taken, else
to 4 times the last ray maximum), is built when it is first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ValidationError
from .functionals import ProblemSpec, eval_F, eval_U
from .functionals import factor_tridiagonal, solve_tridiagonal
from .grids import GridFunction, RadialGrid
from .verify import weighted_residual

__all__ = ["DiscretePath", "MpaOptions", "deform", "polish", "estimate_c",
           "crosses_all_levels", "find_endpoint"]

MAX_SWEEPS = 10_000
PATIENCE = 25  # steps in a row lowering the sup by < c_tol that end an uncertified run
HALVINGS = 40  # step halvings before a descent step gives up
MAX_STEP = 2.0  # largest step a descent step starts from
POLISH_STEPS = 20  # Newton steps on F' = 0 from a sup point
POLISH_FLOOR = 1e-3  # residual, in units of grad_tol, at which the polish stops


class DiscretePath:
    """Images of a discrete path, stacked as the rows of the read-only array
    ``images``, with F at each image in ``energies`` (one value per image).

    ``points`` is a list of the variant's points (GridFunctions on a radial
    grid, arrays for the toy), or their stacked array, kept without a copy,
    with the ``grid`` the rows live on (None for the toy).
    """

    def __init__(self, points, energies, grid: RadialGrid | None = None):
        if len(points) < 3:
            raise ValidationError("path needs at least one interior point")
        if not isinstance(points, np.ndarray):
            grid = getattr(points[0], "grid", grid)
            points = [getattr(u, "values", u) for u in points]
        images = np.asarray(points, dtype=float)
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
    step: float = 0.2  # the first descent step's initial size

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValidationError(f"mpa.step must be positive and finite, got {self.step!r}")


def find_endpoint(spec: ProblemSpec, v):
    """An endpoint with F < 0 on the scaling path of the level-1 minimizer v.

    Starts at twice the first negative level of the scaling law,
    i(1)^(1/(1-alpha)), and grows the level by 1.5 up to 10 times; raises
    ValidationError if F is still >= 0 there.  Only the endpoint is wrapped.
    """
    model, x = spec.model, spec.model.unwrap(v)
    lam = 2.0 * float(model.T(x)) ** (1.0 / (1.0 - model.scaling_exponent))
    for _ in range(11):
        y = model.carry(x, lam)
        if model.F(y) < 0:
            return model.wrap(y)
        lam *= 1.5
    raise ValidationError(
        f"no admissible endpoint: F >= 0 on the scaling path up to level {lam / 1.5:.6g}"
    )


def _fibering(spec: ProblemSpec, e: np.ndarray, k: int):
    """The endpoint e's fibering map f and F(e), both from e's record;
    raises ValidationError for k < 1 interior images or F(e) >= 0."""
    if k < 1:
        raise ValidationError("need at least one interior image")
    it = spec.model.energies(e)
    F_end = eval_F(spec, it)
    if not F_end < 0:
        raise ValidationError("endpoint is not admissible: F(endpoint) must be < 0")
    return spec.model.fibering_of(it), F_end


def _check_grid(path: DiscretePath, spec: ProblemSpec) -> None:
    grid = spec.model.grid
    if grid is not None and (path.grid is None or not path.grid.same_as(grid)):
        raise GridMismatchError("path does not live on the spec's grid")


def deform(x, spec: ProblemSpec, step: float, c_sup: float):
    """One descent step over rays from x, the maximum of its own ray, whose
    sup is c_sup.  The direction is the preconditioned gradient g =
    (K + M)^-1 (grad T - grad U)(x) (``precondition``; the identity on the
    toy); the step s is halved, at most ``HALVINGS`` times, until
    y = x - s g has a ray sup (``ray_sup``) below c_sup and its ray reaches
    F < 0 by 4 t_y.  Returns (x_new, sup, step): x_new = t_y y, the maximum
    of y's ray, sup, F's maximum on that ray, and the next step
    min(2 s, ``MAX_STEP``); None when no step lowers the sup."""
    model = spec.model
    g = model.precondition(model.grad_T(x) - model.grad_U(x))
    for _ in range(HALVINGS + 1):
        y = x - step * g
        sup, t = model.ray_sup(y)
        if sup < c_sup and model.F(4.0 * t * y) < 0:
            return t * y, sup, min(2.0 * step, MAX_STEP)
        step *= 0.5
    return None


def polish(model, it):
    """Newton's method on F' = 0 from the record ``it``'s point: (x*'s record,
    its residual (``weighted_residual``), the count of negative pivots of
    F's Hessian at x*, None where ``factor_tridiagonal`` refuses it or there
    is none).  Each step solves H s = W r and takes the first of x - h s,
    h = 1, 1/2, ..., 1/64, with a lower residual; it stops when none has
    one, after ``POLISH_STEPS`` steps, or within ``POLISH_FLOOR`` ``grad_tol``.
    Each point, a rejected trial too, is evaluated once (``iterate``)."""
    r, res = weighted_residual(model, it)
    bands = model.bands(it, 1.0)
    factor = None if bands is None else factor_tridiagonal(*bands)
    for _ in range(POLISH_STEPS):
        if factor is None or res <= POLISH_FLOOR * model.grad_tol:
            break
        s = solve_tridiagonal(factor, model.grid.weights * r)
        for h in 0.5 ** np.arange(7):
            trial = model.iterate(it.x - h * s)
            r_x, res_x = weighted_residual(model, trial)
            if res_x < res:
                break
        else:
            break
        it, r, res = trial, r_x, res_x
        factor = factor_tridiagonal(*model.bands(it, 1.0))
    return it, res, None if factor is None else factor[2]


class Verdict(tuple):
    """``_certify``'s 4-tuple, with the certified point as ``saddle``."""

    def __new__(cls, certified, res, F_star=None, ray=None, saddle=None):
        verdict = super().__new__(cls, (certified, res, F_star, ray))
        verdict.saddle = saddle
        return verdict


def _certify(spec: ProblemSpec, top, c_sup: float):
    """(certified, ``el_residual`` at the sup point ``top``, F at the saddle
    or None, the ray's sup or None), a ``Verdict``.  ``polish`` takes ``top``
    to x*, from its orbit point (``orbit_point``), which on Hardy removes the
    amplitude and dilation by which ``top`` misses the saddle (2 Newton steps
    on the reference pipelines, 5 and 6 from ``top``).  Each point is
    evaluated once: ``top``'s record gives its residual and orbit point, x*'s
    F(x*) and its fibering map.  ``top`` is interior to its ray's path: t* > 0,
    and F < 0 past it.  x* is certified if its residual is within
    ``grad_tol``, its Morse index is 1, F(x*) <= c_sup up to rounding (the ray
    passes above x*), and the ray {t x*} bounds the pass level by F(x*): its
    sup is F(x*) to 1e-12, and it reaches F < 0 by 4 t* on the grid, which any
    fibering map a t^p + c t^2 - b t^r (r > max(p, 2)) peaking at t* does but
    for rounding.  The toy (no Hessian) is not polished: its rule is the
    residual."""
    model = spec.model
    it = model.iterate(top)
    res_top = weighted_residual(model, it)[1]
    if model.grid is None:
        ok = res_top <= model.grad_tol
        return Verdict(ok, res_top, saddle=top if ok else None)
    star = model.orbit_point(it)
    it, res, pivots = polish(model, it if star is it.x else model.iterate(star))
    if not res <= model.grad_tol:
        return Verdict(False, res_top)
    f = model.fibering_of(it)  # a = T(x*), evaluated once
    F_star = f.a - eval_U(spec, it)
    ray, t = f.sup()
    if (pivots == 1 and F_star <= c_sup + 1e-12 * max(1.0, abs(c_sup))
            and abs(ray - F_star) <= 1e-12 * abs(F_star)
            and model.F(4.0 * t * it.x) < 0):
        return Verdict(True, res_top, F_star, ray, it.x)
    return Verdict(False, res_top)


@dataclass
class MpaResult:
    c_mpa: float  # F at the certified saddle, else the last ray's sup
    sweeps: int  # descent steps taken (``deform``)
    converged: bool  # the run stopped on a certified sup point; a patience stop never is
    sup_residual: float  # weighted residual of F' = 0 at the last ray's sup point
    path_sup: float  # the last ray's sup of F, an upper bound on the pass level
    ray_sup: float | None  # sup of F on the ray through the certified saddle, else None
    trace: list = field(default_factory=list)  # (sweep, ray sup, next step) per descent step
    saddle: object = None  # the certified point x*, None when not converged
    # (spec, the last ray's endpoint, k): what ``path`` is built from
    _ray: tuple | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def path(self) -> DiscretePath:
        """The last ray's straight path, built on first read: k interior
        images t_j end on the ray, so F at each is end's fibering map at t_j,
        0 at 0 and F(end) at end."""
        spec, end, k = self._ray
        f, F_end = _fibering(spec, end, k)
        t = np.linspace(0.0, 1.0, k + 2)
        energies = f(t)
        energies[0], energies[-1] = 0.0, F_end
        return DiscretePath(t[:, None] * end, energies, spec.model.grid)


def estimate_c(
    spec: ProblemSpec,
    endpoint,
    opts: MpaOptions | None = None,
    k: int = 32,
) -> MpaResult:
    """Drive the sup of F over rays down, from the endpoint e's ray.  Its
    sup and sup point t* e come from e's fibering map (``Fibering.sup``);
    raises ValidationError where F(e) >= 0, where that map has no maximum
    (T(e) <= 0), or for k < 1 interior images of the final path.  The sup
    point is certified (``_certify``) before the first descent step
    (``deform``) and after each one.  The run stops on the first certified
    point, converged, with ``c_mpa`` F at the saddle (the ray's sup on the
    toy).  ``PATIENCE`` steps in a row that improve the sup by less than the
    variant's ``c_tol``, or a step that finds no lower sup, end an
    uncertified run, which is never converged."""
    opts = opts or MpaOptions()
    model = spec.model

    e = model.unwrap(endpoint)
    c_cur, t = _fibering(spec, e, k)[0].sup()  # e's ray's exact sup, at t* e
    if math.isnan(c_cur):
        raise ValidationError("T(endpoint) <= 0: the endpoint's ray has no maximum")
    x = t * e
    verdict = _certify(spec, x, c_cur)
    step, plateau, sweeps, trace = opts.step, 0, 0, []
    while not verdict[0] and plateau < PATIENCE and sweeps < MAX_SWEEPS:
        moved = deform(x, spec, step, c_cur)
        if moved is None:
            break
        sweeps += 1
        x, c_new, step = moved
        plateau = plateau + 1 if c_cur - c_new < model.c_tol else 0
        c_cur = c_new
        trace.append((sweeps, c_cur, step))
        verdict = _certify(spec, x, c_cur)

    converged, res, F_star, ray_sup = verdict
    return MpaResult(
        c_mpa=c_cur if F_star is None else F_star,
        sweeps=sweeps,
        converged=converged,
        sup_residual=res,
        path_sup=c_cur,
        ray_sup=ray_sup,
        trace=trace,
        saddle=model.wrap(verdict.saddle) if converged else None,
        _ray=(spec, 4.0 * x if sweeps else e.copy(), k),
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
