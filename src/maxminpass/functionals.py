"""Discrete energies T, U, F = T - U, their gradients, and gating constants.

Each problem variant is one class; ``ProblemSpec`` picks it from the
``variant`` string and keeps its instance, which validates the spec, as
``spec.model``.  The module-level functions dispatch to it.

* ``Hardy`` (``hardy-subcritical``): T(u) = (1/p) * (int |grad u|^p -
  mu |x|^-p |u|^p), U(u) = int G(u) on truncated R^n, with the odd model
  nonlinearity g(s) = -m s + |s|^(q-2) s.  Group action: dilation.
* ``Critical`` (``critical-bounded``): T(u) = (1/p) * (int |grad u|^p -
  mu |u|^p), U(u) = (1/p*) int |u|^p* on a ball with a Dirichlet boundary.
  Group action: amplitude.
* ``Toy`` (``toy``): X = R^d, T(u) = |u|^2, U(u) = |u|^q (closed-form
  oracle case).  Group action: radial rescaling.

Methods on plain arrays: ``T``, ``U``, ``F``, ``grad_T``, ``grad_U``,
``inner``, ``mask`` (Dirichlet boundary) and ``precondition`` take values
along the last axis, one image ``(m,)`` or a stack ``(k, m)`` (toy: ``(d,)``
or ``(k, d)``), and return one value per image.  Their sums are
``np.vecdot``, one BLAS dot per image, so a stacked call sums each row
exactly as a single-image call does.  On one image: ``retract(x, lam)``
scales it onto the level set {U = lam}; ``carry(x, ratio)`` moves it from
level lam to near ratio * lam along the group action; ``hessian(x, theta)``
gives the bands of the tridiagonal Euclidean Hessian of T - theta U (None
on the toy); ``ray_sup(x)`` is the maximum over t > 0 of x's fibering map
t -> F(t x) (``Fibering``) and where it is attained.

Each point is evaluated once, into an ``Iterate`` record, from one
difference quotient of x and one power of |x| (Hardy |x|^(q-2), critical
|x|^(p*-2)); the record and the array methods share one formula each, so
they agree to rounding.  ``iterate(x)`` gives x, the masked gradients of T
and U, the gradient of T before the mask, and the intermediates, from
which ``bands(it, theta)`` reads the Hessian; ``energies(x)`` gives x, T
and the intermediates only.  From a record, ``T_of`` gives T (evaluated
where ``iterate`` was not given it), ``fibering_of`` the fibering map in
closed form from T and U's moments, ``orbit_point`` the critical point of
F over the amplitudes and dilations t x(./beta) of x (Hardy; x itself
elsewhere), and ``eval_T``, ``eval_U`` and ``eval_F`` the energies.  The
descent's trial point is retracted by ``at_level(y, lam)``, which returns
(x, T(x), the intermediates the retraction's check on the grid sum took);
``iterate(x, T, intermediates)`` records an accepted one.
``carry_record(it, lam0, lam)`` gives the record of the point carried from
level lam0 to lam: where the group action is exact (critical, toy) each
field scales by its degree of homogeneity, T's p and U's ``U_degree``, and
Hardy's dilated point is retracted and evaluated.

Methods on points (``GridFunction`` for the radial variants, arrays for the
toy): ``seed(width)``, with ``seed_width(lam)`` the width that starts a
level's solve at that level's scale (Hardy; None elsewhere, whose seeds
take no width); ``transport(u, ratio)``, which is ``carry`` on the point's
values; ``unwrap`` (grid check) and ``wrap``.  Also ``paper_lambda_bar``, and the
classmethod ``from_config``, which builds a spec from a config block.
Attributes:
``scaling_exponent``, ``grad_tol``, ``c_tol``, ``exact_transport``,
``U_degree`` (where it is exact), ``amplitude_exponents``.  The module-level functions
(``eval_T`` ... ``norm``) take points, unwrap them and call the array
methods, or read records; they are the public edge, not the inner loops'
path.

Gradients are exact derivatives of the discrete energies (variational
discretization), returned in the quadrature-weighted pairing: for any
direction h, d/dt E(u + t h) = <grad, h>_W.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy

from .errors import ConvergenceError, GridMismatchError, InfeasibleError, ValidationError
from .grids import GridFunction, RadialGrid, build_radial_grid, dilate
from .toy import ToyProblem

__all__ = [
    "NonlinearitySpec",
    "ProblemSpec",
    "Toy",
    "Hardy",
    "Critical",
    "Iterate",
    "Fibering",
    "eval_T",
    "eval_U",
    "eval_F",
    "grad_T",
    "grad_U",
    "hardy_constant",
    "estimate_mu_p",
    "inner",
    "norm",
    "mask",
    "precondition",
    "Preconditioner",
    "problem_from_config",
]


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without the ``scipy.linalg`` package.

    ``scipy.linalg.lapack`` re-exports this f2py module; importing that
    package to reach it would run its whole init, about half of
    ``import maxminpass``'s time.  The plain ``import scipy`` still runs
    scipy's distributor init, which some wheels need to find their BLAS.
    """
    where = os.path.join(scipy.__path__[0], "linalg")
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(where, loader).find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's _flapack extension not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

# Regularization of |du|^(p-2) for p < 2, applied inside gradients only.
GRAD_REG_DELTA = 1e-10


def hardy_constant(p: float, n: int) -> float:
    """Best constant ((n-p)/p)^p in the Hardy inequality."""
    return ((n - p) / p) ** p


def check_keys(block, known, where: str) -> None:
    """Reject a config block that is not an object or has a key outside ``known``."""
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def config_number(block: dict, key: str, where: str, default=None, integer: bool = False):
    """``block[key]``, or ``default`` when the key is absent, as a float (an
    int when ``integer``); ValidationError naming ``where.key`` when it is
    not such a number (a required key has no default)."""
    value = block.get(key, default)
    try:
        if isinstance(value, (bool, str)):  # float() would read true as 1, "0.2" as 0.2
            raise TypeError
        x = float(value)
        if integer and not x.is_integer():
            raise ValueError
    except (TypeError, ValueError):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"{where}.{key} must be {kind}, got {value!r}") from None
    return int(x) if integer else x


@dataclass(frozen=True)
class NonlinearitySpec:
    """The model odd nonlinearity g(s) = -m s + |s|^(q-2) s.

    G is its even primitive -m s^2/2 + |s|^q / q.  Both terms are
    homogeneous, so U(a u) = sum W G(a u) is B a^q - A a^2 in closed form,
    with A = (m/2) sum W u^2 and B = sum W |u|^q / q: the Hardy retraction
    solves it for the amplitude a.
    """

    m: float = 1.0
    q: float = 3.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValidationError("linear coefficient m must be positive")
        if self.q <= 2:
            raise ValidationError("exponent q must exceed 2")

    def g(self, s):
        s = np.asarray(s, dtype=float)
        return -self.m * s + np.abs(s) ** (self.q - 2.0) * s

    def G(self, s):
        s = np.asarray(s, dtype=float)
        return -0.5 * self.m * s**2 + np.abs(s) ** self.q / self.q

    def check_growth_conditions(self, p: float, pstar: float) -> None:
        """Admissibility of g for the subcritical problem: p < q < p*.

        The rest follows from the closed form with m > 0 and q > 2, both
        checked at construction: g is odd, g(s)/s -> -m at 0, g(s)/s^(p*-1)
        -> 0 exactly when q < p*, and G > 0 for s > (q m / 2)^(1/(q-2)).
        """
        if not (p < self.q < pstar):
            raise ValidationError(
                f"need p < q < p*: got p={p}, q={self.q}, p*={pstar}"
            )


@dataclass(frozen=True)
class ProblemSpec:
    """Which variational problem, with parameters and discretization;
    ``model`` is the variant class's instance, built once here."""

    variant: str
    p: float = 2.0
    n: int = 3
    mu: float = 0.0
    nonlinearity: NonlinearitySpec | None = None
    grid: RadialGrid | None = None
    toy: ToyProblem | None = None
    mu_limit: float | None = field(default=None, init=False, compare=False)
    model: Variant = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "model", _variant_class(self.variant)(self))

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, so that the model
        # and its proxy back to the spec are built afresh.
        args = (self.variant, self.p, self.n, self.mu, self.nonlinearity, self.grid, self.toy)
        return (ProblemSpec, args)

    @property
    def pstar(self) -> float:
        return self.n * self.p / (self.n - self.p)


def _variant_class(name):
    try:
        return VARIANTS[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown variant {name!r}") from None


# --- pointwise helpers -----------------------------------------------------


def _apow(t: np.ndarray, p: float) -> np.ndarray:
    """|t|^p; at p = 2 the product t t, which equals it exactly."""
    return t * t if p == 2.0 else np.abs(t) ** p


def _dphi(du: np.ndarray, p: float) -> np.ndarray:
    """Derivative of |t|^p / p, i.e. |t|^(p-2) t, regularized for p < 2.
    At p = 2 it is ``du`` itself: |t|^0 is exactly 1.0 for every t, +-0,
    inf and nan included, so the general formula multiplies by 1."""
    if p == 2.0:
        return du
    if p > 2.0:
        return np.abs(du) ** (p - 2.0) * du
    return (du * du + GRAD_REG_DELTA**2) ** ((p - 2.0) / 2.0) * du


def _ddphi(du: np.ndarray, p: float):
    """(p-1)|t|^(p-2), the derivative of ``_dphi``, with its regularization.
    At p = 2 it is the scalar 1.0, which the general formula's array of
    (t^2)^0 = 1.0 equals element for element."""
    if p == 2.0:
        return 1.0
    return (p - 1.0) * (du * du + (GRAD_REG_DELTA**2 if p < 2.0 else 0.0)) ** (p / 2.0 - 1.0)


class Iterate(NamedTuple):
    """A point with all that the descent and the polish read of it, evaluated once."""

    x: np.ndarray
    T: float | None  # T(x), None where not given to ``iterate`` (``T_of`` evaluates it)
    gT: np.ndarray  # masked weighted gradient of T
    gU: np.ndarray  # masked weighted gradient of U
    du: object  # the difference quotient T's stiffness reads (None on the toy)
    pw: object  # the power of |x| U, its moments and curvature read (None on the toy, Rayleigh)
    gT_full: np.ndarray  # T's weighted gradient before the mask, the residual's scale


class Fibering(NamedTuple):
    """The fibering map of a point x, f(t) = F(t x) = a t^p + c t^2 - b t^r
    for t > 0 (``Variant.fibering_of``): T is p-homogeneous, and U(t x) =
    b t^r - c t^2 with c >= 0 and r > max(p, 2)."""

    a: float
    c: float
    b: float
    r: float
    p: float

    def __call__(self, t):
        return self.a * t**self.p + self.c * t * t - self.b * t**self.r

    def sup(self):
        """(max, argmax) of f over t > 0.  With a, b > 0, f'(t)/t = p a
        t^(p-2) + 2c - r b t^(r-2) changes sign once, so f has one maximum:
        in closed form where f has two terms (c = 0, or p = 2, where c t^2
        joins a t^p) and at the root of f'(t)/t otherwise.  Past the maximum
        f falls to -inf.  (nan, nan) where a or b is not positive."""
        a, c, b, r, p = self
        if not (a > 0.0 and b > 0.0):
            return math.nan, math.nan
        if c == 0.0 or p == 2.0:
            t = (p * (a + c) / (r * b)) ** (1.0 / (r - p))
        else:
            # f'(t)/t is positive where r b t^(r-2) <= c, and negative where
            # r b t^(r-2) is at least both 8c and 4 p a t^(p-2), with margins
            # far above rounding.
            lo = (c / (r * b)) ** (1.0 / (r - 2.0))
            hi = max((8.0 * c / (r * b)) ** (1.0 / (r - 2.0)),
                     (4.0 * p * a / (r * b)) ** (1.0 / (r - p)))
            def slope(t):  # f'(t) / t
                return p * a * t ** (p - 2.0) + 2.0 * c - r * b * t ** (r - 2.0)
            t = regula_falsi(slope, lo, hi, slope(lo), slope(hi))
        return self(t), t


def _scaled_record(it: Iterate, s: float, p: float, r: float) -> Iterate:
    """The record of s x from the record ``it`` of x, where T is
    p-homogeneous and U r-homogeneous: each field scales by its degree."""
    return Iterate(
        it.x * s,
        it.T * s**p,
        it.gT * s ** (p - 1.0),
        it.gU * s ** (r - 1.0),
        None if it.du is None else it.du * s,
        None if it.pw is None else it.pw * s ** (r - 2.0),
        it.gT_full * s ** (p - 1.0),
    )


# --- the variants ----------------------------------------------------------


class Variant:
    """Defaults shared by the variant classes (see the module docstring)."""

    exact_transport = True
    amplitude_exponents: tuple = ()
    grid: RadialGrid | None = None
    weights = 1.0  # the pairing's quadrature weights W (the grid's; 1 on the toy)

    def F(self, x):
        return self.T(x) - self.U(x)

    def mask(self, g):
        return g

    def precondition(self, g):
        return g

    def hessian(self, x, theta):
        return None

    def bands(self, it: Iterate, theta):
        return None

    def seed_width(self, lam: float):
        return None  # ``seed`` takes no width

    def orbit_point(self, it: Iterate):
        return it.x  # Hardy starts at its orbit's critical point; the others at x

    def at_level(self, y, lam: float):
        x = self.retract(y, lam)
        return x, float(self.T(x)), None

    # The array methods and the records share one formula each, from x and
    # du, x's difference quotient, or pw, its power of |x| (None on the toy).

    def _du(self, x):
        return None

    def _power(self, x):
        return None

    def T(self, x):
        return self._T(x, self._du(x))

    def U(self, x):
        return self._U(x, self._power(x))

    def grad_T(self, x):
        return self._grad_T(x, self._du(x))

    def grad_U(self, x):
        return self._grad_U(x, self._power(x))

    def _U_moments(self, x):
        return self._moments(x, self._power(x))

    def energies(self, x) -> Iterate:
        """x's record without its gradients: all that F and its fibering map read."""
        du, pw = self._du(x), self._power(x)
        return Iterate(x, float(self._T(x, du)), None, None, du, pw, None)

    def iterate(self, x, T=None, aux=None) -> Iterate:
        """x's record, with T and the intermediates where ``at_level`` passes them."""
        du, pw = (self._du(x), self._power(x)) if aux is None else aux
        gT = self._grad_T(x, du)
        return Iterate(x, T, self.mask(gT), self.mask(self._grad_U(x, pw)), du, pw, gT)

    def T_of(self, it: Iterate) -> float:
        """T at the point of the record ``it``: its T, else from its du."""
        return float(self._T(it.x, it.du)) if it.T is None else it.T

    def carry_record(self, it: Iterate, lam0: float, lam: float) -> Iterate:
        """The record of the point ``it`` carried from the level lam0 to the
        level lam: carried (``carry``), retracted and evaluated."""
        return self.iterate(*self.at_level(self.carry(it.x, lam / lam0), lam))

    def fibering_of(self, it: Iterate) -> Fibering:
        """The fibering map t -> F(t x) of the record ``it``'s point x: a =
        T(x), c, b and r from U's moments (U(t x) = b t^r - c t^2)."""
        return Fibering(self.T_of(it), *self._moments(it.x, it.pw), self.p)

    def ray_sup(self, x):
        """(max, argmax) over t > 0 of F(t x) (``Fibering.sup``)."""
        return self.fibering_of(self.energies(x)).sup()

    def transport(self, u, ratio: float):
        return self.wrap(self.carry(self.unwrap(u), ratio))

    def unwrap(self, u) -> np.ndarray:
        return np.asarray(u, dtype=float)

    def wrap(self, x):
        return x


class Toy(Variant):
    """X = R^d, T(u) = |u|^2, U(u) = |u|^q, on plain arrays."""

    name = "toy"
    config_keys = ("variant", "q", "d")
    grad_tol = 1e-8
    c_tol = 1e-6
    p = 2.0  # T's degree of homogeneity

    def __init__(self, spec: ProblemSpec):
        if spec.toy is None:
            raise ValidationError("toy variant needs a ToyProblem")
        self.toy = spec.toy
        self.scaling_exponent = 2.0 / spec.toy.q

    @property
    def U_degree(self) -> float:
        return self.toy.q  # U(s x) = s^q U(x)

    def _T(self, x, du):
        return np.vecdot(x, x)

    def _U(self, x, pw):
        return np.sqrt(np.vecdot(x, x)) ** self.toy.q

    def _grad_T(self, x, du):
        return 2.0 * x

    def _grad_U(self, x, pw):
        # q > 2, so the gradient vanishes at 0 without a special case.
        r = np.sqrt(np.vecdot(x, x))
        return self.toy.q * r[..., None] ** (self.toy.q - 2.0) * x

    def inner(self, a, b):
        return np.vecdot(a, b)

    def _moments(self, x, pw):
        return 0.0, float(self._U(x, pw)), self.toy.q  # U(t x) = t^q U(x)

    def retract(self, x, lam: float):
        r = np.linalg.norm(x)
        if r == 0.0:
            raise InfeasibleError("cannot rescale the zero vector onto the level")
        return x * (lam ** (1.0 / self.toy.q) / r)

    def seed(self, width=None):
        u = np.zeros(self.toy.d)
        u[0] = 1.0
        return u

    def carry(self, x, ratio: float):
        return x * ratio ** (1.0 / self.toy.q)

    def carry_record(self, it: Iterate, lam0: float, lam: float) -> Iterate:
        # U is exactly homogeneous: the carried point is on the level.
        r = self.U_degree
        return _scaled_record(it, (lam / lam0) ** (1.0 / r), self.p, r)

    def paper_lambda_bar(self, i_1: float) -> float:
        alpha = self.scaling_exponent  # nothing printed: the calculus argmax
        return (alpha * i_1) ** (1.0 / (1.0 - alpha))

    @classmethod
    def from_config(cls, cfg: dict) -> ProblemSpec:
        check_keys(cfg, cls.config_keys, "problem")
        d = config_number(cfg, "d", "problem", 2, integer=True)
        toy = ToyProblem(d=d, q=config_number(cfg, "q", "problem"))
        return ProblemSpec(variant=cls.name, toy=toy)


class _Radial(Variant):
    """Radial p-Laplacian energies on a RadialGrid.  Subclasses set
    ``potential``, the per-node weight of the mu term in T, and ``_prec``,
    and define the retraction ``_onto_level`` (which also returns the power
    of |x|), ``_power`` and, from that power, ``_U``, U's moments
    ``_moments``, ``_grad_U`` and U's diagonal curvature ``_curv_U``."""

    config_keys = ("variant", "p", "n", "mu", "mu_fraction_of_limit", "grid")
    grad_tol = 1e-6
    c_tol = 1e-3
    dirichlet = False  # a Dirichlet boundary at R, whose Hessian row is the identity

    def __init__(self, spec: ProblemSpec):
        if spec.grid is None:
            raise ValidationError("PDE variants need a grid")
        if spec.grid.n != spec.n:
            raise ValidationError("grid dimension does not match n")
        if not 1 < spec.p < spec.n:
            raise ValidationError("need 1 < p < n")
        # The spec owns its model; a proxy back to it makes no reference cycle.
        self.spec = weakref.proxy(spec)
        self.grid, self.weights, self.p, self.mu = spec.grid, spec.grid.weights, spec.p, spec.mu

    def unwrap(self, u) -> np.ndarray:
        # Every dispatcher call passes here; the spec's own grid skips the
        # call into the full comparison.
        if u.grid is not self.grid and not u.grid.same_as(self.grid):
            raise GridMismatchError("grid function does not live on the spec's grid")
        return u.values

    def wrap(self, x) -> GridFunction:
        return GridFunction(self.grid, x)

    def _du(self, x):
        return (x[..., 1:] - x[..., :-1]) / self.grid.dr  # np.diff's arithmetic, not its overhead

    def _T(self, x, du):
        p = self.p
        val = np.vecdot(_apow(du, p), self.grid.we)
        if self.mu:
            val = val - np.vecdot(_apow(x, p), self._mu_weights)
        return val / p

    @functools.cached_property
    def _mu_weights(self):
        """The mu term's per-node weight (mu W) V, built once per model,
        read-only."""
        w = self.mu * self.grid.weights * self.potential
        w.flags.writeable = False
        return w

    @functools.cached_property
    def _we_dr(self):  # we / dr, the edge factor of T's gradient, read-only
        c = self.grid.we / self.grid.dr
        c.flags.writeable = False
        return c

    def _grad_T(self, x, du):
        # e[:-1] -= s; e[1:] += s on zeros, as one difference of s padded
        # with zeros: (0 - a) + b is b - a exactly
        sp = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        np.multiply(self._we_dr, _dphi(du, self.p), out=sp[..., 1:-1])
        e = sp[..., :-1] - sp[..., 1:]
        if self.mu:
            e -= self._mu_weights * _dphi(x, self.p)
        e /= self.grid.weights
        return e

    def _stiffness(self, du):
        """T's edge curvature we (p-1)|du|^(p-2) / dr^2: at p = 2 the
        preconditioner's band we / dr^2, which reads no du."""
        if self.p == 2.0:
            return self._prec.band
        return self.grid.we * _ddphi(du, self.p) / self.grid.dr**2

    @functools.cached_property
    def _T_hessian(self):
        """T's Hessian at p = 2, where T = x^T (K - mu W V) x / 2 is a fixed
        quadratic form: its (diagonal, off-diagonal) bands, with the
        variant's Dirichlet row, built once per model, read-only."""
        k = self._stiffness(None)
        d = np.zeros(len(self.grid.weights))
        d[:-1] += k
        d[1:] += k
        if self.mu:
            d -= self._mu_weights
        e = -k
        if self.dirichlet:
            d[-1], e[-1] = 1.0, 0.0
        d.flags.writeable = e.flags.writeable = False
        return d, e

    def _bands(self, x, du, curv, theta):
        """The tridiagonal Euclidean Hessian of T - theta U at x from its
        difference quotient du and U's diagonal curvature.  At p = 2 T's
        part is ``_T_hessian``, whose off-diagonal band is returned as is."""
        if self.p == 2.0:
            d0, e = self._T_hessian
            d = d0 - theta * (self.grid.weights * curv)
        else:
            k = self._stiffness(du)
            d = -theta * self.grid.weights * curv
            if self.mu:
                d -= self._mu_weights * _ddphi(x, self.p)
            d[:-1] += k
            d[1:] += k
            e = -k
            if self.dirichlet:
                e[-1] = 0.0
        if self.dirichlet:
            d[-1] = 1.0
        return d, e

    def inner(self, a, b):
        return np.vecdot(a * b, self.grid.weights)

    def hessian(self, x, theta):
        return self._bands(x, self._du(x), self._curv_U(x, self._power(x)), theta)

    def bands(self, it: Iterate, theta):
        return self._bands(it.x, it.du, self._curv_U(it.x, it.pw), theta)

    def retract(self, x, lam: float):
        return self._onto_level(x, lam)[0]

    def at_level(self, y, lam: float):
        """(x, T(x), the intermediates ``iterate`` reuses) for the
        retraction x of y onto {U = lam}."""
        x, pw = self._onto_level(y, lam)
        du = self._du(x)
        return x, float(self._T(x, du)), (du, pw)

    def precondition(self, g):
        return self._prec.apply(g)

    @classmethod
    def from_config(cls, cfg: dict, **extra) -> ProblemSpec:
        check_keys(cfg, cls.config_keys, "problem")
        if "mu" in cfg and "mu_fraction_of_limit" in cfg:
            raise ValidationError("set mu or mu_fraction_of_limit, not both")
        g, where = cfg.get("grid"), "problem.grid"
        check_keys(g, ("n", "R", "m", "stretch"), where)
        grid = build_radial_grid(
            n=config_number(g, "n", where, integer=True),
            R=config_number(g, "R", where),
            m=config_number(g, "m", where, integer=True),
            stretch=config_number(g, "stretch", where, 1.05),
        )
        p = config_number(cfg, "p", "problem", 2.0)
        n = config_number(cfg, "n", "problem", integer=True)
        mu = config_number(cfg, "mu", "problem", 0.0)
        if "mu_fraction_of_limit" in cfg:
            frac = config_number(cfg, "mu_fraction_of_limit", "problem")
            mu = frac * cls.mu_limit_of(p, n, grid)
        return ProblemSpec(variant=cls.name, p=p, n=n, mu=mu, grid=grid, **extra)


RETRACT_TOL = 1e-10  # |U - lam| / lam on the grid after Hardy's retraction


class Hardy(_Radial):
    """Whole-space problem with the Hardy potential and U = int G(u)."""

    name = "hardy-subcritical"
    config_keys = _Radial.config_keys + ("m", "q")
    exact_transport = False

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        if spec.nonlinearity is None:
            raise ValidationError("hardy-subcritical needs a nonlinearity")
        limit = hardy_constant(spec.p, spec.n)
        if not 0 <= spec.mu < limit:
            raise ValidationError(f"mu must lie in [0, {limit}) (Hardy constant)")
        spec.nonlinearity.check_growth_conditions(spec.p, spec.pstar)
        self.nl = spec.nonlinearity
        self.potential = spec.grid.nodes ** (-spec.p)
        self.scaling_exponent = 1.0 - spec.p / spec.n
        self._prec = Preconditioner.of(spec.grid, False)

    def _power(self, x):
        return np.abs(x) ** (self.nl.q - 2.0)

    def _grad_U(self, x, pw):
        return (pw - self.nl.m) * x  # g(x)

    def _curv_U(self, x, pw):
        return (self.nl.q - 1.0) * pw - self.nl.m  # g'(x)

    def _U(self, x, pw):
        # sum W G(x), G(s) = (|s|^(q-2) / q - m / 2) s^2, from the power g reuses
        return np.vecdot((pw / self.nl.q - 0.5 * self.nl.m) * (x * x), self.grid.weights)

    def _moments(self, x, pw):
        # U(t x) = B t^q - A t^2, A = (m/2) sum W x^2, B = sum W |x|^q / q
        # with |x|^q = pw x^2 from the power of |x| the gradient reads
        q, xx = self.nl.q, x * x
        A = 0.5 * self.nl.m * float(np.vecdot(xx, self.grid.weights))
        B = float(np.vecdot(pw * xx, self.grid.weights)) / q
        return A, B, q

    def _onto_level(self, x, lam: float):
        # Scale the amplitude so that U(a y) = lam, y = x / max|x|.  This is
        # exact on the grid (no resampling), unlike a dilation, whose
        # interpolation error would put a noise floor under the line search.
        # U(a y) = B a^q - A a^2 with A = (m/2) sum W y^2 and B = sum W |y|^q
        # / q, both positive and finite whatever the scale of x, so
        # phi(a) = B a^q - A a^2 - lam has exactly one positive root a*.  At
        # a0 = max((2 lam / B)^(1/q), (2A / B)^(1/(q-2))) half of B a0^q is
        # at least lam and half at least A a0^2, so a0 >= a*.  On [a*, inf) phi
        # is increasing and convex (there a^(q-2) > A/B, and q(q-1) > 2), so
        # Newton's iterates from a0 decrease monotonically to a*; they stop
        # at the first step that does not decrease a, where rounding takes
        # over.  The result is then checked on the grid to RETRACT_TOL; the
        # check's power of |v| is returned for the gradients at v.
        top = float(np.abs(x).max())
        if not 0.0 < top < math.inf:
            raise InfeasibleError("cannot scale a zero or non-finite function onto the level")
        y = x / top
        A, B, q = self._U_moments(y)
        prev = math.inf
        try:
            a = max((2.0 * lam / B) ** (1.0 / q), (2.0 * A / B) ** (1.0 / (q - 2.0)))
            while a < prev:
                prev, Baq = a, B * a**q
                a -= (Baq - A * a * a - lam) / (q * Baq / a - 2.0 * A * a)
        except (OverflowError, ZeroDivisionError):
            raise InfeasibleError("the level's amplitude is out of floating-point range") from None
        v = prev * y
        # v's own power: y's times a^(q-2) puts this cancelling sum 4.5e-12 off U(v)
        pw = self._power(v)
        err = float(self._U(v, pw)) - lam
        if not abs(err) <= RETRACT_TOL * lam:
            # When lam is tiny against either term of U, the closed form and
            # the grid sum cancel differently by more than the tolerance; one
            # Newton step on the grid value, d/da U(a y) = <g(a y), y>,
            # closes the gap.
            v = v - err / float(self.inner(self._grad_U(v, pw), y)) * y
            pw = self._power(v)
            err = float(self._U(v, pw)) - lam
        if not abs(err) <= RETRACT_TOL * lam:
            raise InfeasibleError("amplitude retraction did not reach the level")
        return v, pw

    def seed(self, width=None):
        """The unit bump exp(-(r/w)^2) on the nodes, of width R/15 unless
        ``width`` is given; ``retract`` sets the amplitude for any level."""
        w = width if width is not None else self.grid.R / 15.0
        return GridFunction(self.grid, np.exp(-((self.grid.nodes / w) ** 2)))

    def _orbit_tq2(self, A, B, q):
        # Amplitude t and dilation beta of y scale T(t y(./beta)) = t^p
        # beta^(n-p) T(y) and U(t y(./beta)) = beta^n (B t^q - A t^2)
        # (``_U_moments``), so both the least T on {U = lam} over t and beta
        # and the critical point of F(t y(./beta)) sit at this t^(q-2),
        # whatever T and mu.  Both brackets are positive for 2 < q < p*.
        n, p = self.grid.n, self.p
        return A * (p * n - 2.0 * (n - p)) / (B * (p * n - q * (n - p)))

    @functools.cached_property
    def _seed_level(self):
        # The least T on {U = lam} over the orbit of the R/15 bump is at
        # ``_orbit_tq2`` and beta^n = lam / (B t^q - A t^2); this is that
        # denominator, the level of beta = 1.
        A, B, q = self._U_moments(self.seed().values)
        tq2 = self._orbit_tq2(A, B, q)
        return (B * tq2 - A) * tq2 ** (2.0 / (q - 2.0))

    def _orbit_scales(self, it: Iterate):
        """(t, beta) of the critical point of f(t, beta) = F(t x(./beta)) =
        t^p beta^(n-p) T(x) - beta^n (B t^q - A t^2) over t, beta > 0, x the
        record ``it``'s point: t at ``_orbit_tq2``, and beta^p = p t^p T /
        (q B t^q - 2 A t^2) from df/dt = 0.  None where x is zero or not
        finite, T <= 0 or B <= 0, where f has no such point."""
        x = it.x
        top = float(np.abs(x).max())
        if not 0.0 < top < math.inf:
            return None
        T = self.T_of(it)
        A, B, q = self._moments(x, it.pw)
        # Checked before any power: a negative base would give a complex one.
        if not (0.0 < T < math.inf and 0.0 < B < math.inf and 0.0 <= A < math.inf):
            return None
        tq2 = self._orbit_tq2(A, B, q)
        if not 0.0 < tq2 < math.inf:
            return None
        try:
            t = tq2 ** (1.0 / (q - 2.0))
            beta_p = self.p * t**self.p * T / (t * t * (q * B * tq2 - 2.0 * A))
        except (OverflowError, ZeroDivisionError):
            return None
        if not 0.0 < beta_p < math.inf:
            return None
        return t, beta_p ** (1.0 / self.p)

    def orbit_point(self, it: Iterate):
        """t x(./beta) at ``_orbit_scales``: the critical point of F on the
        amplitude-dilation orbit of the record ``it``'s point x (Jeanjean,
        Nonlinear Anal. 28, 1997), or x itself where there is none.  Near a
        saddle x misses it mostly by that orbit, so the polish starts here."""
        scales = self._orbit_scales(it)
        if scales is None:
            return it.x
        t, beta = scales
        return t * dilate(self.grid, it.x, beta)

    def seed_width(self, lam: float) -> float:
        """The width beta R/15 of the bump whose amplitude and dilation give
        the least T on {U = lam} (``_seed_level``), capped at ``seed``'s
        R/15: wider bumps meet the truncation at R and start slower."""
        return self.grid.R / 15.0 * min(1.0, (lam / self._seed_level) ** (1.0 / self.grid.n))

    def carry(self, x, ratio: float):
        # Dilation maps minimizers at one level near those at the next, but
        # it resamples the profile, so it lands only near the target level.
        return dilate(self.grid, x, ratio ** (1.0 / self.spec.n))

    def paper_lambda_bar(self, i_1: float) -> float:
        # The printed formula uses the factor (n-p)/p where the calculus
        # gives (n-p)/n.
        p, n = self.p, self.spec.n
        return (i_1 * (n - p) / p) ** (n / p)

    @staticmethod
    def mu_limit_of(p: float, n: int, grid: RadialGrid) -> float:
        return hardy_constant(p, n)

    @classmethod
    def from_config(cls, cfg: dict) -> ProblemSpec:
        p = config_number(cfg, "p", "problem", 2.0)
        n = config_number(cfg, "n", "problem", integer=True)
        if not 1 < p < n:  # before p* = n p / (n - p) in the default q
            raise ValidationError("need 1 < p < n")
        q = config_number(cfg, "q", "problem", 0.5 * (p + n * p / (n - p)))  # midway to p*
        nl = NonlinearitySpec(config_number(cfg, "m", "problem", 1.0), q)
        return super().from_config(cfg, nonlinearity=nl)


class Critical(_Radial):
    """Ball with a Dirichlet boundary, the critical Sobolev U and mu |u|^p in T."""

    name = "critical-bounded"
    potential = 1.0
    dirichlet = True

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        if not 1 < spec.p**2 < spec.n:
            raise ValidationError("need 1 < p^2 < n")
        object.__setattr__(spec, "mu_limit", self.mu_limit_of(spec.p, spec.n, spec.grid))
        if not 0 < spec.mu < spec.mu_limit:
            raise ValidationError(f"mu must lie in (0, {spec.mu_limit}) (first eigenvalue)")
        self.pstar = pstar = spec.pstar
        self.scaling_exponent = spec.p / pstar
        # The printed solution-scale exponent is resolved empirically by
        # comparing amplitude factors lam^(1/p*) and lam^(p/p*).
        self.amplitude_exponents = (
            ("amplitude_exponent_1_over_pstar", 1.0 / pstar),
            ("amplitude_exponent_p_over_pstar", spec.p / pstar),
        )
        self._prec = Preconditioner.of(spec.grid, True)

    @property
    def U_degree(self) -> float:
        return self.pstar  # U(s x) = s^p* U(x)

    def _U(self, x, pw):  # sum W |x|^p* / p*, |x|^p* = pw x^2
        return np.vecdot(pw * (x * x), self.grid.weights) / self.pstar

    def _power(self, x):
        a = np.abs(x)
        if self.pstar >= 2.0:
            return a ** (self.pstar - 2.0)
        # |s|^(p*-2) is infinite at s = 0 when p* < 2.  The descent's only
        # zero is the Dirichlet node, where grad U's limit |s|^(p*-2) s is 0
        # and the Hessian row is the identity, so the power is 0 there.
        return np.power(a, self.pstar - 2.0, out=np.zeros_like(a), where=a > 0.0)

    def _grad_U(self, x, pw):
        return pw * x

    def _curv_U(self, x, pw):
        return (self.pstar - 1.0) * pw

    def _moments(self, x, pw):
        return 0.0, float(self._U(x, pw)), self.pstar  # U(t x) = t^p* U(x)

    def mask(self, g):
        g = g.copy()
        g[..., -1] = 0.0
        return g

    def _onto_level(self, x, lam: float):
        Uv = float(self.U(x))
        if Uv <= 0.0:
            raise InfeasibleError("seed has U <= 0; amplitude scaling cannot reach the level")
        v = x * (lam / Uv) ** (1.0 / self.pstar)
        return v, self._power(v)

    def seed(self, width=None):
        grid = self.grid
        vals = np.maximum(1.0 - (grid.nodes / grid.R) ** 2, 0.0)
        vals[-1] = 0.0
        return GridFunction(grid, vals)

    def carry(self, x, ratio: float):
        return x * ratio ** (1.0 / self.pstar)

    def carry_record(self, it: Iterate, lam0: float, lam: float) -> Iterate:
        # The amplitude action is exact on the grid: U(s x) = s^p* U(x), T
        # is p-homogeneous, so a minimizer at lam0 carries to one at lam.
        r = self.U_degree
        it = _scaled_record(it, (lam / lam0) ** (1.0 / r), self.p, r)
        if self.p < 2.0:
            # There |du|^(p-2) du amplifies the rounding by which s du
            # differs from the difference quotient of s x (gT 1.5e-13 apart
            # at p = 1.8, 2.8e-12 at p = 1.5), so du and gT are evaluated.
            du = self._du(it.x)
            gT = self._grad_T(it.x, du)
            it = it._replace(gT=self.mask(gT), du=du, gT_full=gT)
        return it

    def paper_lambda_bar(self, i_1: float) -> float:
        p, pstar = self.p, self.pstar
        return (i_1 * p / pstar) ** (pstar / (pstar - p))

    @staticmethod
    def mu_limit_of(p: float, n: int, grid: RadialGrid) -> float:
        # The first Dirichlet eigenvalue mu_p at this p (see estimate_mu_p):
        # T / U at the minimizer of the Rayleigh model on a level of U, from
        # one inverse iteration on the seed.  It is kept in the grid's memo,
        # unless the descent failed.  constrained imports this module, so its
        # descent is imported at the call.
        from .constrained import descend, seed_record

        key = ("mu_p", p)
        if key in grid.memo:
            return grid.memo[key]
        model = _Rayleigh(grid, p)
        x0 = model.precondition(model.seed().values)
        it, *_, converged = descend(model, seed_record(model, x0, 1.0), 1.0)
        mu_p = float(it.T / model.U(it.x))
        if not converged:
            raise ConvergenceError(f"first Dirichlet eigenvalue at p={p}: no convergence", best=mu_p)
        grid.memo[key] = mu_p
        return mu_p


class _Rayleigh(Critical):
    """The Rayleigh model of mu_p: ``Critical`` with mu = 0 and the exponent
    p in place of p*, so T = (1/p) int |grad u|^p and U = (1/p) int |u|^p."""

    def __init__(self, grid: RadialGrid, p: float):
        self.grid, self.weights, self.p, self.pstar, self.mu = grid, grid.weights, p, p, 0.0
        self._prec = Preconditioner.of(grid, True)

    _power = Variant._power  # U, its gradient and curvature read no power of |x|

    def _U(self, x, pw):
        return np.vecdot(np.abs(x) ** self.p, self.grid.weights) / self.p

    def _grad_U(self, x, pw):
        return _dphi(x, self.p)  # finite at the Dirichlet node for p < 2

    def _curv_U(self, x, pw):
        return _ddphi(x, self.p)


VARIANTS = {cls.name: cls for cls in (Toy, Hardy, Critical)}


# --- energies and gradients (quadrature-weighted pairing) -------------------


def eval_T(spec: ProblemSpec, u) -> float:
    """Quadratic-like part of the energy (kinetic minus singular potential)."""
    model = spec.model
    if isinstance(u, Iterate):
        return model.T_of(u)
    return float(model.T(model.unwrap(u)))


def eval_U(spec: ProblemSpec, u) -> float:
    """Constraint functional: |u|^q (toy), int G(u) (hardy), Sobolev term (critical)."""
    model = spec.model
    if isinstance(u, Iterate):
        return float(model._U(u.x, u.pw))
    return float(model.U(model.unwrap(u)))


def eval_F(spec: ProblemSpec, u) -> float:
    return eval_T(spec, u) - eval_U(spec, u)


def grad_T(spec: ProblemSpec, u):
    model = spec.model
    return model.wrap(model.grad_T(model.unwrap(u)))


def grad_U(spec: ProblemSpec, u):
    model = spec.model
    return model.wrap(model.grad_U(model.unwrap(u)))


def inner(spec: ProblemSpec, a, b) -> float:
    """Quadrature-weighted inner product (Euclidean for the toy)."""
    model = spec.model
    return float(model.inner(model.unwrap(a), model.unwrap(b)))


def norm(spec: ProblemSpec, a) -> float:
    return math.sqrt(max(inner(spec, a, a), 0.0))


def mask(spec: ProblemSpec, g):
    """Zero a gradient on the Dirichlet boundary (identity without one)."""
    model = spec.model
    return model.wrap(model.mask(model.unwrap(g)))


def precondition(spec: ProblemSpec, g):
    """The variant's preconditioned direction for a weighted gradient."""
    model = spec.model
    return model.wrap(model.precondition(model.unwrap(g)))


# --- scalar root ------------------------------------------------------------


RF_FLOOR = 1e-12  # relative step below which regula_falsi stops


def regula_falsi(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of f in [lo, hi], given f_lo = f(lo) > 0 > f_hi = f(hi), by
    regula falsi in its superlinear Illinois variant (Dowell & Jarratt, BIT 11,
    1971): an end kept twice in a row has its value halved.  Stops at a zero
    of f, after 100 steps, or before evaluating f at a next iterate within
    RF_FLOOR * max(1, |b|) of the latest one b: a step that short is below
    the noise of the f that callers solve (a re-minimization's i, a grid
    energy), so b is returned."""
    a, fa, b, fb = lo, f_lo, hi, f_hi  # b: the latest iterate, a: the other end
    for _ in range(100):
        x = b - fb * (b - a) / (fb - fa)
        if abs(x - b) <= RF_FLOOR * max(1.0, abs(b)):
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):  # a is kept again
            fa *= 0.5
        else:
            a, fa = b, fb
        b, fb = x, fx
    return b


# --- tridiagonal solves and preconditioning ---------------------------------


def factor_tridiagonal(d, e):
    """LDL^T without pivoting of the symmetric tridiagonal (d, e): (pivots,
    multipliers, count of negative pivots, which is that of negative
    eigenvalues), or None at a zero pivot or a second negative one.  dpttrf
    stops at a pivot <= 0; past a negative one the trailing block goes on."""
    d, e, info = dpttrf(d, e)
    if info == 0:
        return d, e, 0
    k = info - 1
    if d[k] < 0.0 and k < len(d) - 1:
        d[k + 1] -= e[k] ** 2 / d[k]
        e[k] /= d[k]
        if k < len(d) - 2:  # the trailing block's verdict is its own dpttrf's info
            d[k + 1 :], e[k + 1 :], info = dpttrf(d[k + 1 :], e[k + 1 :])
            return (d, e, 1) if info == 0 else None
    return (d, e, 1) if d[k] < 0.0 and np.all(d[k + 1 :] > 0.0) else None


def solve_tridiagonal(factor, b):
    """Solve with ``factor_tridiagonal``'s factor for b, (m,) or one row per
    right-hand side (k, m); dpttrs solves a stacked row bit for bit alike."""
    return dpttrs(factor[0], factor[1], b.T)[0].T


class Preconditioner:
    """Sobolev (H^1-like) preconditioner: the tridiagonal factor of K + M.

    K is the p=2 stiffness form of the discrete gradient energy and M the
    quadrature mass matrix.  Applied to a weighted gradient it returns the
    gradient in the discrete H^1 inner product, which keeps descent
    iteration counts mesh-independent.  With ``dirichlet`` the boundary row
    of K + M is the identity and its right-hand side is zeroed, so every
    result is exactly 0.0 at R: preconditioned directions need no mask.
    """

    def __init__(self, grid: RadialGrid, dirichlet: bool):
        c = grid.we / grid.dr**2
        diag = grid.weights.copy()
        diag[:-1] += c
        diag[1:] += c
        sub = -c
        if dirichlet:
            diag[-1], sub[-1] = 1.0, 0.0
        c.flags.writeable = False
        self.band = c  # K's edge weights, T's stiffness band at p = 2
        self._factor = factor_tridiagonal(diag, sub)
        self._weights = grid.weights
        self._dirichlet = dirichlet

    @classmethod
    def of(cls, grid: RadialGrid, dirichlet: bool) -> Preconditioner:
        """The grid's preconditioner, built once per boundary condition and
        kept in the grid's memo."""
        key = ("preconditioner", dirichlet)
        if key not in grid.memo:
            grid.memo[key] = cls(grid, dirichlet)
        return grid.memo[key]

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Map weighted gradients, one per row (shape ``(m,)`` or ``(k, m)``),
        to the preconditioned directions, all in one tridiagonal solve."""
        rhs = self._weights * g
        if self._dirichlet:
            rhs[..., -1] = 0.0
        return solve_tridiagonal(self._factor, rhs)


# --- first eigenvalue -------------------------------------------------------


def estimate_mu_p(spec: ProblemSpec) -> float:
    """First Dirichlet eigenvalue mu_p, the minimum of int |grad u|^p / int
    |u|^p over the Dirichlet grid space: the spec's ``mu_limit``, which gates
    mu and is computed once per spec by ``Critical.mu_limit_of``, with the
    constrained minimizer's descent on the Rayleigh model."""
    if not isinstance(spec.model, Critical):
        raise ValidationError("mu_p is defined for the critical-bounded variant")
    return spec.mu_limit


# --- config ----------------------------------------------------------------


def problem_from_config(cfg: dict) -> ProblemSpec:
    return _variant_class(cfg.get("variant")).from_config(cfg)
