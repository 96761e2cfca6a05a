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
exactly as a single-image call does.  ``retract(x, lam)`` scales one
image onto the level set {U = lam}; ``hessian(x, theta)`` gives the bands of
the tridiagonal Euclidean Hessian of T - theta U at one image (None on the
toy).  Methods on points (``GridFunction`` for the radial variants, arrays
for the toy): ``seed``; ``transport(u, ratio)`` from level lam to ratio *
lam; ``unwrap`` (grid check) and ``wrap``.  Also ``paper_lambda_bar``; ``to_config`` / ``from_config``.
Attributes: ``scaling_exponent``, ``grad_tol``, ``c_tol``,
``exact_transport``, ``amplitude_exponents``.  The module-level functions
(``eval_T`` ... ``norm``) take points, unwrap them and call the array
methods; they are the public edge, not the inner loops' path.

Gradients are exact derivatives of the discrete energies (variational
discretization), returned in the quadrature-weighted pairing: for any
direction h, d/dt E(u + t h) = <grad, h>_W.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConvergenceError, GridMismatchError, InfeasibleError, ValidationError
from .grids import GridFunction, RadialGrid, ScalingAction, apply_scaling, build_radial_grid
from .toy import ToyProblem

__all__ = [
    "NonlinearitySpec",
    "ProblemSpec",
    "Toy",
    "Hardy",
    "Critical",
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
    "problem_to_config",
    "problem_from_config",
]

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


def _dphi(du: np.ndarray, p: float) -> np.ndarray:
    """Derivative of |t|^p / p, i.e. |t|^(p-2) t, regularized for p < 2."""
    if p >= 2.0:
        return np.abs(du) ** (p - 2.0) * du
    return (du * du + GRAD_REG_DELTA**2) ** ((p - 2.0) / 2.0) * du


def _ddphi(du: np.ndarray, p: float) -> np.ndarray:
    """(p-1)|t|^(p-2), the derivative of ``_dphi``, with its regularization."""
    return (p - 1.0) * (du * du + (GRAD_REG_DELTA**2 if p < 2.0 else 0.0)) ** (p / 2.0 - 1.0)


# --- the variants ----------------------------------------------------------


class Variant:
    """Defaults shared by the variant classes (see the module docstring)."""

    exact_transport = True
    amplitude_exponents: tuple = ()
    grid: RadialGrid | None = None

    def F(self, x):
        return self.T(x) - self.U(x)

    def mask(self, g):
        return g

    def precondition(self, g):
        return g

    def hessian(self, x, theta):
        return None

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

    def __init__(self, spec: ProblemSpec):
        if spec.toy is None:
            raise ValidationError("toy variant needs a ToyProblem")
        self.toy = spec.toy
        self.scaling_exponent = 2.0 / spec.toy.q

    def T(self, x):
        return np.vecdot(x, x)

    def U(self, x):
        return np.sqrt(np.vecdot(x, x)) ** self.toy.q

    def grad_T(self, x):
        return 2.0 * x

    def grad_U(self, x):
        # q > 2, so the gradient vanishes at 0 without a special case.
        r = np.sqrt(np.vecdot(x, x))
        return self.toy.q * r[..., None] ** (self.toy.q - 2.0) * x

    def inner(self, a, b):
        return np.vecdot(a, b)

    def retract(self, x, lam: float):
        r = np.linalg.norm(x)
        if r == 0.0:
            raise InfeasibleError("cannot rescale the zero vector onto the level")
        return x * (lam ** (1.0 / self.toy.q) / r)

    def seed(self, width=None):
        u = np.zeros(self.toy.d)
        u[0] = 1.0
        return u

    def transport(self, u, ratio: float):
        return np.asarray(u, dtype=float) * ratio ** (1.0 / self.toy.q)

    def paper_lambda_bar(self, i_1: float) -> float:
        alpha = self.scaling_exponent  # nothing printed: the calculus argmax
        return (alpha * i_1) ** (1.0 / (1.0 - alpha))

    def to_config(self) -> dict:
        return {"variant": self.name, "q": self.toy.q, "d": self.toy.d}

    @classmethod
    def from_config(cls, cfg: dict) -> ProblemSpec:
        check_keys(cfg, cls.config_keys, "problem")
        d = config_number(cfg, "d", "problem", 2, integer=True)
        toy = ToyProblem(d=d, q=config_number(cfg, "q", "problem"))
        return ProblemSpec(variant=cls.name, toy=toy)


class _Radial(Variant):
    """Radial p-Laplacian energies on a RadialGrid.  Subclasses set
    ``potential``, the per-node weight of the mu term in T, and ``_prec``."""

    config_keys = ("variant", "p", "n", "mu", "mu_fraction_of_limit", "grid")
    grad_tol = 1e-6
    c_tol = 1e-3

    def __init__(self, spec: ProblemSpec):
        if spec.grid is None:
            raise ValidationError("PDE variants need a grid")
        if spec.grid.n != spec.n:
            raise ValidationError("grid dimension does not match n")
        if not 1 < spec.p < spec.n:
            raise ValidationError("need 1 < p < n")
        # The spec owns its model; a proxy back to it makes no reference cycle.
        self.spec = weakref.proxy(spec)
        self.grid, self.p, self.mu = spec.grid, spec.p, spec.mu

    def unwrap(self, u) -> np.ndarray:
        # Every dispatcher call passes here; the spec's own grid skips the
        # call into the full comparison.
        if u.grid is not self.grid and not u.grid.same_as(self.grid):
            raise GridMismatchError("grid function does not live on the spec's grid")
        return u.values

    def wrap(self, x) -> GridFunction:
        return GridFunction(self.grid, x)

    def T(self, x):
        grid, p = self.grid, self.p
        du = np.diff(x, axis=-1) / grid.dr
        val = np.vecdot(np.abs(du) ** p, grid.we)
        if self.mu:
            val = val - self.mu * np.vecdot(self.potential * np.abs(x) ** p, grid.weights)
        return val / p

    def grad_T(self, x):
        grid, p = self.grid, self.p
        dr = grid.dr
        du = np.diff(x, axis=-1) / dr
        s = grid.we * _dphi(du, p) / dr
        e = np.zeros(x.shape)
        e[..., :-1] -= s
        e[..., 1:] += s
        if self.mu:
            e -= self.mu * grid.weights * self.potential * _dphi(x, p)
        return e / grid.weights

    def inner(self, a, b):
        return np.vecdot(a * b, self.grid.weights)

    def hessian(self, x, theta):
        grid = self.grid
        k = grid.we * _ddphi(np.diff(x) / grid.dr, self.p) / grid.dr**2
        d = -theta * grid.weights * self.dgrad_U(x)
        if self.mu:
            d -= self.mu * grid.weights * self.potential * _ddphi(x, self.p)
        d[:-1] += k
        d[1:] += k
        return d, -k

    def precondition(self, g):
        return self._prec.apply(g)

    def to_config(self) -> dict:
        spec, grid = self.spec, self.grid
        grid_cfg = {"n": grid.n, "R": grid.R, "m": grid.m, "stretch": grid.stretch}
        return {"variant": self.name, "p": spec.p, "n": spec.n, "mu": spec.mu, "grid": grid_cfg}

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
        self._prec = Preconditioner(spec.grid, False)

    def U(self, x):
        return np.vecdot(self.nl.G(x), self.grid.weights)

    def grad_U(self, x):
        return self.nl.g(x)

    def dgrad_U(self, x):
        return (self.nl.q - 1.0) * np.abs(x) ** (self.nl.q - 2.0) - self.nl.m

    def retract(self, x, lam: float):
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
        # over.  The result is then checked on the grid to RETRACT_TOL.
        top = float(np.max(np.abs(x)))
        if not 0.0 < top < math.inf:
            raise InfeasibleError("cannot scale a zero or non-finite function onto the level")
        y = x / top
        q = self.nl.q
        A = 0.5 * self.nl.m * float(self.inner(y, y))
        B = float(np.vecdot(np.abs(y) ** q, self.grid.weights)) / q
        prev = math.inf
        try:
            a = max((2.0 * lam / B) ** (1.0 / q), (2.0 * A / B) ** (1.0 / (q - 2.0)))
            while a < prev:
                prev, Baq = a, B * a**q
                a -= (Baq - A * a * a - lam) / (q * Baq / a - 2.0 * A * a)
        except (OverflowError, ZeroDivisionError):
            raise InfeasibleError("the level's amplitude is out of floating-point range") from None
        v = prev * y
        err = float(self.U(v)) - lam
        if not abs(err) <= RETRACT_TOL * lam:
            # When lam is tiny against either term of U, the closed form and
            # the grid sum cancel differently by more than the tolerance; one
            # Newton step on the grid value, d/da U(a y) = <g(a y), y>,
            # closes the gap.
            v = v - err / float(self.inner(self.grad_U(v), y)) * y
            err = float(self.U(v)) - lam
        if not abs(err) <= RETRACT_TOL * lam:
            raise InfeasibleError("amplitude retraction did not reach the level")
        return v

    def seed(self, width=None):
        # The unit bump; ``retract`` sets the amplitude for any level.
        w = width if width is not None else self.grid.R / 15.0
        return GridFunction(self.grid, np.exp(-((self.grid.nodes / w) ** 2)))

    def transport(self, u, ratio: float):
        # Dilation maps minimizers at one level near those at the next, but
        # it resamples the profile, so it lands only near the target level.
        if ratio == 1.0:
            return u
        return apply_scaling(u, ScalingAction("dilation", ratio ** (1.0 / self.spec.n)))

    def paper_lambda_bar(self, i_1: float) -> float:
        # The printed formula uses the factor (n-p)/p where the calculus
        # gives (n-p)/n.
        p, n = self.p, self.spec.n
        return (i_1 * (n - p) / p) ** (n / p)

    def to_config(self) -> dict:
        return {**super().to_config(), "m": self.nl.m, "q": self.nl.q}

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
        self._prec = Preconditioner(spec.grid, True)

    def U(self, x):
        return np.vecdot(np.abs(x) ** self.pstar, self.grid.weights) / self.pstar

    def grad_U(self, x):
        return np.abs(x) ** (self.pstar - 2.0) * x

    def dgrad_U(self, x):
        return (self.pstar - 1.0) * np.abs(x) ** (self.pstar - 2.0)

    def mask(self, g):
        g = g.copy()
        g[..., -1] = 0.0
        return g

    def hessian(self, x, theta):
        d, e = super().hessian(x, theta)
        d[-1], e[-1] = 1.0, 0.0  # the Dirichlet row is the identity
        return d, e

    def retract(self, x, lam: float):
        Uv = float(self.U(x))
        if Uv <= 0.0:
            raise InfeasibleError("seed has U <= 0; amplitude scaling cannot reach the level")
        return x * (lam / Uv) ** (1.0 / self.pstar)

    def seed(self, width=None):
        grid = self.grid
        vals = np.maximum(1.0 - (grid.nodes / grid.R) ** 2, 0.0)
        vals[-1] = 0.0
        return GridFunction(grid, vals)

    def transport(self, u, ratio: float):
        return apply_scaling(u, ScalingAction("amplitude", ratio ** (1.0 / self.pstar)))

    def paper_lambda_bar(self, i_1: float) -> float:
        p, pstar = self.p, self.pstar
        return (i_1 * p / pstar) ** (pstar / (pstar - p))

    @staticmethod
    def mu_limit_of(p: float, n: int, grid: RadialGrid) -> float:
        # The first Dirichlet eigenvalue mu_p at this p (see estimate_mu_p):
        # T / U at the minimizer of the Rayleigh model on a level of U, from
        # one inverse iteration on the seed.  constrained imports this module,
        # so its descent is imported at the call.
        from .constrained import descend

        model = _Rayleigh(grid, p)
        x, T, *_, converged = descend(model, model.precondition(model.seed().values), 1.0)
        mu_p = float(T / model.U(x))
        if not converged:
            raise ConvergenceError(f"first Dirichlet eigenvalue at p={p}: no convergence", best=mu_p)
        return mu_p


class _Rayleigh(Critical):
    """The Rayleigh model of mu_p: ``Critical`` with mu = 0 and the exponent
    p in place of p*, so T = (1/p) int |grad u|^p and U = (1/p) int |u|^p."""

    def __init__(self, grid: RadialGrid, p: float):
        self.grid, self.p, self.pstar, self.mu = grid, p, p, 0.0
        self._prec = Preconditioner(grid, True)

    def grad_U(self, x):
        return _dphi(x, self.p)  # finite at the Dirichlet node for p < 2

    def dgrad_U(self, x):
        return _ddphi(x, self.p)


VARIANTS = {cls.name: cls for cls in (Toy, Hardy, Critical)}


# --- energies and gradients (quadrature-weighted pairing) -------------------


def eval_T(spec: ProblemSpec, u) -> float:
    """Quadratic-like part of the energy (kinetic minus singular potential)."""
    model = spec.model
    return float(model.T(model.unwrap(u)))


def eval_U(spec: ProblemSpec, u) -> float:
    """Constraint functional: |u|^q (toy), int G(u) (hardy), Sobolev term (critical)."""
    model = spec.model
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
        if k < len(d) - 2:
            d[k + 1 :], e[k + 1 :], _ = dpttrf(d[k + 1 :], e[k + 1 :])
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
        self._factor = factor_tridiagonal(diag, sub)
        self._weights = grid.weights
        self._dirichlet = dirichlet

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


# --- ProblemSpec serialization ---------------------------------------------


def problem_to_config(spec: ProblemSpec) -> dict:
    return spec.model.to_config()


def problem_from_config(cfg: dict) -> ProblemSpec:
    return _variant_class(cfg.get("variant")).from_config(cfg)
