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

Methods: ``T``, ``U``, ``grad_T``, ``grad_U``, ``inner``; ``seed`` and
``retract`` onto a level set; ``transport(u, ratio)`` from level lam to
ratio * lam; ``mask`` (Dirichlet boundary); ``precondition``;
``paper_lambda_bar``; ``to_config`` / ``from_config``.  Attributes:
``scaling_exponent``, ``grad_tol``, ``c_tol``, ``exact_transport``,
``amplitude_exponents``.

Gradients are exact derivatives of the discrete energies (variational
discretization), returned in the quadrature-weighted pairing: for any
direction h, d/dt E(u + t h) = <grad, h>_W.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal
from scipy.linalg import eigh as scipy_eigh
from scipy.optimize import brentq

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


@dataclass(frozen=True)
class NonlinearitySpec:
    """The model odd nonlinearity g(s) = -m s + |s|^(q-2) s.

    G is its even primitive -m s^2/2 + |s|^q / q.  ``xi0`` is the first
    positive level found by scanning where G > 0.
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

    def amplitude_integral(self, weights: np.ndarray, s: np.ndarray):
        """The map a -> sum(weights * G(a s)) on scalar amplitudes a > 0.

        G is a sum of two homogeneous terms, so the map is exactly
        -(m/2) a^2 S_2 + a^q S_q / q with S_2 = sum(w s^2) and
        S_q = sum(w |s|^q); both moments are computed here, once.
        """
        half_m_s2 = 0.5 * self.m * float(np.dot(weights, s * s))
        sq_over_q = float(np.dot(weights, np.abs(s) ** self.q)) / self.q
        q = self.q
        return lambda a: -half_m_s2 * a * a + a**q * sq_over_q

    @property
    def xi0(self) -> float:
        for s in np.logspace(-3, 6, 4000):
            if self.G(s) > 0:
                return float(s)
        raise ValidationError("no positive level with G > 0 found")

    def check_growth_conditions(self, p: float, pstar: float) -> None:
        """Admissibility of g for the subcritical problem: odd, strictly
        negative slope at 0, subcritical growth, and a level with G > 0."""
        if not (p < self.q < pstar):
            raise ValidationError(
                f"need p < q < p*: got p={p}, q={self.q}, p*={pstar}"
            )
        samples = np.linspace(-10.0, 10.0, 201)
        if not np.allclose(self.g(-samples), -self.g(samples), atol=1e-12):
            raise ValidationError("g must be odd")
        s_small = (self.m / 2.0) ** (1.0 / (self.q - 2.0))
        s = np.linspace(1e-8, s_small, 50)
        if np.any(self.g(s) / s > -self.m / 2.0 + 1e-12):
            raise ValidationError("g(s)/s must stay below -m/2 near 0")
        s_large = 1e8
        if abs(self.g(s_large)) / s_large ** (pstar - 1.0) > 1e-3:
            raise ValidationError("g grows too fast: need g(s)/s^(p*-1) -> 0")
        if not self.G(self.xi0) > 0:
            raise ValidationError("G(xi0) must be positive")


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
    mu_limit: float | None = field(default=None, compare=False)
    model: Variant = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "model", _variant_class(self.variant)(self))

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, so that the model
        # and its proxy back to the spec are built afresh.
        args = (self.variant, self.p, self.n, self.mu, self.nonlinearity, self.grid, self.toy)
        return (ProblemSpec, (*args, self.mu_limit))

    @property
    def pstar(self) -> float:
        return self.n * self.p / (self.n - self.p)


def _variant_class(name):
    try:
        return VARIANTS[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown variant {name!r}") from None


# --- grid geometry helpers -------------------------------------------------


def edge_geometry(grid: RadialGrid):
    """Per-edge spacing dr and edge quadrature weights for gradient energies.

    Edge k joins nodes k and k+1; its weight is sphere_area * integral of
    r^(n-1) over [r_k, r_{k+1}], so sum(we * |du|^p) approximates the
    n-dimensional integral of |grad u|^p for radial u.  Both arrays are
    computed once, when the grid is built.
    """
    return grid.dr, grid.we


def _check_grid(grid: RadialGrid, u: GridFunction) -> None:
    if not u.grid.same_as(grid):
        raise GridMismatchError("grid function does not live on the spec's grid")


def _dphi(du: np.ndarray, p: float) -> np.ndarray:
    """Derivative of |t|^p / p, i.e. |t|^(p-2) t, regularized for p < 2."""
    if p >= 2.0:
        return np.abs(du) ** (p - 2.0) * du
    return (du * du + GRAD_REG_DELTA**2) ** ((p - 2.0) / 2.0) * du


# --- the variants ----------------------------------------------------------


class Variant:
    """Defaults shared by the variant classes (see the module docstring)."""

    exact_transport = True
    amplitude_exponents: tuple = ()

    def mask(self, g):
        return g

    def precondition(self, g):
        return g


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

    def T(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.dot(u, u))

    def U(self, u) -> float:
        return float(np.linalg.norm(np.asarray(u, dtype=float)) ** self.toy.q)

    def grad_T(self, u):
        return 2.0 * np.asarray(u, dtype=float)

    def grad_U(self, u):
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u)
        if r == 0.0:
            return np.zeros_like(u)
        return self.toy.q * r ** (self.toy.q - 2.0) * u

    def inner(self, a, b) -> float:
        return float(np.dot(np.asarray(a, float), np.asarray(b, float)))

    def retract(self, u, lam: float, tol: float):
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u)
        if r == 0.0:
            raise InfeasibleError("cannot rescale the zero vector onto the level")
        return u * (lam ** (1.0 / self.toy.q) / r)

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
        toy = ToyProblem(d=int(cfg.get("d", 2)), q=float(cfg["q"]))
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

    def T(self, u) -> float:
        grid, p = self.grid, self.p
        _check_grid(grid, u)
        dr, we = edge_geometry(grid)
        du = np.diff(u.values) / dr
        val = float(np.dot(we, np.abs(du) ** p))
        if self.mu:
            val -= self.mu * float(np.dot(grid.weights, self.potential * np.abs(u.values) ** p))
        return val / p

    def grad_T(self, u):
        grid, p = self.grid, self.p
        _check_grid(grid, u)
        dr, we = edge_geometry(grid)
        du = np.diff(u.values) / dr
        s = we * _dphi(du, p) / dr
        e = np.zeros(grid.m)
        e[:-1] -= s
        e[1:] += s
        if self.mu:
            e -= self.mu * grid.weights * self.potential * _dphi(u.values, p)
        return GridFunction(grid, e / grid.weights)

    def inner(self, a, b) -> float:
        return float(np.dot(self.grid.weights, a.values * b.values))

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
        g = cfg["grid"]
        check_keys(g, ("n", "R", "m", "stretch"), "problem.grid")
        grid = build_radial_grid(
            n=int(g["n"]), R=float(g["R"]), m=int(g["m"]), stretch=float(g.get("stretch", 1.05))
        )
        p, n = float(cfg.get("p", 2.0)), int(cfg["n"])
        mu = float(cfg.get("mu", 0.0))
        if "mu_fraction_of_limit" in cfg:
            mu = float(cfg["mu_fraction_of_limit"]) * cls.mu_limit_of(p, n, grid)
        return ProblemSpec(variant=cls.name, p=p, n=n, mu=mu, grid=grid, **extra)


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

    def U(self, u) -> float:
        _check_grid(self.grid, u)
        return float(np.dot(self.grid.weights, self.nl.G(u.values)))

    def grad_U(self, u):
        _check_grid(self.grid, u)
        return GridFunction(self.grid, self.nl.g(u.values))

    def retract(self, u, lam: float, tol: float):
        # Scale the amplitude so that U(a u) = lam.  This is exact on the
        # grid (no resampling), unlike a dilation, whose interpolation error
        # would put a noise floor under the line search.  U(a u) tends to 0
        # from below as a -> 0 and to +inf as a -> inf, so a root exists for
        # every nonzero u and positive lam.  The root search runs on the
        # closed form of a -> U(a u); the result is checked on the grid.
        spec = self.spec
        if norm(spec, u) == 0.0:
            raise InfeasibleError("cannot scale the zero function onto the level")
        U_of = self.nl.amplitude_integral(self.grid.weights, u.values)

        def gap(a):
            return U_of(a) - lam

        hi = 1.0
        for _ in range(200):
            if gap(hi) > 0.0:
                break
            hi *= 2.0
        else:
            raise InfeasibleError("amplitude scaling could not reach the level")
        lo = hi / 2.0
        while gap(lo) > 0.0:
            lo /= 2.0
            if lo < 1e-200:
                raise InfeasibleError("amplitude scaling could not bracket the level")
        a = brentq(gap, lo, hi, xtol=1e-300, rtol=8.9e-16)
        v = a * u
        err = eval_U(spec, v) - lam
        if abs(err) > tol * lam:
            # When lam is tiny against either term of U, the closed form and
            # the grid sum cancel differently by more than the tolerance; one
            # Newton step on the grid value, d/da U(a u) = <g(a u), u>,
            # closes the gap.
            a -= err / inner(spec, grad_U(spec, v), u)
            v = a * u
            err = eval_U(spec, v) - lam
        if abs(err) > tol * lam:
            raise InfeasibleError("amplitude retraction did not reach the level")
        return v

    def seed(self, width=None):
        w = width if width is not None else self.grid.R / 15.0
        prof = np.exp(-((self.grid.nodes / w) ** 2))
        for a in np.logspace(-1.0, 4.0, 120):
            u = GridFunction(self.grid, a * prof)
            if eval_U(self.spec, u) > 0.0:
                return 1.5 * u
        raise InfeasibleError("could not find a bump amplitude with U > 0")

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
        p, n = float(cfg.get("p", 2.0)), int(cfg["n"])
        q = float(cfg.get("q", 0.5 * (p + n * p / (n - p))))  # default: midway to p*
        return super().from_config(cfg, nonlinearity=NonlinearitySpec(float(cfg.get("m", 1.0)), q))


class Critical(_Radial):
    """Ball with a Dirichlet boundary, the critical Sobolev U and mu |u|^p in T."""

    name = "critical-bounded"
    potential = 1.0

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        if not 1 < spec.p**2 < spec.n:
            raise ValidationError("need 1 < p^2 < n")
        limit = spec.mu_limit
        if limit is None and math.isclose(spec.p, 2.0):
            limit = _mu_p_gate(spec.grid)
        if limit is not None and not 0 < spec.mu < limit:
            raise ValidationError(f"mu must lie in (0, {limit}) (first eigenvalue)")
        object.__setattr__(spec, "mu_limit", limit)
        self.pstar = pstar = spec.pstar
        self.scaling_exponent = spec.p / pstar
        # The printed solution-scale exponent is resolved empirically by
        # comparing amplitude factors lam^(1/p*) and lam^(p/p*).
        self.amplitude_exponents = (
            ("amplitude_exponent_1_over_pstar", 1.0 / pstar),
            ("amplitude_exponent_p_over_pstar", spec.p / pstar),
        )
        self._prec = Preconditioner(spec.grid, True)

    def U(self, u) -> float:
        _check_grid(self.grid, u)
        return float(np.dot(self.grid.weights, np.abs(u.values) ** self.pstar) / self.pstar)

    def grad_U(self, u):
        _check_grid(self.grid, u)
        return GridFunction(self.grid, np.abs(u.values) ** (self.pstar - 2.0) * u.values)

    def mask(self, g):
        vals = g.values.copy()
        vals[-1] = 0.0
        return GridFunction(self.grid, vals)

    def retract(self, u, lam: float, tol: float):
        Uv = eval_U(self.spec, u)
        if Uv <= 0.0:
            raise InfeasibleError("seed has U <= 0; amplitude scaling cannot reach the level")
        return u * (lam / Uv) ** (1.0 / self.pstar)

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
        return _mu_p_gate(grid)


VARIANTS = {cls.name: cls for cls in (Toy, Hardy, Critical)}


# --- energies and gradients (quadrature-weighted pairing) -------------------


def eval_T(spec: ProblemSpec, u) -> float:
    """Quadratic-like part of the energy (kinetic minus singular potential)."""
    return spec.model.T(u)


def eval_U(spec: ProblemSpec, u) -> float:
    """Constraint functional: |u|^q (toy), int G(u) (hardy), Sobolev term (critical)."""
    return spec.model.U(u)


def eval_F(spec: ProblemSpec, u) -> float:
    return eval_T(spec, u) - eval_U(spec, u)


def grad_T(spec: ProblemSpec, u):
    return spec.model.grad_T(u)


def grad_U(spec: ProblemSpec, u):
    return spec.model.grad_U(u)


def inner(spec: ProblemSpec, a, b) -> float:
    """Quadrature-weighted inner product (Euclidean for the toy)."""
    return spec.model.inner(a, b)


def norm(spec: ProblemSpec, a) -> float:
    return math.sqrt(max(inner(spec, a, a), 0.0))


# --- preconditioning -------------------------------------------------------


class Preconditioner:
    """Sobolev (H^1-like) preconditioner: banded Cholesky of K + M.

    K is the p=2 stiffness form of the discrete gradient energy and M the
    quadrature mass matrix.  Applied to a weighted gradient it returns the
    gradient in the discrete H^1 inner product, which keeps descent
    iteration counts mesh-independent.
    """

    def __init__(self, grid: RadialGrid, dirichlet: bool):
        dr, we = edge_geometry(grid)
        c = we / dr**2
        m = grid.m
        diag = grid.weights.copy()
        diag[:-1] += c
        diag[1:] += c
        sub = -c.copy()
        if dirichlet:
            diag[-1] = 1.0
            sub[-1] = 0.0
        ab = np.zeros((2, m))
        ab[0] = diag
        ab[1, :-1] = sub
        self._factor = cholesky_banded(ab, lower=True)
        self._weights = grid.weights
        self._dirichlet = dirichlet

    def apply(self, g: GridFunction) -> GridFunction:
        """Map a weighted gradient to the preconditioned direction."""
        rhs = self._weights * g.values
        if self._dirichlet:
            rhs = rhs.copy()
            rhs[-1] = 0.0
        z = cho_solve_banded((self._factor, True), rhs)
        return GridFunction(g.grid, z)


# --- first eigenvalue / Rayleigh quotient ----------------------------------


def _mu_p_gate(grid: RadialGrid) -> float:
    """Smallest eigenvalue of the Dirichlet p=2 stiffness K against the
    diagonal mass D, as the tridiagonal D^(-1/2) K D^(-1/2): an O(m)
    admissibility gate; the public iterative estimate is ``estimate_mu_p``."""
    dr, we = edge_geometry(grid)
    c = we / dr**2
    # Dirichlet at R: only the interior nodes 0..m-2 carry unknowns.
    w = grid.weights[:-1]
    diag = c.copy()
    diag[1:] += c[:-1]
    off = -c[:-1] / np.sqrt(w[:-1] * w[1:])
    vals = eigh_tridiagonal(
        diag / w, off, eigvals_only=True, select="i", select_range=(0, 0)
    )
    return float(vals[0])


def estimate_mu_p(spec: ProblemSpec, tol: float = 1e-12, max_iters: int = 5000) -> float:
    """Minimum of int |grad u|^p / int |u|^p over the Dirichlet grid space.

    Preconditioned gradient descent with normalization.  For p = 2 the
    step is locally optimal: each iterate minimizes the quotient over the
    span of the current point, the preconditioned residual and the
    previous update, which keeps the tail convergence fast.  Raises
    ConvergenceError (carrying the best value) if the budget runs out.
    """
    if not isinstance(spec.model, Critical):
        raise ValidationError("mu_p is defined for the critical-bounded variant")
    grid, p = spec.grid, spec.p
    dr, we = edge_geometry(grid)
    W = grid.weights
    prec = spec.model._prec

    u = 1.0 - (grid.nodes / grid.R) ** 2
    u[-1] = 0.0

    if math.isclose(p, 2.0):
        return _mu_p_descent_quadratic(grid, dr, we, W, prec, u, tol, max_iters)
    return _mu_p_descent_general(grid, dr, we, W, p, prec, u, tol, max_iters)


def _mu_p_descent_quadratic(grid, dr, we, W, prec, u, tol, max_iters) -> float:
    def kmul(v):
        dv = np.diff(v)
        s = we * dv / dr**2
        out = np.zeros_like(v)
        out[:-1] -= s
        out[1:] += s
        return out

    u = u / math.sqrt(float(np.dot(W, u * u)))
    w = None
    ray = float(np.dot(u, kmul(u)))
    for _ in range(max_iters):
        Ku = kmul(u)
        r = Ku - ray * W * u
        r[-1] = 0.0
        z = cho_solve_banded((prec._factor, True), r)
        z[-1] = 0.0
        basis = [u, z] + ([w] if w is not None else [])
        V = np.column_stack(basis)
        GK = V.T @ np.column_stack([kmul(V[:, j]) for j in range(V.shape[1])])
        GM = V.T @ (W[:, None] * V)
        try:
            vals, vecs = scipy_eigh(GK, GM)
        except np.linalg.LinAlgError:
            V = V[:, :2]
            vals, vecs = scipy_eigh(GK[:2, :2], GM[:2, :2])
        y = vecs[:, 0]
        u_new = V @ y
        u_new /= math.sqrt(float(np.dot(W, u_new * u_new)))
        ray_new = float(vals[0])
        improve = ray - ray_new
        w = u_new - u
        u, ray = u_new, ray_new
        if 0 <= improve <= tol * abs(ray):
            return ray
    raise ConvergenceError("Rayleigh quotient descent did not converge", best=ray)


def _mu_p_descent_general(grid, dr, we, W, p, prec, u, tol, max_iters) -> float:
    def ratio_and_grad(u):
        du = np.diff(u) / dr
        A = float(np.dot(we, np.abs(du) ** p))
        B = float(np.dot(W, np.abs(u) ** p))
        ray = A / B
        s = we * _dphi(du, p) / dr * p
        eA = np.zeros(grid.m)
        eA[:-1] -= s
        eA[1:] += s
        eB = p * W * _dphi(u, p)
        r = eA - ray * eB
        r[-1] = 0.0
        return ray, r

    ray, r = ratio_and_grad(u)
    step = 1.0
    for _ in range(max_iters):
        z = cho_solve_banded((prec._factor, True), r)
        z[-1] = 0.0
        accepted = False
        t = step
        for _ in range(40):
            ut = u - t * z
            if np.max(np.abs(ut)) == 0.0:
                t *= 0.5
                continue
            ray_t, r_t = ratio_and_grad(ut)
            if ray_t < ray:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # Monotone and bounded below: a stalled line search means the
            # quotient has converged to floating-point resolution.
            return ray
        u, improve = ut, ray - ray_t
        ray, r = ray_t, r_t
        step = min(t * 2.0, 4.0)
        if improve <= tol * ray:
            return ray
    raise ConvergenceError("Rayleigh quotient descent did not converge", best=ray)


# --- ProblemSpec serialization ---------------------------------------------


def problem_to_config(spec: ProblemSpec) -> dict:
    return spec.model.to_config()


def problem_from_config(cfg: dict) -> ProblemSpec:
    return _variant_class(cfg.get("variant")).from_config(cfg)
