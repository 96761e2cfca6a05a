"""Discrete energies T, U, F = T - U, their gradients, and gating constants.

Three problem variants share one interface:

* ``hardy-subcritical``: T(u) = (1/p) * (int |grad u|^p - mu |x|^-p |u|^p),
  U(u) = int G(u) on truncated R^n, with the odd model nonlinearity
  g(s) = -m s + |s|^(q-2) s.
* ``critical-bounded``: T(u) = (1/p) * (int |grad u|^p - mu |u|^p),
  U(u) = (1/p*) int |u|^p* on a ball with a Dirichlet boundary.
* ``toy``: X = R^d, T(u) = |u|^2, U(u) = |u|^q (closed-form oracle case).

Gradients are exact derivatives of the discrete energies (variational
discretization), returned in the quadrature-weighted pairing: for any
direction h, d/dt E(u + t h) = <grad, h>_W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg import eigh as scipy_eigh

from .errors import ConvergenceError, GridMismatchError, ValidationError
from .grids import GridFunction, RadialGrid, build_radial_grid, grid_from_json, grid_to_json
from .toy import ToyProblem

__all__ = [
    "NonlinearitySpec",
    "ProblemSpec",
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
    """Which variational problem, with parameters and discretization."""

    variant: str
    p: float = 2.0
    n: int = 3
    mu: float = 0.0
    nonlinearity: NonlinearitySpec | None = None
    grid: RadialGrid | None = None
    toy: ToyProblem | None = None
    mu_limit: float | None = field(default=None, compare=False)
    # Per-node weight of the mu term in T: |x|^-p (hardy) or 1 (critical).
    potential: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.variant == "toy":
            if self.toy is None:
                raise ValidationError("toy variant needs a ToyProblem")
            return
        if self.variant not in ("hardy-subcritical", "critical-bounded"):
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.grid is None:
            raise ValidationError("PDE variants need a grid")
        if self.grid.n != self.n:
            raise ValidationError("grid dimension does not match n")
        if not 1 < self.p < self.n:
            raise ValidationError("need 1 < p < n")
        if self.variant == "hardy-subcritical":
            if self.nonlinearity is None:
                raise ValidationError("hardy-subcritical needs a nonlinearity")
            limit = hardy_constant(self.p, self.n)
            if not 0 <= self.mu < limit:
                raise ValidationError(
                    f"mu must lie in [0, {limit}) (Hardy constant)"
                )
            self.nonlinearity.check_growth_conditions(self.p, self.pstar)
            potential = self.grid.nodes ** (-self.p)
        else:
            if not 1 < self.p**2 < self.n:
                raise ValidationError("need 1 < p^2 < n")
            limit = self.mu_limit
            if limit is None and math.isclose(self.p, 2.0):
                limit = _mu_p_dense(self.grid)
            if limit is not None and not 0 < self.mu < limit:
                raise ValidationError(
                    f"mu must lie in (0, {limit}) (first eigenvalue)"
                )
            object.__setattr__(self, "mu_limit", limit)
            potential = np.ones(self.grid.m)
        potential.flags.writeable = False
        object.__setattr__(self, "potential", potential)

    @property
    def pstar(self) -> float:
        return self.n * self.p / (self.n - self.p)

    @property
    def dirichlet(self) -> bool:
        return self.variant == "critical-bounded"


# --- grid geometry helpers -------------------------------------------------


def edge_geometry(grid: RadialGrid):
    """Per-edge spacing dr and edge quadrature weights for gradient energies.

    Edge k joins nodes k and k+1; its weight is sphere_area * integral of
    r^(n-1) over [r_k, r_{k+1}], so sum(we * |du|^p) approximates the
    n-dimensional integral of |grad u|^p for radial u.  Both arrays are
    computed once, when the grid is built.
    """
    return grid.dr, grid.we


def _check_grid(spec: ProblemSpec, u: GridFunction) -> None:
    if not u.grid.same_as(spec.grid):
        raise GridMismatchError("grid function does not live on the spec's grid")


# --- energies --------------------------------------------------------------


def eval_T(spec: ProblemSpec, u) -> float:
    """Quadratic-like part of the energy (kinetic minus singular potential)."""
    if spec.variant == "toy":
        u = np.asarray(u, dtype=float)
        return float(np.dot(u, u))
    _check_grid(spec, u)
    dr, we = edge_geometry(spec.grid)
    du = np.diff(u.values) / dr
    val = float(np.dot(we, np.abs(du) ** spec.p))
    if spec.mu:
        val -= spec.mu * float(
            np.dot(spec.grid.weights, spec.potential * np.abs(u.values) ** spec.p)
        )
    return val / spec.p


def eval_U(spec: ProblemSpec, u) -> float:
    """Constraint functional: |u|^q (toy), int G(u) (hardy), Sobolev term (critical)."""
    if spec.variant == "toy":
        u = np.asarray(u, dtype=float)
        return float(np.linalg.norm(u) ** spec.toy.q)
    _check_grid(spec, u)
    if spec.variant == "hardy-subcritical":
        return float(np.dot(spec.grid.weights, spec.nonlinearity.G(u.values)))
    return float(
        np.dot(spec.grid.weights, np.abs(u.values) ** spec.pstar) / spec.pstar
    )


def eval_F(spec: ProblemSpec, u) -> float:
    return eval_T(spec, u) - eval_U(spec, u)


# --- gradients (quadrature-weighted pairing) -------------------------------


def _dphi(du: np.ndarray, p: float) -> np.ndarray:
    """Derivative of |t|^p / p, i.e. |t|^(p-2) t, regularized for p < 2."""
    if p >= 2.0:
        return np.abs(du) ** (p - 2.0) * du
    return (du * du + GRAD_REG_DELTA**2) ** ((p - 2.0) / 2.0) * du


def grad_T(spec: ProblemSpec, u):
    if spec.variant == "toy":
        return 2.0 * np.asarray(u, dtype=float)
    _check_grid(spec, u)
    dr, we = edge_geometry(spec.grid)
    du = np.diff(u.values) / dr
    s = we * _dphi(du, spec.p) / dr
    e = np.zeros(spec.grid.m)
    e[:-1] -= s
    e[1:] += s
    if spec.mu:
        e -= spec.mu * spec.grid.weights * spec.potential * _dphi(u.values, spec.p)
    return GridFunction(spec.grid, e / spec.grid.weights)


def grad_U(spec: ProblemSpec, u):
    if spec.variant == "toy":
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u)
        if r == 0.0:
            return np.zeros_like(u)
        return spec.toy.q * r ** (spec.toy.q - 2.0) * u
    _check_grid(spec, u)
    if spec.variant == "hardy-subcritical":
        return GridFunction(spec.grid, spec.nonlinearity.g(u.values))
    vals = np.abs(u.values) ** (spec.pstar - 2.0) * u.values
    return GridFunction(spec.grid, vals)


def inner(spec: ProblemSpec, a, b) -> float:
    """Quadrature-weighted inner product (Euclidean for the toy)."""
    if spec.variant == "toy":
        return float(np.dot(np.asarray(a, float), np.asarray(b, float)))
    return float(np.dot(spec.grid.weights, a.values * b.values))


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


def _stiffness_mass(grid: RadialGrid):
    """Dirichlet p=2 stiffness (dense, interior nodes) and mass diagonal."""
    dr, we = edge_geometry(grid)
    c = we / dr**2
    m = grid.m
    K = np.zeros((m, m))
    idx = np.arange(m - 1)
    K[idx, idx] += c
    K[idx + 1, idx + 1] += c
    K[idx, idx + 1] -= c
    K[idx + 1, idx] -= c
    # Dirichlet at R: drop the last node.
    return K[:-1, :-1], grid.weights[:-1]


def _mu_p_dense(grid: RadialGrid) -> float:
    """Dense generalized-eigenvalue value of the p=2 Rayleigh quotient.

    Used only as a fast admissibility gate at spec construction; the
    public iterative estimate is ``estimate_mu_p``.
    """
    from scipy.linalg import eigh

    K, w = _stiffness_mass(grid)
    vals = eigh(K, np.diag(w), eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])


def estimate_mu_p(spec: ProblemSpec, tol: float = 1e-12, max_iters: int = 5000) -> float:
    """Minimum of int |grad u|^p / int |u|^p over the Dirichlet grid space.

    Preconditioned gradient descent with normalization.  For p = 2 the
    step is locally optimal: each iterate minimizes the quotient over the
    span of the current point, the preconditioned residual and the
    previous update, which keeps the tail convergence fast.  Raises
    ConvergenceError (carrying the best value) if the budget runs out.
    """
    if spec.variant != "critical-bounded":
        raise ValidationError("mu_p is defined for the critical-bounded variant")
    grid, p = spec.grid, spec.p
    dr, we = edge_geometry(grid)
    W = grid.weights
    prec = Preconditioner(grid, dirichlet=True)

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
    if spec.variant == "toy":
        return {"variant": "toy", "q": spec.toy.q, "d": spec.toy.d}
    cfg = {
        "variant": spec.variant,
        "p": spec.p,
        "n": spec.n,
        "mu": spec.mu,
        "grid": {
            "n": spec.grid.n,
            "R": spec.grid.R,
            "m": spec.grid.m,
            "stretch": spec.grid.stretch,
        },
    }
    if spec.nonlinearity is not None:
        cfg["m"] = spec.nonlinearity.m
        cfg["q"] = spec.nonlinearity.q
    return cfg


def problem_from_config(cfg: dict) -> ProblemSpec:
    variant = cfg.get("variant")
    if variant == "toy":
        return ProblemSpec(
            variant="toy", toy=ToyProblem(d=int(cfg.get("d", 2)), q=float(cfg["q"]))
        )
    if variant not in ("hardy-subcritical", "critical-bounded"):
        raise ValidationError(f"unknown variant {variant!r}")
    g = cfg["grid"]
    grid = build_radial_grid(
        n=int(g["n"]),
        R=float(g["R"]),
        m=int(g["m"]),
        stretch=float(g.get("stretch", 1.05)),
    )
    p = float(cfg.get("p", 2.0))
    n = int(cfg["n"])
    mu = float(cfg.get("mu", 0.0))
    if "mu_fraction_of_limit" in cfg:
        frac = float(cfg["mu_fraction_of_limit"])
        if variant == "hardy-subcritical":
            mu = frac * hardy_constant(p, n)
        else:
            mu = frac * _mu_p_dense(grid)
    nl = None
    if variant == "hardy-subcritical":
        pstar = n * p / (n - p)
        nl = NonlinearitySpec(
            m=float(cfg.get("m", 1.0)), q=float(cfg.get("q", 0.5 * (p + pstar)))
        )
    return ProblemSpec(variant=variant, p=p, n=n, mu=mu, nonlinearity=nl, grid=grid)
