"""Radial grids, quadrature, and the dilation / amplitude group actions.

A grid discretizes a radial domain in R^n on (0, R].  Quadrature weights
fold in the area of the unit sphere, so ``quadrature`` returns true
n-dimensional integrals of radial integrands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ValidationError

__all__ = [
    "RadialGrid",
    "GridFunction",
    "ScalingAction",
    "build_radial_grid",
    "quadrature",
    "apply_scaling",
    "check_tail",
    "sphere_area",
]


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Nodes and quadrature weights on (0, R].

    Node convention: cell widths grow geometrically away from the origin
    by the factor ``stretch`` (widths are smallest near r = 0, where the
    singular Hardy weight concentrates error); node i sits at the
    cumulative sum of the first i+1 widths, so the first node is one
    (smallest) cell width from the origin and the last node is exactly R.
    There is never a node at r = 0.

    ``weights[i]`` equals ``sphere_area(n) * integral of r^(n-1)`` over the
    cell owned by node i (cells are delimited by midpoints between
    neighboring nodes, with outer boundaries 0 and R), hence the weights
    sum exactly to the volume of the ball of radius R and the rule is a
    midpoint rule, second order on smooth integrands.

    ``dr`` and ``we`` are the per-edge spacing and edge weights, computed
    from the nodes at construction: edge k joins nodes k and k+1, and its
    weight is sphere_area * integral of r^(n-1) over [r_k, r_{k+1}], so
    sum(we * |du|^p) approximates the integral of |grad u|^p for radial u.
    They are read-only and take no part in comparisons.

    ``memo`` keeps what is computed from the grid alone and is costly to
    repeat, for each spec built on it: the first Dirichlet eigenvalue per p
    and the preconditioner's factor per boundary condition (``functionals``
    fills it).  It takes no part in comparisons either.
    """

    n: int
    R: float
    stretch: float
    nodes: np.ndarray
    weights: np.ndarray
    dr: np.ndarray = field(init=False, repr=False, compare=False)
    we: np.ndarray = field(init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.n < 1:
            raise ValidationError("dimension n must be >= 1")
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValidationError("grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0) or nodes[0] <= 0:
            raise ValidationError("nodes must be strictly increasing and positive")
        if not math.isclose(nodes[-1], self.R, rel_tol=1e-12):
            raise ValidationError("last node must equal R")
        if not np.all(weights > 0):
            raise ValidationError("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        dr = np.diff(nodes)
        we = sphere_area(self.n) / self.n * np.diff(nodes**self.n)
        dr.flags.writeable = False
        we.flags.writeable = False
        object.__setattr__(self, "dr", dr)
        object.__setattr__(self, "we", we)

    @property
    def m(self) -> int:
        return self.nodes.size

    def ball_volume(self) -> float:
        """Measure of the ball of radius R in R^n."""
        return sphere_area(self.n) * self.R**self.n / self.n

    def same_as(self, other: "RadialGrid") -> bool:
        if other is self:
            return True
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.nodes, other.nodes)
        )


@dataclass(frozen=True)
class GridFunction:
    """A radial profile u(r) sampled at the grid nodes."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.m,):
            raise ValidationError("values must match the grid size")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values must be finite")
        object.__setattr__(self, "values", values)

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, a):
        return GridFunction(self.grid, self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def _check(self, other):
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("grid functions live on different grids")


@dataclass(frozen=True)
class ScalingAction:
    """One of the two invariances: dilation u(x/beta) or amplitude beta*u."""

    kind: str
    beta: float

    def __post_init__(self):
        if self.kind not in ("dilation", "amplitude"):
            raise ValidationError(f"unknown scaling kind {self.kind!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValidationError("beta must be positive and finite")


def build_radial_grid(n: int, R: float, m: int, stretch: float = 1.05) -> RadialGrid:
    """Construct a geometrically stretched radial grid with midpoint weights.

    ``stretch`` = 1 gives uniform spacing; > 1 clusters nodes toward the
    origin.  With uniform spacing the nodes are R/m, 2R/m, ..., R.
    """
    if n < 1:
        raise ValidationError("dimension n must be >= 1")
    if not (R > 0 and math.isfinite(R)):
        raise ValidationError("truncation radius R must be positive")
    if m < 2:
        raise ValidationError("m too small: need at least 2 nodes")
    if stretch <= 0:
        raise ValidationError("stretch must be positive")

    if math.isclose(stretch, 1.0):
        widths = np.full(m, R / m)
    else:
        ratios = stretch ** np.arange(m)
        widths = R * ratios / ratios.sum()
    nodes = np.cumsum(widths)
    nodes[-1] = R

    # Cell boundaries at midpoints between nodes; outer boundaries 0 and R.
    bounds = np.empty(m + 1)
    bounds[0] = 0.0
    bounds[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
    bounds[-1] = R
    weights = sphere_area(n) / n * np.diff(bounds**n)
    return RadialGrid(n=n, R=R, stretch=stretch, nodes=nodes, weights=weights)


def quadrature(g: GridFunction) -> float:
    """n-dimensional integral of the radial profile: sum of weights * values."""
    return float(np.dot(g.grid.weights, g.values))


def apply_scaling(u: GridFunction, action: ScalingAction) -> GridFunction:
    """Apply a group action to a grid function.

    Amplitude scaling is exact.  Dilation returns the piecewise-linear
    interpolant of r -> u(r/beta) on the same grid: second order, and exact
    at beta = 1.  The profile is extended flat to r = 0 and by zero beyond R
    (decay / Dirichlet convention).
    """
    if action.kind == "amplitude":
        return GridFunction(u.grid, u.values * action.beta)
    return GridFunction(u.grid, dilate(u.grid, u.values, action.beta))


def dilate(grid: RadialGrid, values: np.ndarray, beta: float) -> np.ndarray:
    """The nodal values of r -> u(r/beta), u the piecewise-linear interpolant
    of ``values``, extended flat to r = 0 and by zero beyond R."""
    nodes = grid.nodes
    return np.interp(nodes / beta, nodes, values, right=0.0)


def check_tail(u: GridFunction, rel_tol: float = 1e-8) -> bool:
    """Warn if the profile has not decayed over the last tenth of the nodes.

    Returns True when the tail is negligible relative to the max amplitude.
    """
    m = u.grid.m
    tail = np.abs(u.values[-max(1, m // 10):]).max()
    peak = np.abs(u.values).max()
    ok = peak == 0.0 or tail <= rel_tol * peak
    if not ok:
        warnings.warn(
            "profile tail is not negligible at the truncation radius; "
            "consider a larger R",
            stacklevel=2,
        )
    return ok
