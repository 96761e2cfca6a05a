"""Radial grid construction, quadrature, scaling actions, serialization."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminpass import (
    GridFunction,
    GridMismatchError,
    RadialGrid,
    ScalingAction,
    ValidationError,
    apply_scaling,
    build_radial_grid,
    check_tail,
    quadrature,
)
from maxminpass.cli import _write_gridfunction_csv


def bump(grid, width=0.3):
    return GridFunction(grid, np.exp(-((grid.nodes / width) ** 2)))


class TestBuildRadialGrid:
    def test_two_node_uniform_grid(self):
        grid = build_radial_grid(3, 1.0, 2, 1.0)
        assert np.allclose(grid.nodes, [0.5, 1.0])

    def test_last_node_is_R(self):
        grid = build_radial_grid(5, 30.0, 77, 1.02)
        assert grid.nodes[-1] == pytest.approx(30.0)

    def test_nodes_increasing_and_positive(self):
        grid = build_radial_grid(4, 2.0, 50, 1.03)
        assert grid.nodes[0] > 0
        assert np.all(np.diff(grid.nodes) > 0)

    def test_stretch_grows_cells_geometrically(self):
        grid = build_radial_grid(3, 1.0, 40, 1.05)
        widths = np.diff(np.concatenate(([0.0], grid.nodes)))
        ratios = widths[1:] / widths[:-1]
        assert np.allclose(ratios, 1.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            build_radial_grid(3, 1.0, 1, 1.0)
        with pytest.raises(ValidationError):
            build_radial_grid(3, -1.0, 10, 1.0)
        with pytest.raises(ValidationError):
            build_radial_grid(3, 1.0, 10, 0.0)
        with pytest.raises(ValidationError):
            build_radial_grid(0, 1.0, 10, 1.0)


class TestQuadrature:
    def test_constant_gives_ball_volume(self):
        grid = build_radial_grid(3, 1.0, 400, 1.0)
        one = GridFunction(grid, np.ones(grid.m))
        exact = 4.0 * math.pi / 3.0
        assert quadrature(one) == pytest.approx(exact, rel=1e-3)
        # the midpoint-cell weights integrate constants exactly
        assert quadrature(one) == pytest.approx(exact, rel=1e-12)

    def test_r_squared(self):
        grid = build_radial_grid(3, 1.0, 400, 1.0)
        g = GridFunction(grid, grid.nodes**2)
        assert quadrature(g) == pytest.approx(4.0 * math.pi / 5.0, rel=1e-3)

    def test_zero_function(self):
        grid = build_radial_grid(3, 1.0, 50, 1.0)
        assert quadrature(GridFunction(grid, np.zeros(grid.m))) == 0.0

    @given(a=st.floats(-100.0, 100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a):
        grid = build_radial_grid(3, 1.0, 60, 1.02)
        g = bump(grid)
        assert quadrature(a * g) == pytest.approx(a * quadrature(g), abs=1e-12, rel=1e-12)

    def test_ball_volume_helper(self):
        grid = build_radial_grid(5, 2.0, 10, 1.0)
        exact = math.pi**2.5 / math.gamma(3.5) * 2.0**5
        assert grid.ball_volume() == pytest.approx(exact, rel=1e-12)


class TestScalingActions:
    def test_amplitude_identity(self):
        grid = build_radial_grid(3, 1.0, 30, 1.0)
        u = bump(grid)
        v = apply_scaling(u, ScalingAction("amplitude", 1.0))
        assert np.array_equal(v.values, u.values)

    def test_dilation_identity(self):
        grid = build_radial_grid(3, 1.0, 80, 1.0)
        u = bump(grid)
        v = apply_scaling(u, ScalingAction("dilation", 1.0))
        assert np.allclose(v.values, u.values, atol=1e-10)

    def test_dilation_scales_volume_integrals(self):
        # continuum identity: integral of u(x/beta) = beta^n integral of u
        grid = build_radial_grid(3, 8.0, 800, 1.0)
        u = bump(grid, width=0.5)
        v = apply_scaling(u, ScalingAction("dilation", 2.0))
        assert quadrature(v) == pytest.approx(8.0 * quadrature(u), rel=1e-3)

    def test_amplitude_scales_values(self):
        grid = build_radial_grid(3, 1.0, 30, 1.0)
        u = bump(grid)
        v = apply_scaling(u, ScalingAction("amplitude", 2.5))
        assert np.allclose(v.values, 2.5 * u.values)

    def test_rejects_bad_action(self):
        with pytest.raises(ValidationError):
            ScalingAction("rotation", 2.0)
        with pytest.raises(ValidationError):
            ScalingAction("dilation", -1.0)


class TestDilationContract:
    """Dilation is the linear interpolant of r -> u(r/beta), flat toward 0
    and zero beyond R, on the geometric grids the Hardy runs use."""

    GRIDS = [(800, 1.0049), (800, 50.0 ** (1.0 / 800))]

    @staticmethod
    def dilate(u, beta):
        return apply_scaling(u, ScalingAction("dilation", beta)).values

    @pytest.mark.parametrize("m, stretch", GRIDS)
    def test_unit_dilation_is_bit_for_bit(self, m, stretch):
        grid = build_radial_grid(5, 30.0, m, stretch)
        u = bump(grid, width=2.0)
        assert np.array_equal(self.dilate(u, 1.0), u.values)

    @pytest.mark.parametrize("m, stretch", GRIDS)
    @pytest.mark.parametrize("beta", [0.7, 1.3])
    def test_flat_toward_zero_and_zero_beyond_R(self, m, stretch, beta):
        grid = build_radial_grid(5, 30.0, m, stretch)
        u = GridFunction(grid, 2.0 + np.cos(grid.nodes))
        v = self.dilate(u, beta)
        q = grid.nodes / beta
        assert np.all(v[q < grid.nodes[0]] == u.values[0])
        assert np.all(v[q > grid.R] == 0.0)
        assert np.any(q < grid.nodes[0]) if beta > 1 else np.any(q > grid.R)

    @pytest.mark.parametrize("m, stretch", GRIDS)
    @pytest.mark.parametrize("beta", [0.7, 1.3])
    def test_affine_profile_is_reproduced(self, m, stretch, beta):
        grid = build_radial_grid(5, 30.0, m, stretch)
        u = GridFunction(grid, 3.0 - 0.25 * grid.nodes)
        v = self.dilate(u, beta)
        q = grid.nodes / beta
        inside = (q >= grid.nodes[0]) & (q <= grid.R)
        assert np.allclose(v[inside], 3.0 - 0.25 * q[inside], rtol=0.0, atol=1e-13)

    def test_second_order_on_a_gaussian(self):
        # max error over all nodes, the flat extension toward 0 included
        errors = []
        for m in (400, 800, 1600):
            grid = build_radial_grid(5, 30.0, m, 50.0 ** (1.0 / m))
            u = bump(grid, width=3.0)
            exact = np.exp(-((grid.nodes / (1.3 * 3.0)) ** 2))
            errors.append(np.abs(self.dilate(u, 1.3) - exact).max())
        assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5


class TestGridFunctionAlgebra:
    def test_add_and_scale(self):
        grid = build_radial_grid(3, 1.0, 20, 1.0)
        u, v = bump(grid), bump(grid, width=0.5)
        w = 2.0 * u + v - u
        assert np.allclose(w.values, u.values + v.values)

    def test_grid_mismatch_raises(self):
        a = build_radial_grid(3, 1.0, 20, 1.0)
        b = build_radial_grid(3, 1.0, 21, 1.0)
        with pytest.raises(GridMismatchError):
            bump(a) + bump(b)

    def test_wrong_length_raises(self):
        grid = build_radial_grid(3, 1.0, 20, 1.0)
        with pytest.raises(ValidationError):
            GridFunction(grid, np.zeros(7))


class TestTailCheck:
    def test_compact_bump_passes(self):
        grid = build_radial_grid(3, 10.0, 200, 1.0)
        assert check_tail(bump(grid, width=0.5))

    def test_slow_decay_fails(self):
        grid = build_radial_grid(3, 10.0, 200, 1.0)
        u = GridFunction(grid, 1.0 / (1.0 + grid.nodes))
        with pytest.warns(UserWarning):
            ok = check_tail(u)
        assert not ok


class TestSerialization:
    def test_gridfunction_csv_roundtrip(self, tmp_path):
        grid = build_radial_grid(3, 1.0, 25, 1.01)
        u = bump(grid)
        path = tmp_path / "u.csv"
        _write_gridfunction_csv(path, u)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["r", "value"]
        back = np.array([[float(r), float(v)] for r, v in rows[1:]])
        assert np.array_equal(back[:, 0], grid.nodes)
        assert np.array_equal(back[:, 1], u.values)
