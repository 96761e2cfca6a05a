"""The array methods of the variants against the point-level dispatchers,
the path checks, the descent step's lookup through the module, and the
library endpoint search."""

import numpy as np
import pytest

import maxminpass
from maxminpass import (
    DiscretePath,
    GridFunction,
    GridMismatchError,
    MpaOptions,
    NonlinearitySpec,
    ProblemSpec,
    ToyProblem,
    ValidationError,
    build_radial_grid,
    crosses_all_levels,
    estimate_c,
    eval_F,
    eval_U,
    find_endpoint,
    grad_T,
    grad_U,
    hardy_constant,
    init_path,
    inner,
    mask,
    minimize_on_level,
    precondition,
    scaling_exponent,
    scaling_path,
)

REL = 1e-13


def toy_path(k=16):
    spec = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
    path = init_path(spec, np.array([2.0, 0.0]), k=k)
    # bend the straight path sideways so that the sweep moves every image
    ts = np.linspace(0.0, 1.0, k + 2)
    points = [u + np.array([0.0, 0.4 * np.sin(np.pi * t)]) for u, t in zip(path.points, ts)]
    return spec, DiscretePath(points=points, energies=[eval_F(spec, u) for u in points])


def radial_path(spec, k=12):
    endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
    return spec, init_path(spec, endpoint, k=k)


def bent_radial_path(spec, k=12):
    """``radial_path`` with its interior images reshaped, each by its own
    amount, so that they leave the endpoint's ray."""
    _, path = radial_path(spec, k)
    ts = np.linspace(0.0, 1.0, k + 2)[:, None]
    bend = np.sin(np.pi * ts) * np.cos(np.pi * spec.grid.nodes / spec.grid.R)
    images = path.images * (1.0 + 0.4 * bend)
    return spec, DiscretePath(images, spec.model.F(images), spec.grid)


@pytest.fixture(scope="module", params=["toy", "hardy", "critical"])
def spec_and_path(request, hardy_small, critical_small):
    if request.param == "toy":
        return toy_path()
    return bent_radial_path(hardy_small if request.param == "hardy" else critical_small)


def values(u):
    return u.values if isinstance(u, GridFunction) else np.asarray(u)


def assert_rel_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= REL * scale


class TestArrayMethods:
    def test_stacked_calls_equal_row_by_row(self, spec_and_path):
        spec, path = spec_and_path
        model = spec.model
        x, points = path.images, path.points
        assert_rel_close(model.F(x), [eval_F(spec, u) for u in points])
        for method, dispatcher in (
            (model.grad_T, grad_T),
            (model.grad_U, grad_U),
            (model.precondition, precondition),
            (model.mask, mask),
        ):
            rows = [values(dispatcher(spec, u)) for u in points]
            for got, want in zip(method(x), rows):
                assert_rel_close(got, want)
        # preconditioned directions are already 0 on a Dirichlet boundary,
        # so the descent loops apply no mask to them
        g = model.grad_T(x) - model.grad_U(x)
        for h in (g, g[1]):
            ph = model.precondition(h)
            assert np.array_equal(model.mask(ph), ph)
        d = np.diff(x, axis=0)
        diffs = [b - a for a, b in zip(points, points[1:])]
        assert_rel_close(model.inner(d, d), [inner(spec, v, v) for v in diffs])

    def test_stacked_U_of_the_level_scan(self, spec_and_path):
        # crosses_all_levels takes U of the stacked path: bit-identical to the
        # per-point dispatcher on a radial grid; the toy's array power may
        # round its last bit differently from the scalar one
        spec, path = spec_and_path
        Us = spec.model.U(path.images)
        per_point = [eval_U(spec, u) for u in path.points]
        if spec.variant == "toy":
            np.testing.assert_array_max_ulp(Us, per_point, maxulp=1)
        else:
            assert np.array_equal(Us, per_point)


class TestPathChecks:
    def test_deform_is_called_through_the_module(self, hardy_small, monkeypatch):
        # estimate_c must look deform up on the module at each descent step,
        # so that a wrapper installed there sees every step.  The endpoint's
        # ray is certified before any step, so certification is refused; the
        # run then stops on PATIENCE, after its last step was accepted.
        calls = []
        orig = maxminpass.mpa.deform
        monkeypatch.setattr(maxminpass.mpa, "_certify", lambda *a: (False, np.nan, None, None))

        def counting(x, spec, step, c_sup):
            out = orig(x, spec, step, c_sup)
            calls.append(out)
            return out

        monkeypatch.setattr(maxminpass.mpa, "deform", counting)
        endpoint = find_endpoint(hardy_small, minimize_on_level(hardy_small, 1.0).minimizer)
        result = estimate_c(hardy_small, endpoint, MpaOptions(), k=32)
        assert result.sweeps > maxminpass.mpa.PATIENCE
        assert len(calls) == result.sweeps
        assert [out[1:] for out in calls] == [row[1:] for row in result.trace]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, critical_small, bad):
        spec, path = toy_path()
        points = list(path.points)
        points[3] = np.array([bad, 0.0])
        with pytest.raises(ValidationError):
            DiscretePath(points=points, energies=path.energies)
        spec, path = radial_path(critical_small, k=4)
        images = path.images.copy()
        images[2, 5] = bad
        with pytest.raises(ValidationError):
            DiscretePath(images, path.energies, critical_small.grid)

    def test_level_scan_on_another_grid_rejected(self, hardy_small, critical_small):
        _, path = radial_path(critical_small, k=4)
        assert crosses_all_levels(path, critical_small, [1e-3])
        with pytest.raises(GridMismatchError):
            crosses_all_levels(path, hardy_small, [1e-3])
        _, path = toy_path()
        with pytest.raises(GridMismatchError):
            crosses_all_levels(path, critical_small, [1e-3])

    @pytest.mark.parametrize("energies", [[0.0, 0.2, -12.0], [0.0, 0.1, 0.2, 0.3, -12.0]])
    def test_one_energy_per_image(self, energies):
        # with 5 energies for 4 images the argmax fell past the last image,
        # with 3 it indexed the wrong one
        points = [np.array([r, 0.0]) for r in (0.0, 0.5, 1.0, 2.0)]
        with pytest.raises(ValidationError):
            DiscretePath(points=points, energies=energies)
        with pytest.raises(ValidationError):
            DiscretePath(np.array(points), energies)

    def test_start_and_endpoint_still_checked(self):
        spec, path = toy_path()
        points = list(path.points)
        with pytest.raises(ValidationError):
            DiscretePath(points=points[1:], energies=path.energies[1:])
        energies = path.energies.copy()
        energies[-1] = 0.0
        with pytest.raises(ValidationError):
            DiscretePath(points=points, energies=energies)


class TestFindEndpoint:
    def test_grows_the_level_near_the_hardy_constant(self):
        # At mu = 0.99 H the first candidate, twice the scaling law's first
        # negative level, still has F > 0; five growth steps reach F < 0.
        grid = build_radial_grid(5, 30.0, 200, 50.0 ** (1.0 / 200))
        spec = ProblemSpec(
            variant="hardy-subcritical", p=2.0, n=5, mu=0.99 * hardy_constant(2.0, 5),
            nonlinearity=NonlinearitySpec(1.0, 8.0 / 3.0), grid=grid,
        )
        r1 = minimize_on_level(spec, 1.0)
        lam = 2.0 * r1.i_value ** (1.0 / (1.0 - scaling_exponent(spec)))
        assert eval_F(spec, scaling_path(spec, r1.minimizer, lam)) > 0
        endpoint = find_endpoint(spec, r1.minimizer)
        assert eval_F(spec, endpoint) < 0
        for _ in range(5):
            lam *= 1.5
        expected = scaling_path(spec, r1.minimizer, lam)
        assert np.array_equal(endpoint.values, expected.values)
        assert init_path(spec, endpoint, k=4).energies[-1] < 0

    def test_raises_when_no_level_is_admissible(self):
        # a tiny point has a tiny T, so the search stays where F > 0
        spec = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
        with pytest.raises(ValidationError):
            find_endpoint(spec, np.array([1e-6, 0.0]))
