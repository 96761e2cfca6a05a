"""The stacked path deformation against its per-image reference, the
broken-line path sup against the two-segment reference, the array methods of
the variants against the point-level dispatchers, and the library endpoint
search."""

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
    deform,
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
from maxminpass.mpa import _path_sup

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


@pytest.fixture(scope="module", params=["toy", "hardy", "critical"])
def spec_and_path(request, hardy_small, critical_small):
    if request.param == "toy":
        return toy_path()
    return radial_path(hardy_small if request.param == "hardy" else critical_small)


def values(u):
    return u.values if isinstance(u, GridFunction) else np.asarray(u)


def assert_rel_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= REL * scale


class TestStackedSweep:
    @pytest.mark.parametrize("step", [0.2, 0.002])
    def test_matches_per_image_reference(self, spec_and_path, deform_oracle, step):
        spec, path = spec_and_path
        for _ in range(2):
            new = deform(path, spec, step)
            points, energies = deform_oracle(path, spec, step)
            assert_rel_close(new.images, [values(u) for u in points])
            assert_rel_close(new.energies, energies)
            path = DiscretePath(points=points, energies=energies)

    def test_points_keep_their_kind(self, spec_and_path):
        spec, path = spec_and_path
        new = deform(path, spec, 0.2)
        kind = np.ndarray if spec.variant == "toy" else GridFunction
        assert all(isinstance(u, kind) for u in new.points)
        assert len(new.points) == new.images.shape[0]
        assert not new.images.flags.writeable


def bent_path(spec, radii, energies=None):
    """Toy path whose image i sits at radius radii[i] and angle 0.3 i, so
    that each image is a corner; energies default to F's."""
    points = [r * np.array([np.cos(0.3 * i), np.sin(0.3 * i)]) for i, r in enumerate(radii)]
    if energies is None:
        energies = [eval_F(spec, u) for u in points]
    return DiscretePath(points=points, energies=energies)


class TestPathSup:
    @pytest.mark.parametrize("case", ["toy2.5", "toy4", "toy6", "hardy", "critical"])
    def test_estimate_c_matches_two_segment_sup(
        self, case, hardy_small, critical_small, path_sup_oracle, monkeypatch
    ):
        if case.startswith("toy"):
            q = float(case[3:])
            spec = ProblemSpec(variant="toy", toy=ToyProblem(2, q))
            r = 2.0
            while r**2 - r**q >= 0:
                r *= 2.0
            args = (np.array([r, 0.0]), MpaOptions(step=0.05), 48)
        else:
            spec = hardy_small if case == "hardy" else critical_small
            endpoint = find_endpoint(spec, minimize_on_level(spec, 1.0).minimizer)
            args = (endpoint, MpaOptions(), 32)
        # The certified stop reads the sup point, which the reference's
        # searches locate only to Brent's tolerance, so both runs stop on
        # patience.
        monkeypatch.setattr(maxminpass.mpa, "_certify", lambda *a: (False, np.nan, None, None))
        new = estimate_c(spec, *args)
        monkeypatch.setattr(maxminpass.mpa, "_path_sup", path_sup_oracle)
        old = estimate_c(spec, *args)
        assert not new.converged and not old.converged
        assert new.sweeps == old.sweeps
        assert [row[2] for row in new.trace] == [row[2] for row in old.trace]
        assert abs(new.c_mpa - old.c_mpa) <= REL * abs(old.c_mpa)

    @pytest.mark.parametrize(
        "radii, j",
        [
            ([0.0, 0.4, 0.8, 1.5, 2.0], 2),  # sup inside the left segment
            ([0.0, 0.6, 0.9, 1.5, 2.0], 1),  # sup inside the right segment
            ([0.0, 0.3, 0.5**0.5, 1.2, 2.0], 2),  # sup at the argmax image
        ],
    )
    def test_hand_built_paths_match_two_segment_sup(self, radii, j, path_sup_oracle):
        # F(u) = |u|^2 - |u|^4 peaks on the circle |u| = 1/sqrt(2) with value
        # 1/4, which every segment between the radii 0.4 and 0.8 (left) or
        # 0.6 and 0.9 (right) crosses
        spec = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
        path = bent_path(spec, radii)
        assert path.argmax_index == j
        sup, top = _path_sup(path, spec)
        assert abs(sup - path_sup_oracle(path, spec)[0]) <= REL
        assert sup >= path.max_energy
        assert spec.model.F(top) == sup
        assert sup == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_argmax_at_an_end_clips_the_bounds(self, end, path_sup_oracle, monkeypatch):
        # the one segment next to the argmax crosses the circle |u| = 1/sqrt(2);
        # only that segment is searched, and the sup point lies on it
        spec = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
        if end == "first":
            path = bent_path(spec, [0.0, 1.5, 1.8, 2.0])
            j, k = 0, 1
        else:
            # F(0) = 0 > F(endpoint), so a path carrying F's energies never
            # peaks at its endpoint; this one carries made-up energies
            path = bent_path(spec, [0.0, 0.3, 0.6, 0.9], energies=[-20.0, -15.0, -13.0, -12.0])
            j, k = 3, 2
        seen = []
        root = maxminpass.mpa.regula_falsi

        def spy(f, lo, hi, f_lo, f_hi):
            seen.append((lo, hi))
            return root(f, lo, hi, f_lo, f_hi)

        monkeypatch.setattr(maxminpass.mpa, "regula_falsi", spy)
        sup, top = _path_sup(path, spec)
        assert seen == [(0.0, 1.0)]
        x_j, d = path.images[j], path.images[k] - path.images[j]
        s = np.dot(top - x_j, d) / np.dot(d, d)
        assert 0.0 < s < 1.0
        assert np.allclose(top, x_j + s * d, rtol=0.0, atol=1e-15)
        assert abs(sup - path_sup_oracle(path, spec)[0]) <= REL
        assert sup == pytest.approx(0.25, abs=1e-15)

    def test_at_most_25_energy_calls_per_sup(self, monkeypatch):
        spec, path = toy_path()
        calls = []
        F = spec.model.F

        def counting(x):
            calls.append(1)
            return F(x)

        for _ in range(5):
            path = deform(path, spec, 0.05)
            calls.clear()
            monkeypatch.setattr(spec.model, "F", counting)
            _path_sup(path, spec)
            monkeypatch.undo()
            assert 0 < len(calls) <= 25


class TestArrayMethods:
    def test_stacked_calls_equal_row_by_row(self, spec_and_path):
        spec, path = spec_and_path
        model = spec.model
        path = deform(path, spec, 0.2)
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
    def test_deform_is_called_through_the_module(self, monkeypatch):
        # estimate_c must look deform up on the module at each sweep, so that
        # a wrapper installed there sees every sweep.  The toy's straight
        # path is certified before any sweep, so certification is refused.
        calls = []
        orig = maxminpass.mpa.deform
        monkeypatch.setattr(maxminpass.mpa, "_certify", lambda *a: (False, np.nan, None, None))

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(maxminpass.mpa, "deform", counting)
        spec = ProblemSpec(variant="toy", toy=ToyProblem(2, 4.0))
        result = estimate_c(spec, np.array([2.0, 0.0]), MpaOptions(step=0.05), k=16)
        assert result.sweeps > 0
        assert len(calls) == result.sweeps

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

    def test_path_on_another_grid_rejected(self, hardy_small, critical_small):
        _, path = radial_path(critical_small, k=4)
        with pytest.raises(GridMismatchError):
            deform(path, hardy_small, 0.2)
        _, path = toy_path()
        with pytest.raises(GridMismatchError):
            deform(path, critical_small, 0.2)

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
