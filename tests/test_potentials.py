"""Tests for the built-in potential catalogue and its analysis helpers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from sgdlab import (
    CriticalPoint,
    Domain,
    FiniteSumSpec,
    PotentialSpec,
    builtin,
    classify_stationary,
    gaussian_cloud,
    population_covariance,
    quasi_potential_isotropic,
)
from sgdlab.exit_times import _boundary_min
from sgdlab.potentials import diagonal_quadratic_coefficients, double_well_tilt

ALL_BUILTINS = [
    ("quadratic_well", ()),
    ("inverted_quadratic", ()),
    ("double_well_1d", ()),
    ("asym_double_well_1d", (-0.05,)),
    ("saddle_2d", ()),
]


def _finite_difference_errors(spec, n_points, seed, box=2.0):
    """Worst gradient error, Hessian error and Hessian asymmetry of ``spec``
    against central differences (steps 1e-5 of the value, 1e-4 of the
    gradient) at points uniform in [-box, box]^dim, each error relative to
    max(1, norm of the exact quantity)."""
    rng = np.random.default_rng(seed)
    eye = np.eye(spec.dim)
    worst_g = worst_h = worst_asym = 0.0
    for _ in range(n_points):
        x = rng.uniform(-box, box, size=spec.dim)
        fd_grad = np.array(
            [(float(spec.value(x + 1e-5 * e)) - float(spec.value(x - 1e-5 * e))) / 2e-5
             for e in eye]
        )
        g = np.asarray(spec.gradient(x), dtype=float)
        worst_g = max(worst_g, np.linalg.norm(fd_grad - g) / max(1.0, np.linalg.norm(g)))
        fd_hess = np.column_stack(
            [(spec.gradient(x + 1e-4 * e) - spec.gradient(x - 1e-4 * e)) / 2e-4 for e in eye]
        )
        hess = np.asarray(spec.hessian(x), dtype=float)
        worst_h = max(worst_h, np.linalg.norm(fd_hess - hess) / max(1.0, np.linalg.norm(hess)))
        worst_asym = max(worst_asym, float(np.abs(hess - hess.T).max()))
    return worst_g, worst_h, worst_asym


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_gradients_match_finite_differences(name, params):
    spec = builtin(name, params=params)
    grad_err, hess_err, asym = _finite_difference_errors(spec, n_points=40, seed=3)
    passed = grad_err <= 1e-5 and hess_err <= 1e-4 and asym <= 1e-12
    assert passed, f"{name}: grad err {grad_err:.3e}"
    assert grad_err < 1e-6
    assert asym < 1e-8


def test_quadratic_well_critical_points():
    spec = builtin("quadratic_well")
    (cp,) = spec.minimizers()
    assert np.allclose(cp.location, 0.0)
    assert np.allclose(cp.eigenvalues, 1.0)
    assert cp.kind == "minimizer"
    assert len(spec.unstable_points()) == 0


def test_double_well_structure():
    spec = builtin("double_well_1d")
    mins = sorted(cp.location[0] for cp in spec.minimizers())
    assert np.allclose(mins, [-1.0, 1.0], atol=1e-10)
    (top,) = spec.unstable_points()
    assert np.allclose(top.location, 0.0)
    assert top.kind == "maximizer"
    # barrier height F(0) - F(+-1) = 1/4
    barrier = spec.value(top.location) - spec.value(np.array([1.0]))
    assert abs(barrier - 0.25) < 1e-12
    # the exact roots -1, 0, 1 and curvatures 2, -1, 2, each to the bit
    exact = zip(spec.critical_points, (-1.0, 0.0, 1.0), (2.0, -1.0, 2.0), strict=True)
    for cp, root, curv in exact:
        assert cp.location.tobytes() == np.array([root]).tobytes()
        assert cp.eigenvalues.tobytes() == np.array([curv]).tobytes()


def test_asymmetric_double_well_global_minimizer():
    spec = builtin("asym_double_well_1d", params=(-0.05,))
    mins = spec.minimizers()
    assert len(mins) == 2
    (glob,) = spec.global_minimizers()
    assert glob.location[0] > 0.9  # the tilt favours the right-hand well
    vals = sorted(spec.value(cp.location) for cp in mins)
    assert spec.value(glob.location) == pytest.approx(vals[0])


T_MERGE = 2.0 / (3.0 * np.sqrt(3.0))
ELBOW = 1.0 / np.sqrt(3.0)
TILT_BRACKETS = [(-2.0, -ELBOW), (-ELBOW, ELBOW), (ELBOW, 2.0)]


def _tilted_gradient(tilt, s):
    return s * s * s - s + tilt


@settings(max_examples=200, deadline=None)
@given(st.floats(-T_MERGE, T_MERGE, exclude_min=True, exclude_max=True))
@example(T_MERGE - 2e-9)
@example(-(T_MERGE - 2e-9))
@example(1e-300)
@example(-1e-300)
@example(5e-324)
@example(-0.05)
def test_tilted_critical_points_are_sign_changes_to_the_last_float(tilt):
    # Each root is an exact zero of the gradient or the end with the smaller
    # |gradient| of two adjacent floats across which the gradient changes
    # sign.  The subnormal tilts put the saddle among the subnormals.
    if tilt == 0.0 or abs(tilt) >= T_MERGE - 1e-9:
        with pytest.raises(ValueError):
            builtin("asym_double_well_1d", (tilt,))
        return
    cps = builtin("asym_double_well_1d", (tilt,)).critical_points
    for cp, (lo, hi) in zip(cps, TILT_BRACKETS, strict=True):
        root = float(cp.location[0])
        assert lo <= root <= hi
        g = _tilted_gradient(tilt, root)
        if g != 0.0:
            ends = [math.nextafter(root, lo), math.nextafter(root, hi)]
            crossed = [e for e in ends if (_tilted_gradient(tilt, e) < 0) != (g < 0)]
            assert len(crossed) == 1
            assert abs(g) <= abs(_tilted_gradient(tilt, crossed[0]))
        assert cp.eigenvalues.tobytes() == np.array([3.0 * root * root - 1.0]).tobytes()


def test_shipped_tilt_keeps_scipy_brentq_roots_bit_for_bit():
    # Every config, golden, demo and workload tilts by -0.05: its critical
    # points must be, bit for bit, the roots scipy's brentq finds for
    # s ** 3 - s + tilt, so that no digest that reads them moves unseen.
    cps = builtin("asym_double_well_1d", (-0.05,)).critical_points
    for cp, (lo, hi) in zip(cps, TILT_BRACKETS, strict=True):
        root = brentq(lambda s: s ** 3 - s - 0.05, lo, hi, xtol=1e-14, rtol=8.9e-16)
        assert cp.location.tobytes() == np.array([root]).tobytes()
    assert [float(cp.location[0]) for cp in cps] == [
        -0.9739943532312778, -0.050125946983772554, 1.0241203002150503
    ]


@pytest.mark.parametrize("name, params", ALL_BUILTINS)
def test_family_tests_read_the_bound_hessian(name, params):
    # The kernels' family tests: a wrapped gradient keeps the family, a
    # Hessian of the spec's own loses it, and each test knows one family.
    spec = builtin(name, params)
    tilt = {"double_well_1d": 0.0, "asym_double_well_1d": -0.05}.get(name)
    q = {"quadratic_well": [1.0], "inverted_quadratic": [-1.0], "saddle_2d": [-1.0, 1.0]}.get(name)
    wrapped = dataclasses.replace(spec, gradient=lambda x: spec.gradient(x))
    hand_built = dataclasses.replace(spec, hessian=lambda x: spec.hessian(x))
    for s in (spec, wrapped):
        assert double_well_tilt(s) == tilt
        coeffs = diagonal_quadratic_coefficients(s)
        assert (coeffs is None) if q is None else (coeffs.tolist() == q)
    assert double_well_tilt(hand_built) is None
    assert diagonal_quadratic_coefficients(hand_built) is None


def test_saddle_2d_eigenstructure():
    spec = builtin("saddle_2d")
    (cp,) = spec.unstable_points()
    assert np.allclose(cp.location, [0.0, 0.0])
    assert cp.kind == "saddle"
    assert sorted(cp.eigenvalues) == pytest.approx([-1.0, 1.0])


def test_classify_stationary_labels():
    assert classify_stationary(np.array([2.0, 1.0])) == "minimizer"
    assert classify_stationary(np.array([-1.0, -3.0])) == "maximizer"
    assert classify_stationary(np.array([1.0, -1.0])) == "saddle"


def test_gaussian_cloud_component_structure():
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(5, 2))
    fs = gaussian_cloud(centers)
    x = rng.normal(size=2)
    grads = fs.component_gradients(x, np.arange(5))
    assert grads.shape == (5, 2)
    np.testing.assert_allclose(grads, x[None, :] - centers)
    np.testing.assert_allclose(grads.mean(axis=0), fs.base.gradient(x))
    cov = population_covariance(fs, x)
    # population covariance of the component gradients (1/M normalisation)
    centered = grads - grads.mean(axis=0)
    np.testing.assert_allclose(cov, centered.T @ centered / 5, atol=1e-14)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > -1e-14


@pytest.mark.parametrize("d", [1, 2])
def test_finite_sum_rejects_per_point_component_gradients(d):
    """The SGD engine evaluates the indexed map on (n, dim) stacks of points
    and stacks of indices, so a gradient written for one point (x[0] taken
    as a coordinate) or for one index (the first of a stack taken for all)
    is refused at construction."""
    centers = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])[:, :d]
    fs = gaussian_cloud(centers)

    def per_point(x, i):
        return np.array([x[j] - centers[i][j] for j in range(d)])

    def first_index(x, i):
        return np.asarray(x) - centers[int(np.ravel(i)[0])]

    def batched(x, i):
        return np.asarray(x) - centers[i]

    with pytest.raises(ValueError, match="row by row"):
        FiniteSumSpec(fs.base, per_point, len(centers))
    with pytest.raises(ValueError, match="stack of indices"):
        FiniteSumSpec(fs.base, first_index, len(centers))
    assert FiniteSumSpec(fs.base, batched, len(centers)).M == len(centers)


def test_finite_sum_builtin_matches_cloud_helper():
    centers = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])
    spec = builtin("gaussian_cloud_finite_sum", params=tuple(centers.ravel()), dim=2)
    x = np.array([0.25, 0.25])
    np.testing.assert_allclose(spec.base.gradient(x), x - centers.mean(axis=0), atol=1e-12)


def test_quasi_potential_reference_values():
    well = builtin("quadratic_well")
    dw = builtin("double_well_1d")
    assert quasi_potential_isotropic(well, 1.0, Domain.interval(-1, 1)) == pytest.approx(1.0)
    assert quasi_potential_isotropic(well, 1.0, Domain.interval(-0.5, 0.5)) == pytest.approx(0.25)
    assert quasi_potential_isotropic(well, 2.0, Domain.interval(-1, 1)) == pytest.approx(0.25)
    ball = Domain.ball(np.array([1.0]), 0.8)
    assert quasi_potential_isotropic(dw, 1.0, ball) == pytest.approx(0.4608)
    # The boundary searches of more than one dimension: the circle, the
    # sphere of d >= 3 and the faces of a box, each at its closed form.
    flat = builtin("quadratic_well", (1.0, 4.0))
    disc = Domain.ball(np.zeros(2), 1.0)
    assert quasi_potential_isotropic(flat, 1.0, disc) == pytest.approx(1.0)
    well_3d = builtin("quadratic_well", (3.0, 1.0, 2.0))
    sphere = Domain.ball(np.zeros(3), 0.5)
    assert quasi_potential_isotropic(well_3d, 1.0, sphere) == pytest.approx(0.25)
    box = Domain.box([-1.0, -0.4], [1.0, 0.4])
    assert quasi_potential_isotropic(flat, 1.0, box) == pytest.approx(0.64)
    assert quasi_potential_isotropic(flat, 2.0, box) == pytest.approx(0.16)
    # Minima the search must reach: the corners of a square, the short face
    # of a 1000:1 box, one face of a 4-D box and a well 0.01 rad wide on a
    # circle.
    square = Domain.box([-1.0, -1.0], [1.0, 1.0])
    assert quasi_potential_isotropic(_corner_well(), 1.0, square) == pytest.approx(0.5)
    thin = Domain.box([-1000.0, -1.0], [1000.0, 1.0])
    long_well = builtin("quadratic_well", (1e-7, 1.0))
    assert quasi_potential_isotropic(long_well, 1.0, thin) == pytest.approx(0.1)
    # The short faces of long boxes in 3-D and 4-D: a face's share of the
    # starting directions must not be its tiny solid angle.
    for lo, hi, eigs in [
        ([-1000.0, -1.0, -1.0], [1000.0, 1.0, 1.0], (1e-7, 1.0, 1.0)),
        ([-100.0, -1.0, -1.0], [100.0, 1.0, 1.0], (1e-5, 1.0, 1.0)),
        ([-100.0, -1.0, -1.0, -1.0], [100.0, 1.0, 1.0, 1.0], (1e-5, 1.0, 1.0, 1.0)),
    ]:
        long_well = builtin("quadratic_well", eigs)
        assert quasi_potential_isotropic(long_well, 1.0, Domain.box(lo, hi)) == pytest.approx(0.1)
    box_4d = Domain.box([-1.0, -0.5, -0.6, -0.7], [1.2, 0.8, 0.9, 0.75])
    well_4d = builtin("quadratic_well", (1.0, 2.0, 3.0, 4.0))
    assert quasi_potential_isotropic(well_4d, 1.0, box_4d) == pytest.approx(0.5)
    assert quasi_potential_isotropic(_circle_well(), 1.0, disc) == pytest.approx(0.5)


def _separable(q, a, w, phase):
    """F = sum_i q_i x_i^2 / 2 + a_i sin(w_i x_i + phase_i): several local
    minima on each face of a box, and the exact boundary minimum from 1-D
    minima alone."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(0.5 * q * x * x + a * np.sin(w * x + phase), axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return q * x + a * w * np.cos(w * x + phase)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        return (q - a * w * w * np.sin(w * x + phase))[..., :, None] * np.eye(x.shape[-1])

    return PotentialSpec("separable", q.size, value, gradient, hessian)


def _min_on_interval(f, lo, hi):
    """The minimum of a smooth f on [lo, hi]: the best of 2001 grid points,
    refined by a bounded search between its neighbours."""
    grid = np.linspace(lo, hi, 2001)
    values = f(grid)
    k = int(np.argmin(values))
    bracket = (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])
    refined = minimize_scalar(f, bounds=bracket, method="bounded", options={"xatol": 1e-12})
    return min(float(refined.fun), float(values[k]))


def test_boundary_minimum_of_multimodal_separable_boxes():
    """On a box (-h, h) a separable F has its boundary minimum on a face
    x_i = +-h_i, at f_i(+-h_i) plus the other coordinates' 1-D minima.  One
    Nelder-Mead search from the best sample used to end in a local minimum
    of the face: cases 10, 15, 23, 24 and 26 read high by 0.027, 0.053,
    0.013, 0.022 and 1e-4."""
    rng = np.random.default_rng(0)
    laws = [(0.5, 2.0), (0.2, 3.0), (0.0, 0.5), (1.0, 6.0), (0.0, 2.0 * math.pi)]
    for case in range(30):
        half, q, a, w, phase = (rng.uniform(lo, hi, 4) for lo, hi in laws)
        f = [lambda s, i=i: 0.5 * q[i] * s * s + a[i] * np.sin(w[i] * s + phase[i])
             for i in range(4)]
        inner = [_min_on_interval(f[i], -half[i], half[i]) for i in range(4)]
        exact = min(
            float(f[i](side * half[i])) + sum(inner[:i] + inner[i + 1:])
            for i in range(4)
            for side in (-1.0, 1.0)
        )
        got = _boundary_min(_separable(q, a, w, phase), Domain.box(-half, half))
        assert got == pytest.approx(exact, abs=1e-6), case


def _corner_well(b=0.75):
    """F = |x|^2 / 2 - b x1^2 x2^2: a minimizer at 0 and, for b > 1/2, the
    least value on the square's boundary, 1 - b, at its four corners."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2) - b * x[..., 0] ** 2 * x[..., 1] ** 2

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return x - 2.0 * b * x * (x[..., ::-1] ** 2)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        off = -4.0 * b * x1 * x2
        rows = [np.stack([1.0 - 2.0 * b * x2**2, off], -1), np.stack([off, 1.0 - 2.0 * b * x1**2], -1)]
        return np.stack(rows, -2)

    cp = CriticalPoint(np.zeros(2), "minimizer", np.ones(2))
    return PotentialSpec("corner_well", 2, value, gradient, hessian, (cp,))


def _circle_well(depth=0.25, width=0.01, angle=1.234):
    """F = |x|^2 / 2 - depth exp(-|x - p|^2 / (2 width^2)) with p on the unit
    circle: the least value on that circle, 1/2 - depth, at p, in a well
    about ``width`` rad wide."""
    p = np.array([math.cos(angle), math.sin(angle)])

    def bump(x):
        d = np.asarray(x, dtype=float) - p
        return d, depth * np.exp(-np.sum(d * d, axis=-1) / (2.0 * width**2))

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1) - bump(x)[1]

    def gradient(x):
        d, g = bump(x)
        return np.asarray(x, dtype=float) + g[..., None] * d / width**2

    def hessian(x):
        d, g = bump(x)
        outer = d[..., :, None] * d[..., None, :] / width**4
        return np.eye(2) + g[..., None, None] * (np.eye(2) / width**2 - outer)

    cp = CriticalPoint(np.zeros(2), "minimizer", np.ones(2))
    return PotentialSpec("circle_well", 2, value, gradient, hessian, (cp,))
