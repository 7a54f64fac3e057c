"""Tests for the built-in potential catalogue and its analysis helpers."""

import numpy as np
import pytest

from sgdlab import (
    Domain,
    FiniteSumSpec,
    builtin,
    classify_stationary,
    gaussian_cloud,
    population_covariance,
    quasi_potential_isotropic,
)

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


def test_asymmetric_double_well_global_minimizer():
    spec = builtin("asym_double_well_1d", params=(-0.05,))
    mins = spec.minimizers()
    assert len(mins) == 2
    (glob,) = spec.global_minimizers()
    assert glob.location[0] > 0.9  # the tilt favours the right-hand well
    vals = sorted(spec.value(cp.location) for cp in mins)
    assert spec.value(glob.location) == pytest.approx(vals[0])


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
    grads = np.array([g(x) for g in fs.component_gradients])
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
    """The SGD engine evaluates a component on (n, dim) stacks of points, so
    a gradient written for one point (x[0] taken as a coordinate) is
    refused at construction."""
    centers = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])[:, :d]
    fs = gaussian_cloud(centers)
    if d == 1:
        per_point = [lambda x, c=c: np.array([x[0] - c[0]]) for c in centers]
    else:
        per_point = [lambda x, c=c: np.array([x[0] - c[0], x[1] - c[1]]) for c in centers]
    with pytest.raises(ValueError, match="row by row"):
        FiniteSumSpec(fs.base, tuple(per_point), len(centers))
    batched = [lambda x, c=c: np.asarray(x) - c for c in centers]
    assert FiniteSumSpec(fs.base, tuple(batched), len(centers)).M == len(centers)


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
