"""Tests for weak-error measurement against the diffusion limits."""

import math

import numpy as np
import pytest

from sgdlab import (
    AdditiveGaussianOracle,
    EnsembleResult,
    MinibatchOracle,
    PotentialSpec,
    builtin,
    gaussian_cloud,
    gauss_hermite_expectation,
    order_fit,
    weak_error_ladder_linear,
    weak_error_linear,
    weak_error_mc,
)
from sgdlab import weak_error
from sgdlab.sde import em_endpoints_chunk
from sgdlab.sgd import sgd_ensemble_chunk

ETA_LADDER = [0.2, 0.1, 0.05, 0.025, 0.0125]


def test_exact_weak_errors_linear_case():
    pt1 = weak_error_linear(1.0, 0.1, 1.0, T=1.0, x0=1.0, drift_order="first")
    idx = 0  # observable "x"
    assert pt1.errors[idx] == pytest.approx(abs(0.9**10 - math.exp(-1.0)), abs=1e-12)
    assert pt1.errors[idx] == pytest.approx(0.019201, abs=5e-7)

    pt2 = weak_error_linear(1.0, 0.1, 1.0, T=1.0, x0=1.0, drift_order="second")
    assert pt2.errors[idx] == pytest.approx(abs(0.9**10 - math.exp(-1.05)), abs=1e-12)
    assert pt2.errors[idx] == pytest.approx(0.0012593, abs=5e-7)


def test_ladder_orders_first_and_second():
    for order, band in (("first", (0.75, 1.25)), ("second", (1.7, 2.3))):
        rep = weak_error_ladder_linear(1.0, 1.0, 1.0, 1.0, ETA_LADDER, drift_order=order)
        for name in ("x", "x2", "tanh_x"):
            slope = rep.fitted_orders[rep.observables.index(name)]
            assert band[0] <= slope <= band[1], f"{order}/{name}: slope {slope:.4f}"


def test_second_order_errors_dominate_first_order_at_small_eta():
    rep1 = weak_error_ladder_linear(1.0, 1.0, 1.0, 1.0, ETA_LADDER, drift_order="first")
    rep2 = weak_error_ladder_linear(1.0, 1.0, 1.0, 1.0, ETA_LADDER, drift_order="second")
    idx = rep1.observables.index("x")
    e1 = rep1.points[-1].errors[idx]
    e2 = rep2.points[-1].errors[idx]
    assert e2 < 0.2 * e1


def test_order_fit_recovers_synthetic_power_law():
    etas = [0.2, 0.1, 0.05, 0.025]
    errors = [3.0 * e**2 for e in etas]
    fit = order_fit(etas, errors)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)
    assert fit.n_used == 4


def test_order_fit_drops_noise_floor_points():
    etas = [0.2, 0.1, 0.05, 0.025]
    errors = [1e-1 * e for e in etas[:3]] + [1e-12]
    stderrs = [1e-6, 1e-6, 1e-6, 1e-6]
    fit = order_fit(etas, errors, stderrs=stderrs)
    assert fit.n_used < 4


def test_gauss_hermite_matches_normal_moments():
    val = gauss_hermite_expectation(lambda x: x**2, mean=0.3, var=0.49)
    assert val == pytest.approx(0.3**2 + 0.49, abs=1e-12)
    val3 = gauss_hermite_expectation(lambda x: x**3, mean=0.5, var=2.0)
    assert val3 == pytest.approx(0.5**3 + 3 * 0.5 * 2.0, abs=1e-10)


def test_the_gauss_hermite_rule_is_shared_and_read_only():
    nodes, weights = weak_error._hermite_rule(64)
    assert weak_error._hermite_rule(64)[0] is nodes
    expected = np.polynomial.hermite.hermgauss(64)
    assert nodes.tobytes() == expected[0].tobytes()
    assert weights.tobytes() == expected[1].tobytes()
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_monte_carlo_ladder_agrees_with_exact_source():
    pot = builtin("quadratic_well")
    oracle = AdditiveGaussianOracle.isotropic(pot, 1.0)
    etas = [0.2, 0.1, 0.05]
    rep_mc = weak_error_mc(pot, oracle, 1.0, np.array([1.0]), etas, n_paths=20000, seed=6)
    for pt_mc, eta in zip(rep_mc.points, etas):
        pt_exact = weak_error_linear(1.0, eta, 1.0, T=1.0, x0=1.0, drift_order="first")
        idx = rep_mc.observables.index("x")
        tol = 4 * pt_mc.stderrs[idx] + 1e-4
        assert abs(pt_mc.errors[idx] - pt_exact.errors[idx]) < tol


def _hand_built_well(params):
    """F(x) = x^2 (rate 2) under the builtin's name, but not the builtin."""
    return PotentialSpec(
        name="quadratic_well",
        dim=1,
        value=lambda x: np.sum(np.asarray(x, dtype=float) ** 2, axis=-1),
        gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
        hessian=lambda x: np.broadcast_to(np.array([[2.0]]), np.shape(x)[:-1] + (1, 1)),
        params=params,
    )


def _mc_ladder(pot):
    oracle = AdditiveGaussianOracle.isotropic(pot, 1.0)
    return weak_error_mc(pot, oracle, 1.0, np.array([1.0]), [0.2, 0.1, 0.05], n_paths=4000, seed=3)


@pytest.mark.parametrize("params", [(1.0,), ()], ids=["wrong-rate", "no-params"])
def test_exact_diffusion_side_is_keyed_on_the_quadratic_family(params):
    """Only the builtin quadratic well takes the exact OU side, with its rate
    read from the family; a look-alike spec, whatever its name and params,
    simulates both sides and measures the same weak errors."""
    builtin_rep = _mc_ladder(builtin("quadratic_well", (2.0,)))
    assert builtin_rep.method_sde == "exact_sampler"
    assert [p.max_error for p in builtin_rep.points] == pytest.approx(
        [0.05233390546398027, 0.03215162593626136, 0.013802497156564328], rel=1e-12
    )
    rep = _mc_ladder(_hand_built_well(params))
    assert rep.method_sde == "mc"
    for pt, ref in zip(rep.points, builtin_rep.points):
        assert abs(pt.max_error - ref.max_error) < 4 * math.hypot(pt.max_stderr, ref.max_stderr)


def test_a_minibatch_ladder_takes_the_euler_side_with_the_oracles_noise():
    """A mini-batch oracle's diffusion side is the SDE with S(x) =
    ``oracle.diffusion_at(x)``.  The ensembles are replaced by canned
    endpoints whose "x" errors are exactly eta, so only the ladder's own
    logic runs."""
    oracle = MinibatchOracle(gaussian_cloud([[-1.0], [0.0], [0.5], [2.0]]), m=1)
    base = np.linspace(-0.01, 0.01, 500)[:, None]
    sde_configs = []

    def scatter(fn, n_paths, cfg, experiment, *rest):
        if fn is em_endpoints_chunk:
            sde_configs.append(cfg)
            return [base]
        assert fn is sgd_ensemble_chunk and cfg.oracle is oracle
        return [EnsembleResult(endpoints=base + cfg.eta)]

    etas = [0.2, 0.1, 0.05]
    rep = weak_error_mc(oracle.potential, oracle, 1.0, [1.0], etas, n_paths=500, scatter=scatter)
    assert rep.method_sde == "mc"
    assert [cfg.eta for cfg in sde_configs] == etas
    for cfg in sde_configs:
        for x in (-1.0, 0.3, 1.5):
            np.testing.assert_array_equal(cfg.diffusion(np.array([x])), oracle.diffusion_at([x]))
    assert [p.errors[0] for p in rep.points] == pytest.approx(etas, rel=1e-12)
    assert rep.fitted_orders[0] == pytest.approx(1.0, rel=1e-9)
