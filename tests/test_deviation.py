"""Tests for the normal-deviation limit: rescaled fluctuations around the
gradient flow converge to a Gaussian process with a Lyapunov covariance."""

import functools
import math
import re

import numpy as np
import pytest

from sgdlab import (
    AdditiveGaussianOracle,
    FiniteSumSpec,
    MinibatchOracle,
    builtin,
    deviation_covariance,
    deviation_empirical,
    flow_sup_gap,
)

WELL = builtin("quadratic_well")


def test_lyapunov_covariance_quadratic_closed_form():
    """For F = x^2/2 the limit covariance is int_0^t e^{-2(t-s)} ds."""
    t_grid = np.array([0.5, 1.0])
    covs = deviation_covariance(WELL, np.array([1.0]), t_grid, diffusion=1.0)
    for t, cov in zip(t_grid, covs):
        exact = (1.0 - math.exp(-2.0 * t)) / 2.0
        assert cov[0, 0] == pytest.approx(exact, abs=1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_lyapunov_covariance_refuses_a_non_finite_time(bad):
    """t_grid = [nan] used to return C = 0, and [inf] to raise OverflowError."""
    with pytest.raises(ValueError, match=re.escape(f"t_grid must be finite, got [0.5, {bad}]")):
        deviation_covariance(WELL, np.array([1.0]), [0.5, bad], diffusion=1.0)


def test_empirical_deviations_match_lyapunov_covariance():
    oracle = AdditiveGaussianOracle.isotropic(WELL, 1.0)
    rep = deviation_empirical(
        WELL, oracle, eta=0.01, T=1.0, x0=np.array([1.0]), n_paths=2000, seed=3,
    )
    assert rep.rel_frobenius_err < 0.15
    # rescaled deviations are centred
    se = math.sqrt(rep.lyapunov_cov[0, 0] / rep.n_paths)
    assert abs(rep.empirical_mean[0]) < 4 * se + 0.05


def test_sup_gap_to_flow_shrinks_with_eta():
    oracle = AdditiveGaussianOracle.isotropic(WELL, 1.0)
    gaps = []
    for eta in (0.1, 0.025):
        mean, stderr = flow_sup_gap(
            WELL, oracle, eta, T=1.0, x0=np.array([1.0]), n_paths=400, seed=5,
            experiment="ode-limit",
        )
        assert mean > 0.0 and stderr > 0.0
        gaps.append((mean, stderr))
    (g_hi, se_hi), (g_lo, se_lo) = gaps
    assert g_lo + 3 * se_lo < g_hi - 3 * se_hi


def _affine_components(a, b, x, i):
    x = np.asarray(x, dtype=float)
    return x + a[i] + b[i] * x


def test_minibatch_deviations_read_the_noise_along_the_flow():
    """Components x + a_i + b_i x average to the well's gradient x, and the
    batch noise grows with |x|: the Lyapunov side must read S(Y(s)) along
    the flow (variance 0.496), not S(x0) frozen at the start (0.781)."""
    a = np.array([[1.0], [-1.0], [0.5], [-0.5]])
    b = np.array([[0.6], [-0.6], [-0.3], [0.3]])
    comps = functools.partial(_affine_components, a, b)
    oracle = MinibatchOracle(FiniteSumSpec(WELL, comps, M=4), m=1)
    x0 = np.array([1.5])
    rep = deviation_empirical(WELL, oracle, eta=0.05, T=1.0, x0=x0, n_paths=4000, seed=2)
    along = deviation_covariance(WELL, x0, [1.0], oracle.diffusion_at)[-1]
    frozen = deviation_covariance(WELL, x0, [1.0], oracle.diffusion_at(x0))[-1]
    np.testing.assert_array_equal(rep.lyapunov_cov, along)
    assert along[0, 0] == pytest.approx(0.496, abs=1e-3)
    assert frozen[0, 0] == pytest.approx(0.781, abs=1e-3)
    se = along[0, 0] * math.sqrt(2.0 / rep.n_paths)
    assert abs(rep.empirical_cov[0, 0] - along[0, 0]) < 4 * se + 0.05
