"""Tests for mini-batch gradient oracles and their noise covariance laws."""

import math

import numpy as np
import pytest

from sgdlab import (
    AdditiveGaussianOracle,
    MinibatchOracle,
    builtin,
    covariance_report,
    enumerate_covariance,
    gaussian_cloud,
    minibatch_covariance,
    population_covariance,
    psd_sqrt,
)


def _random_cloud(rng, M, dim=3):
    return gaussian_cloud(rng.normal(size=(M, dim)))


def test_without_replacement_formula_matches_enumeration():
    """Exact subsample-covariance law checked against brute-force enumeration."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 9))
        fs = _random_cloud(rng, M)
        x = rng.normal(size=3)
        for m in range(1, M + 1):
            rep = covariance_report(fs, x, m)
            worst = max(worst, rep.max_abs_diff)
    assert worst <= 1e-12


def test_with_replacement_formula_matches_enumeration():
    rng = np.random.default_rng(7)
    worst = 0.0
    for M in (2, 3, 4, 5, 6):
        fs = _random_cloud(rng, M)
        x = rng.normal(size=3)
        for m in (1, 2, 3):
            formula = population_covariance(fs, x) / m
            brute = enumerate_covariance(fs, x, m, mode="with_replacement")
            worst = max(worst, float(np.max(np.abs(formula - brute))))
    assert worst <= 1e-12


def test_full_batch_without_replacement_is_noiseless():
    rng = np.random.default_rng(0)
    fs = _random_cloud(rng, 6)
    x = rng.normal(size=3)
    cov = minibatch_covariance(fs, x, 6)
    np.testing.assert_allclose(cov, 0.0, atol=1e-14)


def test_scalar_hand_examples():
    # one-dimensional gradients {-1, +1}: a single draw has variance 1
    fs = gaussian_cloud(np.array([[1.0], [-1.0]]))
    cov = minibatch_covariance(fs, np.zeros(1), 1)
    assert cov[0, 0] == pytest.approx(1.0, abs=1e-14)
    # gradients {1, 2, 3, 4}, batches of two without replacement: variance 5/12
    fs4 = gaussian_cloud(-np.array([[1.0], [2.0], [3.0], [4.0]]))
    cov4 = minibatch_covariance(fs4, np.zeros(1), 2)
    assert cov4[0, 0] == pytest.approx(5.0 / 12.0, abs=1e-14)


def test_covariance_shrinks_with_batch_size():
    rng = np.random.default_rng(3)
    fs = _random_cloud(rng, 8)
    x = rng.normal(size=3)
    traces = [np.trace(minibatch_covariance(fs, x, m)) for m in (1, 2, 4, 8)]
    assert traces[0] > traces[1] > traces[2] > traces[3] >= 0.0


def test_enumeration_guard_rejects_huge_index_sets():
    rng = np.random.default_rng(1)
    fs = _random_cloud(rng, 40)
    with pytest.raises(ValueError):
        enumerate_covariance(fs, np.zeros(3), 20)


def test_psd_sqrt_factorisation():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    sigma = a @ a.T
    s = psd_sqrt(sigma)
    np.testing.assert_allclose(s @ s.T, sigma, atol=1e-10)
    # rank-deficient input
    b = rng.normal(size=(4, 2))
    sigma2 = b @ b.T
    s2 = psd_sqrt(sigma2)
    np.testing.assert_allclose(s2 @ s2.T, sigma2, atol=1e-10)


def test_single_draw_law_m1():
    """m=1 without replacement picks each component gradient uniformly."""
    fs = gaussian_cloud(np.array([[1.0], [-1.0]]))
    oracle = MinibatchOracle(fs, 1)
    rng = np.random.default_rng(123)
    draws = np.array([oracle.sample(np.zeros(1), rng)[0] for _ in range(4000)])
    values = np.unique(draws)
    np.testing.assert_allclose(values, [-1.0, 1.0])
    frac = np.mean(draws > 0)
    assert abs(frac - 0.5) < 4 * 0.5 / math.sqrt(4000)


def test_sampled_gradients_are_unbiased():
    rng = np.random.default_rng(17)
    fs = _random_cloud(rng, 7)
    x = rng.normal(size=3)
    oracle = MinibatchOracle(fs, 3)
    n = 20000
    draws = np.array([oracle.sample(x, rng) for _ in range(n)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - fs.base.gradient(x)) < 4 * se + 1e-12)


def test_additive_gaussian_oracle_moments():
    pot = builtin("quadratic_well")
    oracle = AdditiveGaussianOracle.isotropic(pot, 0.5)
    x = np.array([2.0])
    rng = np.random.default_rng(5)
    n = 40000
    draws = np.array([oracle.sample(x, rng)[0] for _ in range(n)])
    assert abs(draws.mean() - 2.0) < 4 * 0.5 / math.sqrt(n)
    assert abs(draws.var(ddof=1) - 0.25) < 0.01
