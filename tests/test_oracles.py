"""Tests for mini-batch gradient oracles and their noise covariance laws."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    FiniteSumSpec,
    MinibatchOracle,
    SdeConfig,
    builtin,
    covariance_report,
    enumerate_covariance,
    gaussian_cloud,
    minibatch_covariance,
    population_covariance,
    psd_sqrt,
)
from sgdlab.oracles import WITH_REPLACEMENT, WITHOUT_REPLACEMENT


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


def test_with_replacement_oracle_takes_batches_larger_than_the_sum():
    """Drawn with replacement, a batch may hold more draws than there are
    components; the oracle accepts what its law and its batches accept, and
    only the without-replacement oracle refuses it."""
    fs = _random_cloud(np.random.default_rng(3), 4)
    x = np.zeros(3)
    oracle = MinibatchOracle(fs, 6, WITH_REPLACEMENT)
    report = covariance_report(fs, x, 6, WITH_REPLACEMENT)
    np.testing.assert_array_equal(oracle.covariance_at(x), report.formula)
    assert report.max_abs_diff <= 1e-12
    assert oracle.batch(np.random.default_rng(0)).shape == (6,)
    with pytest.raises(ValueError, match="exceeds the number of components"):
        MinibatchOracle(fs, 6, WITHOUT_REPLACEMENT)


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


# ---------------------------------------------------------------------------
# The stacked noise map: S(x) for a whole (..., d) stack of states.
# ---------------------------------------------------------------------------


def _affine_components(centers, tilts, x, i):
    """x - c_i + B_i x, summed elementwise so that a stack of (state, index)
    pairs gives each pair the bits of its own call (a matrix product need
    not)."""
    x = np.asarray(x, dtype=float)
    return x - centers[i] + np.sum(x[..., None, :] * tilts[i], axis=-1)


def _drawn_finite_sum(rng, M, d):
    """Components x - c_i + B_i x with sum_i B_i = 0: they average to the
    cloud's gradient x - mean(c), and their spread grows with |x|, so the
    batch covariance depends on the state."""
    centers = rng.normal(size=(M, d))
    tilts = rng.normal(scale=0.5, size=(M, d, d))
    tilts -= tilts.mean(axis=0)
    comps = functools.partial(_affine_components, centers, tilts)
    return FiniteSumSpec(gaussian_cloud(centers).base, comps, M)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    M=st.integers(2, 9),
    mode=st.sampled_from([WITHOUT_REPLACEMENT, WITH_REPLACEMENT]),
    drawn=st.booleans(),
    lead=st.sampled_from([(1,), (5,), (2, 3)]),
    m_frac=st.floats(0.0, 1.0),
)
def test_stacked_diffusion_equals_the_per_state_root(seed, d, M, mode, drawn, lead, m_frac):
    """``diffusion_at`` on a stack of states gives, bit for bit, the root
    ``psd_sqrt`` of each state's own covariance law."""
    rng = np.random.default_rng(seed)
    if drawn:
        fs = _drawn_finite_sum(rng, M, d)
    else:
        fs = builtin("gaussian_cloud_finite_sum", tuple(rng.normal(size=M * d)), dim=d)
    m = 1 + int(m_frac * (M - 1))
    oracle = MinibatchOracle(fs, m, mode)
    xs = rng.normal(scale=2.0, size=lead + (d,))
    stacked = oracle.diffusion_at(xs)
    assert stacked.shape == lead + (d, d)
    for idx in np.ndindex(*lead):
        if mode == WITHOUT_REPLACEMENT:
            cov = minibatch_covariance(fs, xs[idx], m)
        else:
            cov = population_covariance(fs, xs[idx]) / m
        np.testing.assert_array_equal(stacked[idx], psd_sqrt(cov))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(1, 6),
    pos_frac=st.floats(0.0, 1.0),
    fault=st.sampled_from(["asymmetric", "indefinite"]),
)
def test_stacked_psd_sqrt_refuses_a_bad_matrix_anywhere(seed, d, n, pos_frac, fault):
    """One asymmetric or indefinite matrix at any position of a stack of
    PSD matrices raises the ``ValueError`` it raises alone."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d, d))
    stack = a @ np.swapaxes(a, -1, -2)
    bad = stack[min(int(pos_frac * n), n - 1)]
    if fault == "asymmetric" and d > 1:
        bad[0, -1] += 1e-3 * (1.0 + np.abs(bad).max())
    else:  # a 1 x 1 matrix is always symmetric
        bad -= (1.0 + np.linalg.eigvalsh(bad).max()) * np.eye(d)
    with pytest.raises(ValueError) as alone:
        psd_sqrt(bad)
    with pytest.raises(ValueError) as stacked:
        psd_sqrt(stack)
    assert str(stacked.value) == str(alone.value)


def test_one_point_noise_maps_are_refused():
    """A map written for one state (``x[0]`` taken as a coordinate) would
    give every path of a stack the noise of the first: the diffusion of
    ``SdeConfig`` and the covariance of ``AdditiveGaussianOracle`` must take
    (..., d) stacks, and their stack forms are accepted."""
    well = builtin("double_well_1d")
    one_point = lambda x: np.array([[1.0 + x[0] * x[0]]])  # noqa: E731
    stacked = lambda x: (1.0 + x[..., :1] * x[..., :1])[..., None]  # noqa: E731
    sde = dict(potential=well, eta=0.1, dt=0.01, T=1.0, x0=np.array([0.5]))
    with pytest.raises(ValueError, match=r"\(\.\.\., d\)"):
        SdeConfig(diffusion=one_point, **sde)
    with pytest.raises(ValueError, match=r"\(\.\.\., d\)"):
        AdditiveGaussianOracle(well, one_point)
    assert SdeConfig(diffusion=stacked, **sde).diffusion is stacked
    assert AdditiveGaussianOracle(well, stacked).covariance is stacked


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_an_isotropic_oracle_refuses_a_non_finite_amplitude(bad):
    """sigma = nan used to give a nan covariance and diffusion."""
    with pytest.raises(ValueError, match=f"sigma must be non-negative and finite, got {bad}"):
        AdditiveGaussianOracle.isotropic(builtin("quadratic_well"), bad)
