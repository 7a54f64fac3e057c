"""Tests for the annealed-noise basin-hopping experiment."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special  # noqa: F401  (``_binomial_ci``'s import, so no trace counts it)

from sgdlab import anneal_experiment, builtin, exit_times, streams
from sgdlab.sde import sde_kernel

TILTED = builtin("asym_double_well_1d", params=(-0.05,))


def test_zero_noise_never_crosses():
    res = anneal_experiment(
        TILTED, gamma=0.0, T=50.0, n_paths=64, epsilon=0.25, mode="cooling",
        seed=5,
    )
    assert res.successes == 0
    assert res.success_prob == 0.0


def test_cooling_schedule_beats_frozen_noise_level():
    """A slowly decaying noise amplitude finds the deep well far more often
    than the same amplitude frozen at its terminal value."""
    kwargs = dict(T=500.0, n_paths=500, epsilon=0.25, seed=2)
    cooled = anneal_experiment(TILTED, gamma=0.4, mode="cooling", **kwargs)
    frozen = anneal_experiment(TILTED, gamma=0.4, mode="constant", **kwargs)
    assert cooled.success_prob >= 0.5
    assert frozen.success_prob <= 0.25
    assert cooled.success_prob - frozen.success_prob >= 0.2


def test_result_bookkeeping():
    res = anneal_experiment(
        TILTED, gamma=0.5, T=100.0, n_paths=128, epsilon=0.25, mode="cooling",
        seed=5,
    )
    assert res.ci_low <= res.success_prob <= res.ci_high
    assert 0.0 <= res.ci_low and res.ci_high <= 1.0
    assert res.successes == round(res.success_prob * res.n_paths)
    times = np.asarray(res.occupancy_times)
    fracs = np.asarray(res.occupancy_fracs)
    assert times.shape == fracs.shape
    assert times[-1] == pytest.approx(100.0)
    assert np.all(np.diff(times) > 0)
    assert np.all((fracs >= 0.0) & (fracs <= 1.0))
    # the final occupancy checkpoint is the success criterion itself
    assert fracs[-1] == pytest.approx(res.success_prob)


def test_runs_are_reproducible():
    kwargs = dict(
        gamma=0.5, T=50.0, n_paths=64, epsilon=0.25, mode="cooling", seed=7,
    )
    a = anneal_experiment(TILTED, **kwargs)
    b = anneal_experiment(TILTED, **kwargs)
    assert a.success_prob == b.success_prob
    np.testing.assert_array_equal(a.occupancy_fracs, b.occupancy_fracs)


def _no_streams(*args, **kwargs):
    raise AssertionError("a stream was built before the arguments were checked")


@pytest.mark.parametrize("n_paths", [0, -2])
def test_a_path_count_below_one_is_rejected(n_paths, monkeypatch):
    """n_paths = 0 used to raise ZeroDivisionError after the scatter."""
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    with pytest.raises(ValueError, match=f"n_paths must be at least 1, got {n_paths}"):
        anneal_experiment(TILTED, gamma=0.4, T=1.0, n_paths=n_paths, epsilon=0.25)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0], ids=str)
def test_a_horizon_that_is_not_positive_and_finite_is_rejected(bad, monkeypatch):
    """T = inf used to raise OverflowError, and T = nan was reported as a
    dt error by SdeConfig."""
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    with pytest.raises(ValueError, match=f"T must be positive and finite, got {bad}"):
        anneal_experiment(TILTED, gamma=0.4, T=bad, n_paths=4, epsilon=0.25)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25], ids=str)
def test_a_gamma_that_is_not_non_negative_and_finite_is_rejected(bad, monkeypatch):
    """gamma = nan or inf used to be reported as a NumericalError ("non-finite
    state by step 100")."""
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    with pytest.raises(ValueError, match=f"gamma must be non-negative and finite, got {bad}"):
        anneal_experiment(TILTED, gamma=bad, T=1.0, n_paths=4, epsilon=0.25)


@pytest.mark.parametrize("name", ["epsilon", "dt"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.25], ids=str)
def test_a_window_or_step_that_is_not_positive_and_finite_is_rejected(name, bad, monkeypatch):
    """A nan epsilon used to report 0 successes, since every distance
    compares false against nan."""
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    kwargs = {"epsilon": 0.25, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {bad}"):
        anneal_experiment(TILTED, gamma=0.4, T=1.0, n_paths=4, **kwargs)


def test_clopper_pearson_quantile_equals_the_beta_ppf():
    """``_binomial_ci`` takes its quantiles from ``scipy.special.betaincinv``
    rather than ``scipy.stats.beta.ppf``; the two agree bit for bit over every
    (k, n) with n < 300 and a few large n, at three levels."""
    from scipy.special import betaincinv
    from scipy.stats import beta

    from sgdlab.exit_times import _binomial_ci

    sizes = [*range(1, 300), 500, 1000, 2000, 5000, 10000]
    k = np.concatenate([np.arange(m + 1) for m in sizes])
    n = np.concatenate([np.full(m + 1, m) for m in sizes])
    for level in (0.90, 0.95, 0.99):
        alpha = 1.0 - level
        a, b = k[k > 0], (n - k + 1)[k > 0]
        np.testing.assert_array_equal(betaincinv(a, b, alpha / 2), beta.ppf(alpha / 2, a, b))
        a, b = (k + 1)[k < n], (n - k)[k < n]
        q = 1.0 - alpha / 2
        np.testing.assert_array_equal(betaincinv(a, b, q), beta.ppf(q, a, b))
        for kk, nn in ((0, 7), (3, 7), (7, 7), (123, 500), (4999, 10000)):
            lo, hi = _binomial_ci(kk, nn, level)
            assert lo == (0.0 if kk == 0 else beta.ppf(alpha / 2, kk, nn - kk + 1))
            assert hi == (1.0 if kk == nn else beta.ppf(q, kk + 1, nn - kk))


def test_the_interval_is_computed_only_when_read(monkeypatch):
    # ``anneal_experiment`` computes no interval; each read of ``ci_low`` or
    # ``ci_high`` computes it afresh, with ``_binomial_ci``'s bits.
    calls = []
    binomial_ci = exit_times._binomial_ci

    def counted(k, n):
        calls.append((k, n))
        return binomial_ci(k, n)

    monkeypatch.setattr(exit_times, "_binomial_ci", counted)
    res = anneal_experiment(TILTED, gamma=0.4, T=20.0, n_paths=16, epsilon=0.25, dt=0.05)
    assert res.success_prob == res.successes / 16
    assert calls == []
    lo, hi = binomial_ci(res.successes, res.n_paths)
    assert res.ci_low.hex() == lo.hex()
    assert calls == [(res.successes, 16)]
    assert res.ci_high.hex() == hi.hex()
    assert calls == [(res.successes, 16)] * 2


def test_an_annealing_arm_holds_one_small_block():
    # A 500-path arm of 25,000 steps holds lockstep's 1024-step noise block,
    # 3.9 MiB, and its streams; a 4096-step block alone would be 15.6 MiB.
    tracemalloc.start()
    try:
        anneal_experiment(TILTED, gamma=0.4, T=500.0, n_paths=500, epsilon=0.25, dt=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class _Ones:
    """A generator whose standard normals are all 1.0."""

    def standard_normal(self, out):
        out.fill(1.0)


def test_the_cooling_table_is_the_per_step_math_product(monkeypatch):
    # The kernel tabulates amplitude(t_k) * sqrt(h_k) once, with Python's
    # math calls.  A numpy table would not do: np.log(2 + s) differs from
    # math.log(2.0 + s) at 7 of these 25,001 times on an AVX-512 CPU.
    grabbed = {}

    def grab(cfg, times=None, amplitude=None):
        grabbed.update(cfg=cfg, times=times, amplitude=amplitude)
        return sde_kernel(cfg, times, amplitude=amplitude)

    monkeypatch.setattr(exit_times, "sde_kernel", grab)
    anneal_experiment(TILTED, gamma=0.4, T=500.0, n_paths=1, epsilon=0.25, dt=0.02)
    times = grabbed["times"]
    steps = np.diff(times)
    assert times.size == 25_001 and steps[-1] < 0.02  # a shortened last step
    fill = sde_kernel(grabbed["cfg"], times, amplitude=grabbed["amplitude"]).fill
    expected = np.array(
        [math.sqrt(0.4 / math.log(2.0 + t)) * math.sqrt(h) for t, h in zip(times, steps)]
    )
    # Draws of ones make the filled noise the scale itself.
    ones = [_Ones()]
    for k0, k1 in ((0, steps.size), (1024, 2048)):
        noise = np.empty((k1 - k0, 1, 1))
        fill(ones, np.arange(1), k0, k1, noise)
        assert noise.tobytes() == expected[k0:k1].tobytes()
