"""Tests for the SGD chain driver, closed-form moments, and batch schedules."""

import math

import numpy as np
import pytest

from sgdlab import (
    AdditiveGaussianOracle,
    BatchSchedule,
    MinibatchOracle,
    SgdConfig,
    builtin,
    gaussian_cloud,
    run_sgd,
    run_sgd_ensemble,
    schedule_m,
    sgd_moments_linear,
)

WELL = builtin("quadratic_well")


def test_one_step_support_two_point_noise():
    """From x0=0 with component gradients {-1,+1}, one step lands on -+eta."""
    fs = gaussian_cloud(np.array([[1.0], [-1.0]]))
    oracle = MinibatchOracle(fs, 1)
    rng = np.random.default_rng(2)
    ends = []
    for _ in range(200):
        cfg = SgdConfig(eta=0.1, steps=1, x0=np.zeros(1), oracle=oracle)
        ends.append(run_sgd(cfg, rng=rng).states[-1][0])
    values = np.unique(np.round(ends, 12))
    np.testing.assert_allclose(values, [-0.1, 0.1])


def test_zero_noise_single_step_matches_gradient_descent():
    fs = gaussian_cloud(np.array([[0.0]]))  # single component: deterministic
    cfg = SgdConfig(eta=0.1, steps=1, x0=np.array([1.0]), oracle=MinibatchOracle(fs, 1))
    traj = run_sgd(cfg)
    assert traj.states[-1][0] == pytest.approx(0.9, abs=1e-15)
    # one-step weak gap against the continuous flow endpoint
    assert abs(traj.states[-1][0] - math.exp(-0.1)) == pytest.approx(
        0.004837418035959495, abs=1e-12
    )


def test_closed_moments_linear_chain():
    mean, var = sgd_moments_linear(1.0, 0.1, 1.0, 1.0, 10)
    assert mean == pytest.approx(0.9**10, abs=1e-15)
    assert var == pytest.approx(0.04623280765312795, abs=1e-14)


def test_closed_moments_match_simulation():
    n = 40000
    cfg = SgdConfig(
        eta=0.1,
        steps=10,
        x0=np.array([1.0]),
        oracle=AdditiveGaussianOracle.isotropic(WELL, 1.0),
        seed=31,
    )
    res = run_sgd_ensemble(cfg, n, experiment="weak-order")
    ends = res.endpoints[:, 0]
    mean, var = sgd_moments_linear(1.0, 0.1, 1.0, 1.0, 10)
    se_mean = ends.std(ddof=1) / math.sqrt(n)
    assert abs(ends.mean() - mean) < 4 * se_mean
    assert abs(ends.var(ddof=1) - var) < 0.05 * var


def test_unstable_step_size_rejected():
    with pytest.raises(ValueError):
        sgd_moments_linear(1.0, 2.5, 1.0, 1.0, 10)


@pytest.mark.parametrize("name", ["lam", "eta", "sigma", "x0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_closed_moments_refuse_a_non_finite_argument(name, bad):
    """A nan rate used to give nan moments, and an infinite one an
    "unstable chain" error."""
    kwargs = {"lam": 1.0, "eta": 0.1, "sigma": 1.0, "x0": 1.0, "k": 10, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be .*finite, got {bad}"):
        sgd_moments_linear(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_chain_settings_refuse_non_finite_values(bad):
    """SgdConfig(eta=nan or inf) used to fail later as a NumericalError, and
    BatchSchedule accepted a nan eta."""
    oracle = AdditiveGaussianOracle.isotropic(WELL, 1.0)
    with pytest.raises(ValueError, match=f"eta must be positive and finite, got {bad}"):
        SgdConfig(eta=bad, steps=1, x0=np.array([1.0]), oracle=oracle)
    with pytest.raises(ValueError, match=f"eta must be positive and finite, got {bad}"):
        BatchSchedule(C=0.5, eta=bad, m_star=4, M=4)
    with pytest.raises(ValueError, match=f"C must be non-negative and finite, got {bad}"):
        BatchSchedule(C=bad, eta=0.1, m_star=4, M=4)


def test_runs_are_reproducible():
    cfg = SgdConfig(
        eta=0.1,
        steps=50,
        x0=np.array([1.0]),
        oracle=AdditiveGaussianOracle.isotropic(WELL, 1.0),
        seed=9,
    )
    a = run_sgd_ensemble(cfg, 32, experiment="weak-order")
    b = run_sgd_ensemble(cfg, 32, experiment="weak-order")
    np.testing.assert_array_equal(a.endpoints, b.endpoints)


def test_path_subsets_match_full_ensemble():
    """Scatter/gather identity: any index slice reproduces the full run."""
    cfg = SgdConfig(
        eta=0.1,
        steps=20,
        x0=np.array([1.0]),
        oracle=AdditiveGaussianOracle.isotropic(WELL, 1.0),
        seed=77,
    )
    full = run_sgd_ensemble(cfg, 64, experiment="weak-order")
    part = run_sgd_ensemble(cfg, range(16, 32), experiment="weak-order")
    np.testing.assert_array_equal(full.endpoints[16:32], part.endpoints)


def test_distinct_paths_are_nearly_independent():
    cfg = SgdConfig(
        eta=0.1,
        steps=200,
        x0=np.array([0.0]),
        oracle=AdditiveGaussianOracle.isotropic(WELL, 1.0),
        seed=13,
    )
    res = run_sgd_ensemble(cfg, 4000, experiment="weak-order")
    ends = res.endpoints[:, 0]
    corr = np.corrcoef(ends[:-1], ends[1:])[0, 1]
    assert abs(corr) < 0.05


def test_batch_schedule_values_and_cap():
    sched = BatchSchedule(C=1.0, eta=0.5, m_star=64, M=64)
    # m(s) = ceil(C log(s+2) / eta), clipped to [1, min(m_star, M)]
    assert schedule_m(sched, 0.0) == math.ceil(2 * math.log(2))
    assert schedule_m(sched, 1.0) == math.ceil(2 * math.log(3))
    assert schedule_m(sched, 10.0) == math.ceil(2 * math.log(12))
    assert schedule_m(sched, 100.0) == math.ceil(2 * math.log(102))
    assert schedule_m(sched, 1e16) == 64  # saturates at the cap
    values = [schedule_m(sched, s) for s in np.linspace(0.0, 50.0, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert min(values) >= 1


def test_a_schedule_for_another_sum_is_refused():
    """A schedule clipped to a larger M would ask for batches the oracle
    cannot draw; the config refuses it before any path runs.  So it does a
    schedule for another step, which m(s) divides by and which used to be
    accepted."""
    fs = gaussian_cloud(np.linspace(-1.0, 1.0, 9)[:, None])
    sched = BatchSchedule(C=1.0, eta=0.1, m_star=32, M=64)
    with pytest.raises(ValueError, match="M=64"):
        SgdConfig(eta=0.1, steps=50, x0=np.zeros(1), oracle=MinibatchOracle(fs, 1), schedule=sched)
    sched = BatchSchedule(C=1.0, eta=0.5, m_star=32, M=9)
    with pytest.raises(ValueError, match="eta=0.5 differs from the config's eta=0.1"):
        SgdConfig(eta=0.1, steps=50, x0=np.zeros(1), oracle=MinibatchOracle(fs, 1), schedule=sched)
    ok = SgdConfig(
        eta=0.1, steps=50, x0=np.zeros(1), oracle=MinibatchOracle(fs, 1),
        schedule=BatchSchedule(C=1.0, eta=0.1, m_star=32, M=9),
    )
    assert run_sgd_ensemble(ok, 3).endpoints.shape == (3, 1)


def test_growing_batches_shrink_endpoint_spread():
    rng_sets = np.random.default_rng(19)
    fs = gaussian_cloud(rng_sets.normal(size=(64, 1)))
    base = dict(eta=0.05, steps=100, x0=np.array([0.0]))
    fixed = SgdConfig(oracle=MinibatchOracle(fs, 1), seed=1, **base)
    sched = BatchSchedule(C=0.5, eta=0.05, m_star=32, M=64)
    grown = SgdConfig(oracle=MinibatchOracle(fs, 1), schedule=sched, seed=1, **base)
    var_fixed = run_sgd_ensemble(fixed, 500, experiment="batch-cov").endpoints.var()
    var_grown = run_sgd_ensemble(grown, 500, experiment="batch-cov").endpoints.var()
    assert var_grown < 0.5 * var_fixed
