"""Tests for diffusion integrators, the OU closed forms, and gradient flow."""

import math

import numpy as np
import pytest

from sgdlab import (
    AdditiveGaussianOracle,
    SdeConfig,
    builtin,
    deviation_empirical,
    em_endpoints,
    flow_knots,
    flow_sup_gap,
    ou_moments,
    path_streams,
    weak_error_linear,
    weak_error_mc,
)
from sgdlab.sde import _time_grid, em_on_grid

WELL = builtin("quadratic_well")


def test_ou_moments_closed_form():
    lam, eps, x0, t = 1.3, 0.07, 0.8, 1.7
    mean, var = ou_moments(lam, eps, x0, t)
    assert mean == pytest.approx(x0 * math.exp(-lam * t), abs=1e-14)
    assert var == pytest.approx(eps / (2 * lam) * (1 - math.exp(-2 * lam * t)), abs=1e-14)


def test_euler_endpoints_close_to_exact_law():
    n = 20000
    cfg = SdeConfig(potential=WELL, eta=0.1, dt=1e-3, T=1.0, x0=np.array([1.0]))
    ends = em_endpoints(cfg, n, experiment="weak-order")
    mean, var = ou_moments(1.0, 0.1, 1.0, 1.0)
    se = math.sqrt(var / n)
    # O(dt) weak bias plus Monte Carlo noise
    assert abs(ends.mean() - mean) < 4 * se + 5e-3


def test_first_order_drift_noiseless_endpoint():
    cfg = SdeConfig(
        potential=WELL, eta=0.1, dt=1e-3, T=1.0, x0=np.array([1.0]), diffusion=0.0
    )
    (end,) = em_endpoints(cfg, 1)
    assert abs(end[0] - math.exp(-1.0)) < 5e-4


def test_second_order_drift_noiseless_rate():
    """The corrected drift turns the decay rate lam into lam + eta*lam^2/2."""
    cfg = SdeConfig(
        potential=WELL,
        eta=0.2,
        dt=1e-4,
        T=1.0,
        x0=np.array([1.0]),
        diffusion=0.0,
        drift_order="second",
    )
    (end,) = em_endpoints(cfg, 1)
    assert abs(end[0] - math.exp(-1.1)) < 1e-4
    # distinctly different from the uncorrected rate exp(-1)
    assert abs(end[0] - math.exp(-1.0)) > 0.03


def test_gradient_flow_matches_exponential_decay():
    # RK4 steps of 1e-3 up to T = 10 knots * 0.1
    knots = flow_knots(WELL, np.array([1.0]), eta=0.1, n_knots=10, substeps=100)
    assert knots.shape == (11, 1)
    assert abs(knots[-1][0] - math.exp(-1.0)) < 1e-10


def test_flow_knots_sample_the_exponential():
    knots = flow_knots(WELL, np.array([1.0]), eta=0.1, n_knots=6)
    for k, state in enumerate(knots):
        assert state[0] == pytest.approx(math.exp(-0.1 * k), abs=1e-8)


def test_trajectory_shapes_and_times():
    cfg = SdeConfig(potential=WELL, eta=0.1, dt=0.01, T=0.5, x0=np.array([1.0]))
    times = _time_grid(cfg.T, cfg.dt)
    seen = []
    em_on_grid(cfg, times, path_streams(0, "grid", [0]), on_step=lambda k, x: seen.append(k))
    assert seen == list(range(1, times.size))
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(times) > 0)


def test_time_grid_shortens_the_last_step_to_end_at_T():
    times = _time_grid(0.55, 0.1)
    assert times.size == 7
    assert times[-1] == 0.55
    np.testing.assert_allclose(np.diff(times), [0.1] * 5 + [0.05], rtol=1e-12)


ORACLE = AdditiveGaussianOracle.isotropic(WELL, 1.0)

# Each entry point that runs the chain for T / eta steps, called at (T, eta).
HORIZON_ENTRY_POINTS = {
    "deviation_empirical": lambda T, eta: deviation_empirical(WELL, ORACLE, eta, T, [1.0], 4),
    "flow_sup_gap": lambda T, eta: flow_sup_gap(WELL, ORACLE, eta, T, [1.0], 4),
    "weak_error_linear": lambda T, eta: weak_error_linear(1.0, eta, 1.0, T, 1.0),
    # the ladder's last rung is eta; the two before it divide T = 0.3 and 0.35 alike
    "weak_error_mc": lambda T, eta: weak_error_mc(
        WELL, ORACLE, T, [1.0], [T, T / 2, eta], n_paths=20000
    ),
}


@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_horizon_must_be_a_whole_number_of_steps(entry):
    run = HORIZON_ENTRY_POINTS[entry]
    run(0.3, 0.1)
    with pytest.raises(ValueError, match="not a whole number of steps of eta=0.1"):
        run(0.35, 0.1)
