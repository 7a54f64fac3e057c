"""Tests for diffusion integrators, the OU closed forms, and gradient flow."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from sgdlab import (
    AdditiveGaussianOracle,
    Domain,
    SdeConfig,
    builtin,
    deviation_empirical,
    em_endpoints,
    flow_knots,
    flow_sup_gap,
    ou_moments,
    streams,
    weak_error_linear,
    weak_error_mc,
)
from sgdlab.errors import NumericalError
from sgdlab.sde import SCALAR_PATHS, _linear_block_step, _time_grid, sde_kernel

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
    streams.lockstep(
        sde_kernel(cfg, times), cfg.x0, 0, "grid", [0], times.size - 1,
        on_block=lambda k0, states: seen.extend(range(k0 + 1, k0 + 1 + len(states))),
    )
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


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)


@NON_FINITE
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_a_horizon_or_rate_that_is_not_finite_is_named(entry, bad):
    """T = nan or eta = nan used to raise "cannot convert float NaN to
    integer", T = inf an OverflowError, and weak_error_linear(T=nan) the same."""
    run = HORIZON_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"T must be positive and finite, got {bad}"):
        run(bad, 0.1)
    with pytest.raises(ValueError, match=f"eta must be positive and finite, got {bad}"):
        run(0.3, bad)


@NON_FINITE
@pytest.mark.parametrize("name", ["lam", "eta_sigma2", "x0", "t"])
def test_ou_moments_refuse_a_non_finite_argument(name, bad):
    """A nan rate or start used to give nan moments."""
    kwargs = {"lam": 1.0, "eta_sigma2": 0.1, "x0": 1.0, "t": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be .*finite, got {bad}"):
        ou_moments(**kwargs)


def _no_streams(*args, **kwargs):
    raise AssertionError("a stream was built before the arguments were checked")


# Each entry point that reports a sample variance, called with n paths.
SAMPLE_VARIANCE_ENTRY_POINTS = {
    "deviation_empirical": lambda n: deviation_empirical(WELL, ORACLE, 0.1, 0.3, [1.0], n),
    "flow_sup_gap": lambda n: flow_sup_gap(WELL, ORACLE, 0.1, 0.3, [1.0], n),
    "weak_error_mc": lambda n: weak_error_mc(WELL, ORACLE, 0.3, [1.0], [0.1], n_paths=n),
}


@pytest.mark.parametrize("n_paths", [1, 0])
@pytest.mark.parametrize("entry", sorted(SAMPLE_VARIANCE_ENTRY_POINTS))
def test_sample_variances_need_two_paths_before_any_path_runs(entry, n_paths, monkeypatch):
    """One path used to give a nan variance with RuntimeWarnings, or, in the
    weak ladder, a NumericalError for want of resolvable rungs."""
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    with pytest.raises(ValueError, match=f"n_paths must be at least 2 .*got {n_paths}"):
        SAMPLE_VARIANCE_ENTRY_POINTS[entry](n_paths)


@pytest.mark.parametrize("name", ["eta", "dt", "T"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_sde_config_refuses_a_non_finite_rate_step_or_horizon(name, bad):
    """eta = nan or inf used to fail later as a NumericalError from the
    first step, and T = inf was accepted."""
    kwargs = {"eta": 0.1, "dt": 0.01, "T": 0.1, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {bad}"):
        SdeConfig(potential=WELL, x0=np.array([1.0]), **kwargs)


@settings(max_examples=80, deadline=None)
@given(
    q=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3),
    dt=st.sampled_from([1e-4, 1e-3, 1e-2]),
    paths=st.integers(1, 70),
    steps=st.integers(1, 300),
    scan_bytes=st.sampled_from([8, 2**12, 2**20]),
    start=st.sampled_from([0.0, -0.0, 1e-310, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_stepper_keeps_the_bits_of_lfilter(q, dt, paths, steps, scan_bytes, start, seed):
    # The block stepper calls scipy's compiled filter without importing
    # scipy.signal; per axis, its states are those of one lfilter over the
    # whole block, however a small SCAN_BYTES cuts the block into slabs.
    c = 1.0 - np.array(q) * dt
    d = c.size
    noise = np.random.default_rng(seed).standard_normal((steps, paths, d)) * math.sqrt(dt)
    x0 = np.full((paths, d), start)
    expected = np.empty_like(noise)
    for a, ca in enumerate(c):
        expected[..., a] = lfilter([1.0], [1.0, -ca], noise[..., a], axis=0, zi=ca * x0[None, :, a])[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "SCAN_BYTES", scan_bytes)
        buf = noise.copy()
        last = _linear_block_step(c)(x0, buf, 0)
    assert buf.tobytes() == expected.tobytes()
    assert last.tobytes() == expected[-1].tobytes()


def _double_well(tilt):
    if tilt == 0.0:
        return builtin("double_well_1d")
    return builtin("asym_double_well_1d", (tilt,))


# The two builtin tilts and others, up to the merge of the wells at 0.3849.
TILTS = st.sampled_from([0.0, -0.05]) | st.floats(-0.38, 0.38).filter(lambda t: t != 0.0)

# Start states whose steps keep a signed zero, meet the well's minima,
# underflow, and overflow to inf and then nan.
EDGE_STATES = [0.0, -0.0, 1.0, -1.0, 1e-310, -1e-310, 1e120, -1e120]


@settings(max_examples=80, deadline=None)
@given(
    tilt=TILTS,
    dt=st.sampled_from([1e-4, 1e-3, 1e-2, 0.5]),
    paths=st.integers(1, 2 * SCALAR_PATHS + 2),
    steps=st.integers(1, 300),
    cuts=st.lists(st.integers(1, 299), max_size=4),
    edges=st.lists(st.sampled_from(EDGE_STATES), max_size=10),
    sigma=st.sampled_from([0.0, 1.0, 5.0]),
    scheduled=st.booleans(),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_double_well_block_stepper_keeps_the_bits_of_the_euler_loop(
    tilt, dt, paths, steps, cuts, edges, sigma, scheduled, grid, seed
):
    # Both branches, ufunc rows above SCALAR_PATHS paths and Python floats at
    # or below it, against x - gradient(x) h_k + noise one step at a time,
    # through blocks cut anywhere, on the uniform grid (h_k = dt) or on a
    # time grid whose steps differ from dt in the last bits and whose last
    # step is shortened.  sigma = 0 draws signed zeros.
    potential = _double_well(tilt)
    times = _time_grid(max(steps - 0.5, 1.0) * dt, dt) if grid else None
    h = np.full(steps, dt) if times is None else np.diff(times)
    assert h.size == steps
    cfg = SdeConfig(potential, eta=1.0, dt=dt, T=1.0 if times is None else times[-1], x0=np.ones(1))
    kernel = sde_kernel(cfg, times)
    assert kernel.block_step is not None and not kernel.block_step_releases_gil
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((paths, 1)) * 1.5
    x0[: len(edges), 0] = edges[:paths]
    scale = sigma * math.sqrt(dt)
    if scheduled:
        scale = scale / (1.0 + dt * np.arange(steps))[:, None, None]
    noise = rng.standard_normal((steps, paths, 1)) * scale
    expected = np.empty_like(noise)
    buf = noise.copy()
    bounds = [0, *sorted({c for c in cuts if c < steps}), steps]
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0
        for j in range(steps):
            x = expected[j] = x - potential.gradient(x) * h[j] + noise[j]
        x = x0
        for j0, j1 in zip(bounds, bounds[1:]):
            x = kernel.block_step(x, buf[j0:j1], j0)
    np.testing.assert_array_equal(buf.view(np.int64), expected.view(np.int64))
    np.testing.assert_array_equal(x.view(np.int64), expected[-1].view(np.int64))


@settings(max_examples=40, deadline=None)
@given(
    tilt=TILTS,
    paths=st.sampled_from([1, SCALAR_PATHS, SCALAR_PATHS + 1, 64]),
    block=st.integers(1, 300),
    scan_bytes=st.sampled_from([8, 2**12, 2**20]),
    scheduled=st.booleans(),
)
def test_double_well_exits_keep_their_bits_through_the_engine(
    tilt, paths, block, scan_bytes, scheduled
):
    # lockstep with the block stepper against its per-step loop, under any
    # block length and scan slab; the alive paths cross SCALAR_PATHS as
    # they exit.
    cfg = SdeConfig(
        _double_well(tilt),
        eta=0.5,
        dt=0.01,
        T=1.0,
        x0=np.ones(1),
        noise_schedule=(lambda s: 1.0 / (1.0 + s)) if scheduled else None,
    )
    kernel = sde_kernel(cfg)
    runs = []
    for k in (kernel, kernel._replace(block_step=None)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "SCAN_BYTES", scan_bytes)
            mp.setattr(streams, "BLOCK_STEPS", block)
            domain = Domain.interval(0.4, 1.6)
            runs.append(
                streams.lockstep(k, cfg.x0, 5, "double-well", range(paths), 600, domain=domain)
            )
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    tilt=st.sampled_from([0.0, -0.05]),
    dt=st.sampled_from([1e-3, 1e-2, 0.3]),
    steps=st.integers(2, 300),
    paths=st.sampled_from([1, SCALAR_PATHS, SCALAR_PATHS + 1, 64]),
    block=st.integers(1, 300),
    start=st.sampled_from(EDGE_STATES),
    sigma=st.sampled_from([0.0, 1.0]),
    scheduled=st.booleans(),
)
def test_double_well_grid_ensembles_keep_their_bits_through_the_engine(
    tilt, dt, steps, paths, block, start, sigma, scheduled
):
    # Annealing's kernel on a time grid with a shortened last step, run by
    # lockstep with and without its block stepper under any block length:
    # on_block sees the same (k, states) in the same order, and the runs end
    # in the same states or fail at the same step.
    times = _time_grid((steps - 0.5) * dt, dt)
    assert times.size == steps + 1 and times[-1] - times[-2] < dt
    cfg = SdeConfig(
        _double_well(tilt),
        eta=1.0,
        dt=dt,
        T=times[-1],
        x0=np.array([start]),
        diffusion=sigma,
        noise_schedule=(lambda s: 1.0 / (1.0 + s)) if scheduled else None,
    )
    kernel = sde_kernel(cfg, times)
    assert kernel.block_step is not None and not kernel.block_step_releases_gil
    runs = []
    for k in (kernel, kernel._replace(block_step=None)):
        seen = []

        def observe(k0, states):
            seen.extend((k0 + 1 + j, x.copy()) for j, x in enumerate(states))

        try:
            with mock.patch.object(streams, "BLOCK_STEPS", block):
                end = streams.lockstep(
                    k, cfg.x0, 3, "double-well-grid", range(paths), steps, on_block=observe
                )[2]
        except NumericalError as error:
            end = error.step
        runs.append((seen, end))
    (stepped, stepped_end), (looped, looped_end) = runs
    assert [k for k, _ in stepped] == [k for k, _ in looped] == list(range(1, len(looped) + 1))
    for (_, a), (_, b) in zip(stepped, looped):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    if isinstance(looped_end, int):
        assert stepped_end == looped_end
    else:
        assert len(looped) == steps
        np.testing.assert_array_equal(stepped_end.view(np.int64), looped_end.view(np.int64))
