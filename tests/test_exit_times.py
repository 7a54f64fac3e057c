"""Tests for exit-time machinery: the 1-D BVP oracle, Monte Carlo hitting
times, deterministic-flow travel times, and the escape-scaling fits."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    Domain,
    ExitRecord,
    NumericalError,
    PotentialSpec,
    SdeConfig,
    SgdConfig,
    builtin,
    exit_time_stats,
    flow_exit_time,
    hitting_time_mc,
    kramers_predictor,
    log_mean_exit_bvp_1d,
    mean_exit_bvp_1d,
    minimizer_scaling_fit,
    saddle_scaling_fit,
    streams,
)
from sgdlab import exit_times
from sgdlab.sde import apply_diffusion

WELL = builtin("quadratic_well")
INVERTED = builtin("inverted_quadratic")
DOUBLE_WELL = builtin("double_well_1d")
UNIT = Domain.interval(-1.0, 1.0)


def test_bvp_brownian_interval_exact():
    """Pure diffusion on (-a, a): mean exit from x is (a^2 - x^2) / eps."""
    flat = lambda x: np.zeros_like(x)  # noqa: E731
    eps = 0.04
    for x in (0.0, 0.3, -0.7):
        u = mean_exit_bvp_1d(flat, eps, (-1.0, 1.0), x)
        exact = (1.0 - x * x) / eps
        assert abs(u - exact) / exact < 1e-6


FLAT = PotentialSpec(
    name="flat",
    dim=1,
    value=lambda x: np.zeros(np.shape(x)[:-1]),
    gradient=np.zeros_like,
    hessian=lambda x: np.zeros(np.shape(x) + (1,)),
)


@pytest.mark.parametrize("eps", [0.04, 0.5])
def test_bvp_flat_potential_is_the_brownian_mean_exit(eps):
    """Without drift u'' = -2 / eps, so u(x) = (x - l)(r - x) / eps."""
    lo, hi = -0.3, 1.2
    for x in (-0.29, 0.0, 0.45, 0.9, 1.19):
        exact = (x - lo) * (hi - x) / eps
        assert mean_exit_bvp_1d(FLAT, eps, (lo, hi), x) == pytest.approx(exact, rel=1e-6)


def test_bvp_vanishes_toward_the_boundary():
    u_mid = mean_exit_bvp_1d(WELL, 0.1, (-1.0, 1.0), 0.0)
    tail = [mean_exit_bvp_1d(WELL, 0.1, (-1.0, 1.0), 1.0 - d) for d in (0.1, 0.01, 0.001)]
    assert u_mid > tail[0] > tail[1] > tail[2] > 0.0
    assert tail[2] < 0.05 * u_mid
    # starts on the boundary itself are rejected rather than extrapolated
    with pytest.raises(ValueError, match="strictly inside"):
        mean_exit_bvp_1d(WELL, 0.1, (-1.0, 1.0), 1.0)


def test_bvp_handles_outward_drift_without_cancellation():
    """Mean exit under strong outward drift stays near the travel time."""
    u = mean_exit_bvp_1d(INVERTED, 1e-3, (-1.0, 1.0), 0.5)
    assert 0.0 < u < 1.1 * math.log(2.0)
    # deep small-noise regime still evaluates cleanly in log space
    log_u = log_mean_exit_bvp_1d(WELL, 1e-4, (-1.0, 1.0), 0.0)
    assert log_u * 1e-4 == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("d", range(1, 8))
def test_ball_membership_keeps_the_bits_of_a_numpy_sum(d):
    # Points within a few ulp of the sphere, where one ulp of the squared
    # distance decides membership: summing the axes in another order than
    # numpy's flips some of them from d = 3 on.
    rng = np.random.default_rng(d)
    center, radius = rng.normal(size=d), 0.7
    u = rng.normal(size=(64, 50, d))
    x = center + radius * u / np.linalg.norm(u, axis=-1, keepdims=True)
    x += rng.integers(-4, 5, size=x.shape) * np.spacing(x)
    diff = x - center
    expected = np.sum(diff * diff, axis=-1) <= radius**2
    assert 0 < expected.sum() < expected.size
    np.testing.assert_array_equal(Domain.ball(center, radius).contains(x), expected)


def test_mc_exit_times_match_bvp_oracle():
    eta = 0.25
    dom = Domain.interval(-0.6, 0.6)
    bvp = mean_exit_bvp_1d(WELL, eta, (-0.6, 0.6), 0.0)
    cfg = SdeConfig(potential=WELL, eta=eta, dt=1e-4, T=1.0, x0=np.array([0.0]))
    recs = hitting_time_mc(cfg, dom, n_paths=2000, horizon=400.0, seed=11, experiment="exit-min")
    st = exit_time_stats(recs)
    assert st.censor_frac == 0.0
    tol = max(3 * st.stderr, 0.02 * bvp)
    assert abs(st.mean - bvp) < tol, f"MC {st.mean:.4f} vs BVP {bvp:.4f} (tol {tol:.4f})"


def test_mc_exit_quadratic_well_unit_interval():
    """Escape from the unit interval at eta=1/4 agrees with the BVP value."""
    eta = 0.25
    bvp = mean_exit_bvp_1d(WELL, eta, (-1.0, 1.0), 0.0)
    cfg = SdeConfig(potential=WELL, eta=eta, dt=2e-4, T=1.0, x0=np.array([0.0]))
    recs = hitting_time_mc(cfg, UNIT, n_paths=400, horizon=2000.0, seed=21, experiment="exit-min")
    st = exit_time_stats(recs)
    assert st.censor_frac == 0.0
    assert abs(st.mean - bvp) < 3 * st.stderr


def test_exit_steps_are_time_over_eta():
    cfg = SdeConfig(potential=WELL, eta=0.25, dt=1e-3, T=1.0, x0=np.array([0.0]))
    recs = hitting_time_mc(
        cfg, Domain.interval(-0.5, 0.5), n_paths=16, horizon=100.0, seed=3, experiment="exit-min"
    )
    for rec in recs:
        assert rec.exit_steps == pytest.approx(rec.exit_time / 0.25, rel=1e-12)


def test_outward_drift_without_noise_exits_at_travel_time():
    dt = 1e-3
    cfg = SdeConfig(
        potential=INVERTED, eta=0.1, dt=dt, T=1.0, x0=np.array([0.5]), diffusion=0.0
    )
    recs = hitting_time_mc(cfg, UNIT, n_paths=4, horizon=10.0, seed=1, experiment="exit-min")
    for rec in recs:
        assert abs(rec.exit_time - math.log(2.0)) <= 2 * dt


def test_mean_exit_uniform_over_interior_starts():
    """eta * log E[T] is flat across starts within half the domain radius."""
    eta = 1.0 / 20.0
    values = [
        eta * log_mean_exit_bvp_1d(WELL, eta, (-1.0, 1.0), x)
        for x in (-0.5, -0.25, 0.0, 0.25, 0.5)
    ]
    lo, hi = min(values), max(values)
    assert (hi - lo) <= 0.5 * (0.5 * (hi + lo))


def test_mean_exit_decreases_with_step_size():
    means = [mean_exit_bvp_1d(WELL, eta, (-1.0, 1.0), 0.0) for eta in (0.1, 0.2, 0.3, 0.5)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_log_exit_scaling_constants():
    # halving the domain scales the barrier constant from 1 to 1/4
    eta = 1.0 / 40.0
    half = eta * log_mean_exit_bvp_1d(WELL, eta, (-0.5, 0.5), 0.0)
    assert half == pytest.approx(0.25, rel=0.15)
    # doubling sigma divides the constant by 4
    sig2 = eta * log_mean_exit_bvp_1d(WELL, 4.0 * eta, (-1.0, 1.0), 0.0)
    assert sig2 == pytest.approx(0.25, rel=0.15)
    # ball of radius 0.8 around the right-hand minimum of the double well
    ball = eta * log_mean_exit_bvp_1d(DOUBLE_WELL, eta, (0.2, 1.8), 1.0)
    assert ball == pytest.approx(0.4608, rel=0.15)


def test_kramers_predictor_reference_value():
    x_star = np.array([1.0])
    pred = kramers_predictor(DOUBLE_WELL, 0.1, x_star=x_star)
    assert pred == pytest.approx(659.3822923750206, rel=1e-9)
    # exponent law: d log tau / d (1/eta) equals twice the barrier height
    pred2 = kramers_predictor(DOUBLE_WELL, 0.05, x_star=x_star)
    slope = (math.log(pred2) - math.log(pred)) / (1 / 0.05 - 1 / 0.1)
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_flow_travel_times():
    assert flow_exit_time(INVERTED, np.array([0.5]), UNIT) == pytest.approx(
        math.log(2.0), abs=1e-6
    )
    # starting at an unstable stationary point: the flow never leaves
    assert flow_exit_time(INVERTED, np.array([0.0]), UNIT) is None
    # a well interior to the domain: the flow converges without exiting
    assert flow_exit_time(WELL, np.array([0.5]), UNIT) is None


def test_minimizer_fit_transform_window():
    rep = minimizer_scaling_fit(
        WELL, 1.0, UNIT, eta_list=[1 / 4, 1 / 6, 1 / 8, 1 / 10], source="bvp_1d"
    )
    values = [e.transform_value for e in rep.entries]
    assert all(0.75 <= v <= 1.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert rep.reference_constant == pytest.approx(1.0)
    assert rep.fitted_constant == pytest.approx(values[-1])


def test_saddle_fit_step_count_bound():
    dom = Domain.interval(-1.0, 1.0)
    rep = saddle_scaling_fit(
        INVERTED, 1.0, dom, np.array([0.0]), eta_list=[1e-2, 1e-3, 1e-4], source="bvp_1d"
    )
    assert rep.reference_constant == pytest.approx(0.5)
    bounds = rep.extra["steps_bound"]
    assert bounds[-1] <= 1.3  # N * 2*gamma*eta / log(1/eta) at the smallest eta


def test_exit_time_stats_handles_censoring():
    recs = [
        ExitRecord(0, 1.0, 10.0, np.array([1.0]), False),
        ExitRecord(1, 3.0, 30.0, np.array([-1.0]), False),
        ExitRecord(2, 50.0, 500.0, np.array([0.2]), True),
    ]
    st = exit_time_stats(recs)
    assert st.mean == pytest.approx(2.0)
    assert st.censor_frac == pytest.approx(1.0 / 3.0)
    assert st.n_used == 2


def test_hitting_mc_path_subsets_match_full_run():
    cfg = SdeConfig(potential=WELL, eta=0.25, dt=1e-3, T=1.0, x0=np.array([0.0]))
    dom = Domain.interval(-0.5, 0.5)
    full = hitting_time_mc(cfg, dom, n_paths=32, horizon=100.0, seed=5, experiment="exit-min")
    part = hitting_time_mc(
        cfg, dom, n_paths=32, horizon=100.0, seed=5, experiment="exit-min",
        path_indices=range(8, 16),
    )
    for rec_full, rec_part in zip(full[8:16], part):
        assert rec_full.path_index == rec_part.path_index
        assert rec_full.exit_time == rec_part.exit_time
        np.testing.assert_array_equal(rec_full.exit_point, rec_part.exit_point)


@pytest.mark.parametrize("fit", ["minimizer", "saddle"])
def test_each_ladder_rung_is_its_own_hitting_time_run(fit):
    # However a ladder's (rung, path) cells are scheduled, path i of rung j
    # keeps the stream (seed, "<experiment>:eta<j>", i).
    kw = dict(source="mc", n_paths=6, seed=3, dt=0.01, horizon=50.0, keep_records=True)
    if fit == "minimizer":
        potential, etas, label = WELL, (0.5, 0.4), "exit-min"
        report = minimizer_scaling_fit(WELL, 1.0, UNIT, etas, **kw)
    else:
        potential, etas, label = INVERTED, (0.02, 0.01), "exit-saddle"
        report = saddle_scaling_fit(INVERTED, 1.0, UNIT, np.zeros(1), etas, **kw)
    for j, eta in enumerate(etas):
        cfg = SdeConfig(potential=potential, eta=eta, dt=0.01, T=50.0, x0=np.zeros(1), seed=3)
        expected = hitting_time_mc(cfg, UNIT, 6, 50.0, experiment=f"{label}:eta{j}")
        got = report.extra["records"][eta]
        fields = lambda r: (r.path_index, r.exit_time, r.exit_steps, r.censored)  # noqa: E731
        assert [fields(r) for r in got] == [fields(r) for r in expected]
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a.exit_point, b.exit_point)
        assert report.entries[j].mean_exit_time == exit_time_stats(expected).mean


@pytest.mark.parametrize("n_paths", [5, 1100])
def test_a_ladder_of_any_size_is_one_path_major_scatter(n_paths):
    # Few or many paths per rung, a ladder runs in one scatter over its
    # path-major cells (cell i is path i // 3 of rung i % 3).  Under uneven
    # cuts, chunks of one cell among them, each rung's records are its own
    # hitting_time_mc run.
    etas = (0.5, 0.45, 0.4)
    n = len(etas) * n_paths
    bounds = sorted({0, 1, 2, n // 3, n // 3 + 1, n - 1, n})
    calls = []

    def scatter(fn, n_cells, *args):
        calls.append(n_cells)
        return [fn(*args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    kw = dict(source="mc", n_paths=n_paths, seed=3, dt=0.01, horizon=50.0, keep_records=True)
    report = minimizer_scaling_fit(WELL, 1.0, UNIT, etas, scatter=scatter, **kw)
    assert calls == [n]
    fields = lambda r: (r.path_index, r.exit_time, r.exit_steps, r.censored)  # noqa: E731
    for j, eta in enumerate(etas):
        cfg = SdeConfig(potential=WELL, eta=eta, dt=0.01, T=50.0, x0=np.zeros(1), seed=3)
        expected = hitting_time_mc(cfg, UNIT, n_paths, 50.0, experiment=f"exit-min:eta{j}")
        got = report.extra["records"][eta]
        assert [fields(r) for r in got] == [fields(r) for r in expected]
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a.exit_point, b.exit_point)
        assert report.entries[j].mean_exit_time == exit_time_stats(expected).mean


# ---------------------------------------------------------------------------
# The exit engine against the lockstep loop it replaced.
# ---------------------------------------------------------------------------


def _reference_first_exit(step_fn, x0, domain, gens, time_per_step, max_steps, block=1024):
    """The earlier engine, kept verbatim: a path-major noise block and the
    alive rows re-gathered with fancy indexing on every step."""
    n = len(gens)
    d = x0.size
    states = np.tile(x0, (n, 1))
    exit_step = np.full(n, -1, dtype=np.int64)
    exit_points = np.zeros((n, d))
    alive = np.arange(n)
    step0 = 0
    # Overflow to inf/nan is caught by the explicit guards below; the
    # intermediate warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while alive.size and step0 < max_steps:
            kblock = min(block, max_steps - step0)
            buf = np.empty((alive.size, kblock, d))
            for pos, i in enumerate(alive):
                buf[pos] = gens[i].standard_normal((kblock, d))
            x = states[alive].copy()
            mask = np.ones(alive.size, dtype=bool)
            for j in range(kblock):
                act = np.flatnonzero(mask)
                if act.size == 0:
                    break
                xn = step_fn(x[act], buf[act, j], (step0 + j) * time_per_step)
                x[act] = xn
                outside = ~domain.contains(xn)
                if outside.any():
                    if not np.all(np.isfinite(xn[outside])):
                        raise NumericalError(
                            f"non-finite state at step {step0 + j + 1}",
                            step=step0 + j + 1,
                        )
                    hit = act[outside]
                    exit_step[alive[hit]] = step0 + j + 1
                    exit_points[alive[hit]] = xn[outside]
                    mask[hit] = False
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite state near step {step0}", step=step0)
            states[alive] = x
            alive = alive[mask]
            step0 += kblock
    return exit_step, exit_points, states


def _reference_records(process, domain, n_paths, horizon, seed, label, block, linear=False):
    """(exit_time, exit_point, censored) per path from the reference loop,
    with the step functions the earlier hitting_time_mc built: for a
    diffusion the unfactored Euler step x + drift(x) dt + noise, or, with
    ``linear``, the step of the diagonal-quadratic kernel,
    (1 - lam dt) x + noise per axis, lam the Hessian's diagonal."""
    x0 = process.x0
    gens = streams.path_streams(seed, label, range(n_paths))
    if isinstance(process, SdeConfig):
        dt = process.dt
        sqrt_dt = math.sqrt(dt)

        def noise(x, xi, s):
            return process.amplitude(s) * sqrt_dt * apply_diffusion(process.diffusion, x, xi)

        if linear:
            c = 1.0 - np.diagonal(process.potential.hessian(x0)) * dt

            def step_fn(x, xi, s):
                return c * x + noise(x, xi, s)

        else:

            def step_fn(x, xi, s):
                return x + process.drift(x) * dt + noise(x, xi, s)

        time_per_step = dt
    else:
        eta = process.eta
        s_const = process.oracle.diffusion_at(x0)
        gradient = process.oracle.potential.gradient

        def step_fn(x, xi, s):
            return x - eta * (gradient(x) + xi @ s_const.T)

        time_per_step = eta
    max_steps = int(math.ceil(horizon / time_per_step - 1e-12))
    exit_step, exit_points, states = _reference_first_exit(
        step_fn, x0, domain, gens, time_per_step, max_steps, block=block
    )
    return [
        (horizon, states[i], True)
        if exit_step[i] < 0
        else (float(exit_step[i] * time_per_step), exit_points[i], False)
        for i in range(n_paths)
    ]


BOX = Domain.box([-0.5, -0.5], [0.5, 0.5])
BALL = Domain.ball([0.0, 0.0], 0.5)
SADDLE_2D = builtin("saddle_2d")
WELL_2D = builtin("quadratic_well", (1.0, 2.0))


def _sde(potential, x0, **kw):
    return SdeConfig(potential=potential, eta=0.5, dt=0.01, T=1.0, x0=np.array(x0), **kw)


def _chain(covariance):
    oracle = AdditiveGaussianOracle(SADDLE_2D, np.array(covariance))
    return SgdConfig(eta=0.01, steps=1, x0=np.array([0.4, 0.0]), oracle=oracle)


# Each case starts near the boundary with 30 steps to the horizon, so that,
# with block = 7, some paths leave on the first step, others leave in later
# blocks and at least two are censored.
ENGINE_CASES = {
    "interval-well": (_sde(WELL, [0.4]), Domain.interval(-0.5, 0.5)),
    "interval-inverted": (_sde(INVERTED, [0.4]), Domain.interval(-0.5, 0.5)),
    "noise-schedule": (
        _sde(WELL, [0.4], noise_schedule=lambda s: 0.9 / math.sqrt(1.0 + 10.0 * s)),
        Domain.interval(-0.5, 0.5),
    ),
    "box-matrix-diffusion": (
        _sde(WELL_2D, [0.4, 0.0], diffusion=np.array([[0.6, 0.25], [-0.1, 0.4]])),
        BOX,
    ),
    "state-dependent-diffusion": (
        _sde(WELL, [0.4], diffusion=lambda x: np.array([[1.0 + x[0] * x[0]]])),
        Domain.interval(-0.5, 0.5),
    ),
    "chain-isotropic": (
        SgdConfig(
            eta=0.01,
            steps=1,
            x0=np.array([0.4, 0.0]),
            oracle=AdditiveGaussianOracle.isotropic(SADDLE_2D, 7.0),
        ),
        BALL,
    ),
    "chain-non-diagonal": (_chain([[40.0, 15.0], [15.0, 30.0]]), BALL),
}
ENGINE_PATHS = 48
ENGINE_HORIZON = 0.3
#: The cases of builtin diagonal quadratics, which the engine steps through
#: the block stepper of ``sde.sde_kernel``.
LINEAR_CASES = ("interval-well", "interval-inverted", "noise-schedule", "box-matrix-diffusion")


def _engine_records(case, block=1024, path_indices=None):
    process, domain = ENGINE_CASES[case]
    return hitting_time_mc(
        process,
        domain,
        n_paths=ENGINE_PATHS,
        horizon=ENGINE_HORIZON,
        seed=13,
        experiment=f"engine:{case}",
        path_indices=path_indices,
        block=block,
    )


def _assert_same_records(records, expected):
    assert len(records) == len(expected)
    for rec, (exit_time, exit_point, censored) in zip(records, expected):
        assert rec.exit_time == exit_time
        assert rec.censored == censored
        np.testing.assert_array_equal(rec.exit_point, exit_point)


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_exit_engine_matches_reference_loop(case):
    process, domain = ENGINE_CASES[case]
    records = _engine_records(case, block=7)
    expected = _reference_records(
        process, domain, ENGINE_PATHS, ENGINE_HORIZON, 13, f"engine:{case}", block=7,
        linear=case in LINEAR_CASES,
    )
    _assert_same_records(records, expected)
    step = process.dt if isinstance(process, SdeConfig) else process.eta
    exit_steps = [round(r.exit_time / step) for r in records if not r.censored]
    assert min(exit_steps) == 1
    assert max(exit_steps) > 14  # beyond the second block boundary
    assert sum(r.censored for r in records) >= 2


@functools.cache
def _engine_baseline(case):
    return [(r.exit_time, r.exit_point, r.censored) for r in _engine_records(case)]


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(sorted(ENGINE_CASES)),
    block=st.integers(min_value=1, max_value=64),
    cuts=st.sets(st.integers(min_value=1, max_value=ENGINE_PATHS - 1), max_size=6),
)
def test_exit_records_ignore_block_size_and_chunking(case, block, cuts):
    bounds = [0, *sorted(cuts), ENGINE_PATHS]
    records = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = _engine_records(case, block=block, path_indices=range(lo, hi))
        assert [r.path_index for r in chunk] == list(range(lo, hi))
        records.extend(chunk)
    _assert_same_records(records, _engine_baseline(case))


def _assert_near_euler(records, expected):
    """Equal exit steps (so equal exit times) and censoring on every path,
    and exit points within 1e-9 relative of the unfactored Euler step's."""
    assert len(records) == len(expected)
    for rec, (exit_time, exit_point, censored) in zip(records, expected):
        assert rec.exit_time == exit_time
        assert rec.censored == censored
        gap = np.linalg.norm(rec.exit_point - exit_point)
        assert gap <= 1e-9 * np.linalg.norm(exit_point)


@pytest.mark.parametrize("case", LINEAR_CASES)
def test_linear_engine_cases_keep_the_euler_exit_steps(case):
    process, domain = ENGINE_CASES[case]
    expected = _reference_records(
        process, domain, ENGINE_PATHS, ENGINE_HORIZON, 13, f"engine:{case}", block=7
    )
    _assert_near_euler(_engine_records(case), expected)


# The CLI's tiny exit ladders (tests/test_acceptance.py TINY_CONFIGS):
# (fit, potential, eta_list, horizon, seed).
TINY_LADDERS = {
    "exit-min": ("minimizer", WELL, (0.25, 0.2), 400.0, 4),
    "exit-saddle": ("saddle", INVERTED, (0.01,), 100.0, 5),
}


@pytest.mark.parametrize("name", sorted(TINY_LADDERS))
def test_tiny_exit_ladders_keep_the_euler_exit_steps(name):
    fit, potential, etas, horizon, seed = TINY_LADDERS[name]
    kw = dict(source="mc", n_paths=64, seed=seed, dt=1e-3, horizon=horizon, keep_records=True)
    if fit == "minimizer":
        report = minimizer_scaling_fit(potential, 1.0, UNIT, etas, **kw)
    else:
        report = saddle_scaling_fit(potential, 1.0, UNIT, np.zeros(1), etas, **kw)
    for j, eta in enumerate(etas):
        cfg = SdeConfig(
            potential=potential, eta=eta, dt=1e-3, T=horizon, x0=np.zeros(1), seed=seed
        )
        expected = _reference_records(cfg, UNIT, 64, horizon, seed, f"{name}:eta{j}", 1024)
        _assert_near_euler(report.extra["records"][eta], expected)


def _counting(gradient, calls):
    def counted(x):
        calls.append(np.shape(x))
        return gradient(x)

    return counted


@pytest.mark.parametrize(
    "potential, x0, domain, stepped",
    [
        (WELL, [0.4], Domain.interval(-0.5, 0.5), False),
        (INVERTED, [0.1], Domain.interval(-0.5, 0.5), False),
        (SADDLE_2D, [0.1, 0.0], BOX, False),
        (DOUBLE_WELL, [1.0], Domain.interval(0.5, 1.5), True),
    ],
    ids=["quadratic_well", "inverted_quadratic", "saddle_2d", "double_well_1d"],
)
def test_a_wrapped_gradient_changes_neither_records_nor_kernel(potential, x0, domain, stepped):
    # A counting wrapper around a builtin's gradient, as a profiler or
    # tracer installs it, must not move a diagonal quadratic off its block
    # stepper (which never calls the gradient), nor any other family onto it.
    calls = []
    wrapped = dataclasses.replace(potential, gradient=_counting(potential.gradient, calls))
    cfg = SdeConfig(potential=potential, eta=0.5, dt=0.01, T=1.0, x0=np.array(x0))
    run = lambda c: hitting_time_mc(c, domain, 24, 0.3, seed=2, experiment="wrapped")  # noqa: E731
    expected = [(r.exit_time, r.exit_point, r.censored) for r in run(cfg)]
    calls.clear()  # the spec checks its critical points when it is built
    _assert_same_records(run(dataclasses.replace(cfg, potential=wrapped)), expected)
    assert bool(calls) == stepped


def test_a_hand_built_linear_potential_keeps_the_per_step_kernel():
    # The builtin well's own value and gradient, but a Hessian of its own:
    # only builtins take the block stepper, so these paths take the
    # unfactored Euler step, bit for bit, and not the builtin's records.
    hand_built = PotentialSpec(
        name="hand-built well",
        dim=1,
        value=WELL.value,
        gradient=WELL.gradient,
        hessian=lambda x: np.ones(np.shape(x) + (1,)),
    )
    process, domain = ENGINE_CASES["interval-well"]
    cfg = dataclasses.replace(process, potential=hand_built)
    label = "engine:interval-well"
    records = hitting_time_mc(
        cfg, domain, ENGINE_PATHS, ENGINE_HORIZON, seed=13, experiment=label
    )
    euler = _reference_records(cfg, domain, ENGINE_PATHS, ENGINE_HORIZON, 13, label, 1024)
    _assert_same_records(records, euler)
    builtin_points = [r.exit_point for r in _engine_records("interval-well")]
    assert any(not np.array_equal(a, b[1]) for a, b in zip(builtin_points, euler))


def test_non_finite_state_raises_numerical_error():
    """The noiseless double-well map at dt = 10 from 1.5 overflows on its
    sixth step, inside an interval wide enough to hold every finite iterate
    before it."""
    cfg = SdeConfig(
        potential=DOUBLE_WELL, eta=0.1, dt=10.0, T=100.0, x0=np.array([1.5]), diffusion=0.0
    )
    with pytest.raises(NumericalError) as info:
        hitting_time_mc(cfg, Domain.interval(-1e200, 1e200), n_paths=3, horizon=100.0, seed=0)
    assert info.value.step == 6


def test_paths_that_diverge_after_their_exit_keep_their_records():
    """Paths kicked out of the double well overflow a few steps after they
    leave a wide interval.  The engine steps them to the end of their block,
    so the gradient meets those non-finite states, but only exit points
    count."""
    finite = []

    def recording(x):
        finite.append(bool(np.all(np.isfinite(x))))
        return DOUBLE_WELL.gradient(x)

    potential = dataclasses.replace(DOUBLE_WELL, gradient=recording)
    cfg = SdeConfig(
        potential=DOUBLE_WELL, eta=0.1, dt=0.5, T=1.0, x0=np.array([1.0]), diffusion=3.0
    )
    domain = Domain.interval(-1e10, 1e10)
    records = hitting_time_mc(
        dataclasses.replace(cfg, potential=potential),
        domain,
        n_paths=24,
        horizon=30.0,
        seed=0,
        experiment="diverge",
        block=16,
    )
    _assert_same_records(records, _reference_records(cfg, domain, 24, 30.0, 0, "diverge", 16))
    assert not all(finite)
    assert 0 < sum(r.censored for r in records) < 24


def test_non_finite_exit_is_reported_at_its_earliest_step():
    """Three paths jump to inf at steps 5, 3 and 9 of one block."""
    blow_up = np.array([[5], [3], [9]])

    def step_fn(x, noise, k):
        return np.where(k + 1 >= blow_up, np.inf, x)

    gens = streams.path_streams(0, "blow-up", range(3))
    with pytest.raises(NumericalError) as info:
        streams.lockstep(streams.gaussian_kernel(step_fn, 1), np.zeros(1), gens, 12, domain=UNIT)
    assert info.value.step == 3


# Exits spread over 57 to 2000 steps, across slabs and 1024-step blocks:
# the diagonal quadratics' block stepper and the per-step kernel.
LONG_CASES = {
    "well": (_sde(WELL, [0.0]), UNIT),
    "double-well": (_sde(DOUBLE_WELL, [1.0]), Domain.interval(0.0, 2.0)),
}


def _long_records(case):
    process, domain = LONG_CASES[case]
    return hitting_time_mc(process, domain, 24, 50.0, seed=13, experiment=f"slab:{case}")


@pytest.mark.parametrize("slab", [1, 7, "block"])
def test_exit_records_ignore_the_scan_slab(slab, monkeypatch):
    """Scans of 1 and 7 steps, and of whole blocks, against scans of
    ``SCAN_SLAB`` steps: a byte budget of 0 gives the fewest steps, and one
    above any block gives the whole block."""
    monkeypatch.setattr(streams, "SCAN_BYTES", 0)
    expected = {case: _engine_baseline(case) for case in ENGINE_CASES}
    expected_long = {
        case: [(r.exit_time, r.exit_point, r.censored) for r in _long_records(case)]
        for case in LONG_CASES
    }
    if slab == "block":
        monkeypatch.setattr(streams, "SCAN_BYTES", 2**62)
        assert streams.scan_slab((1024, 2000, 2)) == 1024
    else:
        monkeypatch.setattr(streams, "SCAN_SLAB", slab)
        assert streams.scan_slab((1024, 1, 1)) == slab
    for case in ENGINE_CASES:
        _assert_same_records(_engine_records(case), expected[case])
        _assert_same_records(_engine_records(case, block=7), expected[case])
    for case in LONG_CASES:
        _assert_same_records(_long_records(case), expected_long[case])


def test_lockstep_rejects_an_observer_with_a_domain():
    with pytest.raises(ValueError, match="on_step"):
        streams.lockstep(
            streams.gaussian_kernel(lambda x, noise, k: x + noise, 1),
            np.zeros(1),
            streams.path_streams(0, "observer", range(2)),
            4,
            domain=UNIT,
            on_step=lambda k, x: None,
        )


def _no_streams(*args, **kwargs):
    raise AssertionError("a stream was built before the arguments were checked")


@pytest.mark.parametrize("block", [0, -3])
def test_hitting_mc_rejects_block_below_one(block, monkeypatch):
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    cfg = SdeConfig(potential=WELL, eta=0.25, dt=1e-3, T=1.0, x0=np.array([0.0]))
    with pytest.raises(ValueError, match="block"):
        hitting_time_mc(cfg, UNIT, n_paths=4, horizon=1.0, seed=0, block=block)


@pytest.mark.parametrize(
    "fit, etas, message",
    [
        ("minimizer", (0.25, 0.0), "eta must be positive"),
        ("minimizer", (0.25, 0.2, -0.1), "eta must be positive"),
        ("saddle", (0.01, 1.0), "0 < eta < 1"),
        ("saddle", (0.01, 0.02, 0.0), "0 < eta < 1"),
        ("minimizer", (0.25, 0.25), "repeats an eta"),
        ("saddle", (0.01, 0.02, 0.01), "repeats an eta"),
    ],
)
def test_scaling_fits_reject_a_bad_ladder_before_any_path_runs(fit, etas, message, monkeypatch):
    monkeypatch.setattr(streams, "path_streams", _no_streams)
    kw = dict(source="mc", n_paths=4, dt=0.01, horizon=10.0)
    with pytest.raises(ValueError, match=message):
        if fit == "minimizer":
            minimizer_scaling_fit(WELL, 1.0, UNIT, etas, **kw)
        else:
            saddle_scaling_fit(INVERTED, 1.0, UNIT, np.zeros(1), etas, **kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_noise_is_refused_before_any_quadrature(bad):
    """eta * sigma^2 outside (0, inf) raises at once, in the oracle and in
    both scaling fits that call it, instead of doubling the grid to its cap."""
    with pytest.raises(ValueError, match="positive and finite"):
        log_mean_exit_bvp_1d(DOUBLE_WELL, bad, (-1.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        minimizer_scaling_fit(DOUBLE_WELL, bad, Domain.interval(-1.0, 2.0), [0.1])
    with pytest.raises(ValueError, match="positive and finite"):
        saddle_scaling_fit(INVERTED, bad, UNIT, np.zeros(1), [0.1])
