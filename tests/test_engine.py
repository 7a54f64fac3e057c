"""The fixed-horizon callers of the lockstep engine against the loops it
replaced: Euler-Maruyama endpoints, the additive-Gaussian SGD ensemble and
annealing.  The earlier loops are kept verbatim as ``_reference_*``; the
engine must reproduce them bit for bit, whatever the block size and however
paths are split into chunks.  Each caller must also stop on a blow-up.
Mini-batch chains and chains with a callable covariance, ensembles and
exits alike, must equal per-path ``run_sgd`` bit for bit, and noise shaped
once per block must keep the bits of the per-path product."""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    BatchSchedule,
    Domain,
    FiniteSumSpec,
    MinibatchOracle,
    NumericalError,
    SdeConfig,
    SgdConfig,
    anneal_experiment,
    builtin,
    em_endpoints,
    gaussian_cloud,
    hitting_time_mc,
    run_sgd,
    run_sgd_ensemble,
    streams,
)
from sgdlab.exit_times import anneal_chunk
from sgdlab.sde import _time_grid, sde_kernel
from sgdlab.oracles import WITH_REPLACEMENT, WITHOUT_REPLACEMENT
from sgdlab.sgd import chain_kernel
from test_exit_times import (
    ENGINE_CASES,
    _assert_same_records,
    _engine_baseline,
    _engine_records,
    _per_path_diffusion,
)

WELL = builtin("quadratic_well")
WELL_2D = builtin("quadratic_well", (1.0, 2.0))
SADDLE_2D = builtin("saddle_2d")
DOUBLE_WELL = builtin("double_well_1d")
TILTED = builtin("asym_double_well_1d", params=(-0.05,))
SHALLOW = max(TILTED.minimizers(), key=lambda cp: float(TILTED.value(cp.location))).location
NON_DIAGONAL = np.array([[0.6, 0.25], [-0.1, 0.4]])


# ---------------------------------------------------------------------------
# The earlier loops, verbatim.
# ---------------------------------------------------------------------------


def _reference_em_endpoints(cfg, n_paths, experiment="sde-ensemble", path_indices=None):
    """The earlier ``em_endpoints``: the whole (n, steps, d) noise array up
    front, the diffusion applied to all paths at each step."""
    indices = path_indices if path_indices is not None else range(n_paths)
    gens = streams.path_streams(cfg.seed, experiment, indices)
    n = len(gens)
    d = cfg.potential.dim
    n_steps = int(math.ceil(cfg.T / cfg.dt - 1e-12))
    noise = np.empty((n, n_steps, d))
    for i, gen in enumerate(gens):
        noise[i] = gen.standard_normal((n_steps, d))
    times = np.minimum(np.arange(n_steps + 1) * cfg.dt, cfg.T)
    x = np.tile(cfg.x0, (n, 1))
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        s_xi = _per_path_diffusion(cfg.diffusion, x, noise[:, k])
        x = x + cfg.drift(x) * h + cfg.amplitude(times[k]) * math.sqrt(h) * s_xi
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite state at step {k + 1}", step=k + 1)
    return x


def _reference_sgd_ensemble(
    cfg, n_paths, experiment="sgd-ensemble", path_indices=None, reference_states=None
):
    """The earlier vectorised branch of ``run_sgd_ensemble``."""
    indices = path_indices if path_indices is not None else range(n_paths)
    gens = streams.path_streams(cfg.seed, experiment, indices)
    n = len(gens)
    d = cfg.oracle.potential.dim
    diffusion = cfg.oracle.diffusion_at(cfg.x0)
    gradient = cfg.oracle.potential.gradient
    noise = np.empty((n, cfg.steps, d))
    for i, gen in enumerate(gens):
        noise[i] = gen.standard_normal((cfg.steps, d))
    x = np.tile(cfg.x0, (n, 1))
    gaps = np.zeros(n) if reference_states is not None else None
    # Overflow to inf/nan is caught by the guard below; silence the noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps):
            g = gradient(x) + noise[:, k] @ diffusion.T
            x = x - cfg.eta * g
            if not np.all(np.isfinite(x)):
                raise NumericalError(
                    f"non-finite state at step {k + 1} in ensemble", step=k + 1
                )
            if reference_states is not None:
                np.maximum(
                    gaps, np.linalg.norm(x - reference_states[k + 1], axis=1), out=gaps
                )
    return x, gaps


def _reference_anneal(
    potential, gamma, T, n_paths, epsilon, mode="cooling", seed=0, dt=0.01,
    experiment="anneal", n_checkpoints=50, block=4096,
):
    """The earlier ``anneal_experiment`` loop from the shallow well: a
    path-major noise block, successes and occupancy fractions."""
    targets = np.stack([cp.location for cp in potential.global_minimizers()])
    mins = potential.minimizers()
    values = [float(potential.value(cp.location)) for cp in mins]
    start = mins[int(np.argmax(values))].location  # the shallow well
    d = potential.dim

    if mode == "cooling":
        amp_fn = lambda s: math.sqrt(gamma / math.log(2.0 + s))  # noqa: E731
    else:
        const = math.sqrt(gamma / math.log(2.0 + T))
        amp_fn = lambda s: const  # noqa: E731

    indices = list(range(n_paths))
    gens = streams.path_streams(seed, f"{experiment}:{mode}", indices)
    n = len(gens)
    n_steps = int(math.ceil(T / dt - 1e-12))
    times = np.minimum(np.arange(n_steps + 1) * dt, T)
    check_times = np.linspace(0.0, T, n_checkpoints + 1)[1:] if n_checkpoints else np.array([])
    check_idx = 0
    occupancy = np.zeros(check_times.size)

    def in_target(xs):
        dist2 = ((xs[:, None, :] - targets) ** 2).sum(axis=-1)
        return (dist2.min(axis=1) <= epsilon**2)

    gradient = potential.gradient
    x = np.tile(start, (n, 1))
    step = 0
    # Overflow to inf/nan is caught by the guard below; silence the noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            kblock = min(block, n_steps - step)
            buf = np.empty((n, kblock, d))
            for pos, gen in enumerate(gens):
                buf[pos] = gen.standard_normal((kblock, d))
            for j in range(kblock):
                h = times[step + 1] - times[step]
                x = x - gradient(x) * h + amp_fn(times[step]) * math.sqrt(h) * buf[:, j]
                step += 1
                while check_idx < check_times.size and times[step] >= check_times[check_idx] - 1e-12:
                    occupancy[check_idx] = in_target(x).mean() if n else 0.0
                    check_idx += 1
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite state near step {step}", step=step)
    successes = int(in_target(x).sum())
    return successes, occupancy


# ---------------------------------------------------------------------------
# Cases: every diffusion form, and both oracle noise forms.
# ---------------------------------------------------------------------------


def _sde(potential, x0, **kw):
    kw = {"eta": 0.3, "dt": 0.01, "T": 0.5, **kw}
    return SdeConfig(potential=potential, x0=np.array(x0), seed=3, **kw)


SDE_CASES = {
    "scalar": _sde(DOUBLE_WELL, [0.5], diffusion=0.7),
    "short-last-step": _sde(DOUBLE_WELL, [0.5], T=0.537),
    "second-order": _sde(DOUBLE_WELL, [0.5], drift_order="second"),
    "noise-schedule": _sde(
        WELL, [0.5], noise_schedule=lambda s: 0.9 / math.sqrt(1.0 + 10.0 * s)
    ),
    "matrix": _sde(WELL_2D, [0.4, -0.2], diffusion=NON_DIAGONAL),
    "state-dependent": _sde(
        DOUBLE_WELL, [0.5], diffusion=lambda x: (1.0 + x[..., :1] * x[..., :1])[..., None]
    ),
}


def _chain(covariance, steps=40):
    oracle = AdditiveGaussianOracle(SADDLE_2D, np.array(covariance))
    return SgdConfig(eta=0.02, steps=steps, x0=np.array([0.4, 0.1]), oracle=oracle, seed=5)


SGD_CASES = {
    "isotropic": _chain([[0.5, 0.0], [0.0, 0.5]]),
    "non-diagonal": _chain([[0.5, 0.2], [0.2, 0.4]]),
}


def _minibatch_chain(mode, d, scheduled, steps=40, x0=None):
    """A chain of batches of 9 centres; the schedule grows m from 2 to 4."""
    centers = np.random.default_rng(d).normal(scale=2.0, size=(9, d))
    oracle = MinibatchOracle(gaussian_cloud(centers - centers.mean(axis=0)), 3, mode)
    schedule = BatchSchedule(C=0.2, eta=0.1, m_star=7, M=9) if scheduled else None
    x0 = np.full(d, 0.25) if x0 is None else x0
    return SgdConfig(eta=0.1, steps=steps, x0=x0, oracle=oracle, schedule=schedule, seed=6)


MINIBATCH_CASES = {
    f"{mode}-d{d}{'-schedule' if scheduled else ''}": _minibatch_chain(mode, d, scheduled)
    for mode in (WITHOUT_REPLACEMENT, WITH_REPLACEMENT)
    for d in (1, 2)
    for scheduled in (False, True)
}


def _flow_reference(cfg):
    """A smooth stand-in for the gradient-flow knots of the sup-gap."""
    t = np.arange(cfg.steps + 1)[:, None] * cfg.eta
    return cfg.x0 * np.exp(np.array([1.0, -1.0]) * t)


N_PATHS = 16


@pytest.mark.parametrize("case", sorted(SDE_CASES))
def test_em_endpoints_match_reference_loop(case):
    cfg = SDE_CASES[case]
    expected = _reference_em_endpoints(cfg, N_PATHS, experiment=f"em:{case}")
    np.testing.assert_array_equal(em_endpoints(cfg, N_PATHS, experiment=f"em:{case}"), expected)


@pytest.mark.parametrize("case", sorted(SGD_CASES))
def test_sgd_ensemble_matches_reference_loop(case):
    cfg = SGD_CASES[case]
    ref = _flow_reference(cfg)
    expected, expected_gaps = _reference_sgd_ensemble(
        cfg, N_PATHS, experiment=f"sgd:{case}", reference_states=ref
    )
    result = run_sgd_ensemble(cfg, N_PATHS, experiment=f"sgd:{case}", reference_states=ref)
    np.testing.assert_array_equal(result.endpoints, expected)
    np.testing.assert_array_equal(result.sup_gaps, expected_gaps)
    plain = run_sgd_ensemble(cfg, N_PATHS, experiment=f"sgd:{case}")
    np.testing.assert_array_equal(plain.endpoints, expected)
    assert plain.sup_gaps is None


ANNEAL_KW = dict(gamma=0.4, T=20.0, n_paths=48, epsilon=0.25, seed=2, dt=0.05, n_checkpoints=7)


@pytest.mark.parametrize("mode", ["cooling", "constant"])
def test_anneal_matches_reference_loop(mode, monkeypatch):
    successes, occupancy = _reference_anneal(TILTED, mode=mode, block=64, **ANNEAL_KW)
    monkeypatch.setattr(streams, "BLOCK_STEPS", 64)
    result = anneal_experiment(TILTED, mode=mode, **ANNEAL_KW)
    assert result.successes == successes
    np.testing.assert_array_equal(result.occupancy_fracs, occupancy)
    assert 0 < successes < ANNEAL_KW["n_paths"]


@pytest.mark.parametrize("kind", ["em", "sgd"])
def test_matrix_noise_ignores_one_path_chunks(kind):
    """numpy sends a one-row matrix product to gemv, whose last bits differ
    from gemm's; a path run alone must still match the full run."""
    if kind == "em":
        cfg = SDE_CASES["matrix"]
        full = em_endpoints(cfg, N_PATHS, experiment="one-path")
        parts = [
            em_endpoints(cfg, range(i, i + 1), experiment="one-path")
            for i in range(N_PATHS)
        ]
    else:
        cfg = SGD_CASES["non-diagonal"]
        full = run_sgd_ensemble(cfg, N_PATHS, experiment="one-path").endpoints
        parts = [
            run_sgd_ensemble(cfg, range(i, i + 1), experiment="one-path").endpoints
            for i in range(N_PATHS)
        ]
    np.testing.assert_array_equal(np.concatenate(parts), full)


# ---------------------------------------------------------------------------
# Block size and chunking never change a result.
# ---------------------------------------------------------------------------


def _em_chunk(case, block, lo, hi):
    cfg = SDE_CASES[case]
    times = _time_grid(cfg.T, cfg.dt)
    with mock.patch.object(streams, "BLOCK_STEPS", block):
        return streams.lockstep(
            sde_kernel(cfg, times), cfg.x0, cfg.seed, f"em:{case}", range(lo, hi), times.size - 1
        )[2]


def _sgd_chunk(case, block, lo, hi):
    """``run_sgd_ensemble``'s vectorised branch with blocks of ``block``
    steps."""
    cfg = SGD_CASES[case]
    ref = _flow_reference(cfg)
    gaps = np.zeros(hi - lo)

    def track(k0, states):
        for j, x in enumerate(states):
            np.maximum(gaps, np.linalg.norm(x - ref[k0 + j + 1], axis=1), out=gaps)

    kernel = chain_kernel(cfg, cfg.steps)
    with mock.patch.object(streams, "BLOCK_STEPS", block):
        ends = streams.lockstep(
            kernel, cfg.x0, cfg.seed, f"sgd:{case}", range(lo, hi), cfg.steps, on_block=track
        )[2]
    return np.column_stack([ends, gaps])


def _decay_reference(cfg):
    """A reference path x0 exp(-t) for the sup-gaps of a chain of any dim."""
    return cfg.x0 * np.exp(-np.arange(cfg.steps + 1)[:, None] * cfg.eta)


def _chain_chunk(cfg, label, block, lo, hi):
    """Endpoints and sup-gaps of ``run_sgd_ensemble``'s paths lo, ..., hi - 1
    with blocks of ``block`` steps."""
    ref = _decay_reference(cfg)
    gaps = np.zeros(hi - lo)

    def track(k0, states):
        for j, x in enumerate(states):
            np.maximum(gaps, np.linalg.norm(x - ref[k0 + j + 1], axis=1), out=gaps)

    kernel = chain_kernel(cfg, cfg.steps)
    with mock.patch.object(streams, "BLOCK_STEPS", block):
        ends = streams.lockstep(
            kernel, cfg.x0, cfg.seed, label, range(lo, hi), cfg.steps, on_block=track
        )[2]
    return np.column_stack([ends, gaps])


def _minibatch_chunk(case, block, lo, hi):
    return _chain_chunk(MINIBATCH_CASES[case], f"sgd:{case}", block, lo, hi)


def _anneal_chunk(mode, block, lo, hi):
    """Per-checkpoint counts of paths in the target window, and successes."""
    kw = {k: v for k, v in ANNEAL_KW.items() if k not in ("n_paths", "n_checkpoints")}
    check_times = np.linspace(0.0, kw["T"], ANNEAL_KW["n_checkpoints"] + 1)[1:]
    with mock.patch.object(streams, "BLOCK_STEPS", block):
        successes, counts = anneal_chunk(
            TILTED, start=SHALLOW, mode=mode, check_times=check_times, lo=lo, hi=hi, **kw
        )
    return np.append(counts, successes)[None, :]


CHUNKED = {
    **{f"em:{case}": functools.partial(_em_chunk, case) for case in SDE_CASES},
    **{f"sgd:{case}": functools.partial(_sgd_chunk, case) for case in SGD_CASES},
    **{
        f"sgd:{case}": functools.partial(_minibatch_chunk, case)
        for case in ("without_replacement-d2-schedule", "with_replacement-d1")
    },
    **{f"anneal:{m}": functools.partial(_anneal_chunk, m) for m in ("cooling", "constant")},
}


@functools.cache
def _chunked_baseline(case):
    return CHUNKED[case](1024, 0, N_PATHS)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(CHUNKED)),
    block=st.integers(min_value=1, max_value=64),
    cuts=st.sets(st.integers(min_value=1, max_value=N_PATHS - 1)),
)
def test_fixed_horizon_results_ignore_block_size_and_chunking(case, block, cuts):
    bounds = [0, *sorted(cuts), N_PATHS]
    parts = [CHUNKED[case](block, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    total = np.concatenate(parts)
    if case.startswith("anneal"):
        total = total.sum(axis=0, keepdims=True)
    np.testing.assert_array_equal(total, _chunked_baseline(case))


def test_noise_blocks_are_capped_in_bytes(monkeypatch):
    monkeypatch.setattr(streams, "NOISE_BLOCK_BYTES", 8 * 2 * 16 * 5)  # 5 steps of 16 2-D paths
    lengths = []

    def step(x, noise, k):
        lengths.append(len(noise.base))
        return x + noise

    kernel = streams.gaussian_kernel(step, 2)
    streams.lockstep(kernel, np.zeros(2), 0, "cap", range(16), 12)
    assert lengths == [5] * 10 + [2] * 2


@pytest.mark.parametrize("cap", [1, 8 * N_PATHS * 5])
def test_results_ignore_the_noise_block_byte_cap(cap, monkeypatch):
    fixed = {case: _chunked_baseline(case) for case in CHUNKED}
    exits = {case: _engine_baseline(case) for case in ENGINE_CASES}
    monkeypatch.setattr(streams, "NOISE_BLOCK_BYTES", cap)
    for case, expected in fixed.items():
        np.testing.assert_array_equal(CHUNKED[case](1024, 0, N_PATHS), expected)
    for case, expected in exits.items():
        _assert_same_records(_engine_records(case), expected)


# ---------------------------------------------------------------------------
# Blow-ups.
# ---------------------------------------------------------------------------

# The noiseless double-well map with step 10 from 1.5 overflows on its sixth
# step.  The engine checks once per block, so the step it reports lies
# between the blow-up and the end of that block.


def test_em_endpoints_raise_on_a_blow_up():
    cfg = SdeConfig(
        potential=DOUBLE_WELL, eta=0.1, dt=10.0, T=100.0, x0=np.array([1.5]), diffusion=0.0
    )
    with pytest.raises(NumericalError) as info:
        em_endpoints(cfg, 3)
    assert 6 <= info.value.step <= 10


def test_sgd_ensemble_raises_on_a_blow_up():
    oracle = AdditiveGaussianOracle.isotropic(DOUBLE_WELL, 0.0)
    cfg = SgdConfig(eta=10.0, steps=10, x0=np.array([1.5]), oracle=oracle)
    with pytest.raises(NumericalError) as info:
        run_sgd_ensemble(cfg, 3)
    assert 6 <= info.value.step <= 10


def test_anneal_raises_on_a_blow_up(monkeypatch):
    monkeypatch.setattr(streams, "BLOCK_STEPS", 4)
    with pytest.raises(NumericalError) as info:
        anneal_experiment(
            TILTED, gamma=0.0, T=100.0, n_paths=3, epsilon=0.25, start=[1.5], dt=10.0
        )
    assert 6 <= info.value.step <= 8


# ---------------------------------------------------------------------------
# The per-path chain loop: exits and trajectories step the same path.
# ---------------------------------------------------------------------------


def test_minibatch_chain_exits_follow_run_sgd():
    fs = gaussian_cloud(np.array([[1.0], [-1.0], [0.5], [-0.5]]))
    cfg = SgdConfig(eta=0.1, steps=60, x0=np.zeros(1), oracle=MinibatchOracle(fs, 1), seed=4)
    domain = Domain.interval(-0.35, 0.35)
    records = hitting_time_mc(cfg, domain, n_paths=12, horizon=6.0, experiment="chain")
    gens = streams.path_streams(4, "chain", range(12))
    for rec, gen in zip(records, gens):
        states = run_sgd(cfg, rng=gen).states[1:]
        outside = np.flatnonzero(~domain.contains(states))
        if rec.censored:
            assert outside.size == 0
            np.testing.assert_array_equal(rec.exit_point, states[-1])
        else:
            assert rec.exit_steps == outside[0] + 1
            assert rec.exit_time == (outside[0] + 1) * cfg.eta
            np.testing.assert_array_equal(rec.exit_point, states[outside[0]])
    assert 0 < sum(r.censored for r in records) < len(records)


# ---------------------------------------------------------------------------
# Every chain on the engine: mini-batch and state-dependent noise against
# per-path run_sgd, and noise shaped once per block.
# ---------------------------------------------------------------------------

CHAIN_PATHS = 24
#: Chunk bounds that cut the paths into runs of 5, 1 and 18.
CHAIN_CUTS = (0, 5, 6, CHAIN_PATHS)


def _run_sgd_paths(cfg, label, n_paths, steps=None):
    """Each path's stored states (steps + 1, d) from per-path ``run_sgd``."""
    cfg = dataclasses.replace(cfg, steps=cfg.steps if steps is None else steps)
    gens = streams.path_streams(cfg.seed, label, range(n_paths))
    return [run_sgd(cfg, rng=gen).states for gen in gens]


def _assert_ensemble_follows_run_sgd(cfg, label, block):
    ref = _decay_reference(cfg)
    paths = _run_sgd_paths(cfg, label, CHAIN_PATHS)
    expected = np.array([states[-1] for states in paths])
    expected_gaps = np.array([np.linalg.norm(states - ref, axis=1).max() for states in paths])
    parts = [
        _chain_chunk(cfg, label, block, lo, hi) for lo, hi in zip(CHAIN_CUTS, CHAIN_CUTS[1:])
    ]
    got = np.concatenate(parts)
    np.testing.assert_array_equal(got[:, :-1], expected)
    np.testing.assert_array_equal(got[:, -1], expected_gaps)
    result = run_sgd_ensemble(cfg, CHAIN_PATHS, experiment=label, reference_states=ref)
    np.testing.assert_array_equal(result.endpoints, expected)
    np.testing.assert_array_equal(result.sup_gaps, expected_gaps)


def _assert_exits_follow_run_sgd(cfg, domain, label, horizon, block):
    max_steps = int(math.ceil(horizon / cfg.eta - 1e-12))
    paths = _run_sgd_paths(cfg, label, CHAIN_PATHS, steps=max_steps)
    records = []
    with mock.patch.object(streams, "BLOCK_STEPS", block):
        for lo, hi in zip(CHAIN_CUTS, CHAIN_CUTS[1:]):
            records += hitting_time_mc(cfg, domain, range(lo, hi), horizon, experiment=label)
    steps = []
    for rec, states in zip(records, paths):
        outside = np.flatnonzero(~domain.contains(states[1:]))
        if rec.censored:
            assert outside.size == 0
            assert rec.exit_time == horizon
            np.testing.assert_array_equal(rec.exit_point, states[-1])
        else:
            k = int(outside[0]) + 1
            steps.append(k)
            assert rec.exit_steps == k
            assert rec.exit_time == k * cfg.eta
            np.testing.assert_array_equal(rec.exit_point, states[k])
    # Exits within the first two blocks of 7, after them, and none at all.
    assert min(steps) < 14 < max(steps)
    assert sum(r.censored for r in records) >= 1


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("case", sorted(MINIBATCH_CASES))
def test_minibatch_ensembles_follow_run_sgd(case, block):
    _assert_ensemble_follows_run_sgd(MINIBATCH_CASES[case], f"mb:{case}", block)


#: Starts near the boundary, so that paths leave early, late or not at all.
MINIBATCH_EXIT_X0 = {1: np.array([0.3]), 2: np.array([0.3, 0.0])}


def _minibatch_exit_case(case):
    cfg = MINIBATCH_CASES[case]
    d = cfg.x0.size
    domain = Domain.interval(-0.35, 0.35) if d == 1 else Domain.ball(np.zeros(2), 0.5)
    return dataclasses.replace(cfg, x0=MINIBATCH_EXIT_X0[d]), domain


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("case", sorted(MINIBATCH_CASES))
def test_minibatch_exits_follow_run_sgd(case, block):
    cfg, domain = _minibatch_exit_case(case)
    _assert_exits_follow_run_sgd(cfg, domain, f"mb-exit:{case}", 6.0, block)


def _state_dependent_chain(d):
    if d == 1:
        oracle = AdditiveGaussianOracle(
            DOUBLE_WELL, lambda x: (0.2 + x[..., :1] * x[..., :1])[..., None]
        )
        return SgdConfig(eta=0.05, steps=40, x0=np.array([0.8]), oracle=oracle, seed=7)

    def covariance(x):
        a, b = x[..., 0], x[..., 1]
        top = np.stack([1.5 + 5 * a * a, 0.5 * b], axis=-1)
        return np.stack([top, np.stack([0.5 * b, 1.0 + 5 * b * b], axis=-1)], axis=-2)

    oracle = AdditiveGaussianOracle(WELL_2D, covariance)
    return SgdConfig(eta=0.05, steps=40, x0=np.array([0.2, 0.1]), oracle=oracle, seed=7)


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("d", [1, 2])
def test_state_dependent_noise_chains_follow_run_sgd(d, block):
    cfg = _state_dependent_chain(d)
    _assert_ensemble_follows_run_sgd(cfg, f"cov:{d}", block)
    if d == 1:
        x0, domain = np.array([0.75]), Domain.interval(0.5, 1.0)
    else:
        x0, domain = np.array([0.3, 0.0]), Domain.ball(np.zeros(2), 0.4)
    cfg = dataclasses.replace(cfg, x0=x0)
    _assert_exits_follow_run_sgd(cfg, domain, f"cov-exit:{d}", 3.0, block)


def test_state_dependent_noise_chain_raises_on_a_blow_up():
    oracle = AdditiveGaussianOracle(DOUBLE_WELL, lambda x: (0.0 * x[..., :1])[..., None])
    cfg = SgdConfig(eta=10.0, steps=10, x0=np.array([1.5]), oracle=oracle)
    with pytest.raises(NumericalError) as info:
        run_sgd_ensemble(cfg, 3)
    assert 6 <= info.value.step <= 10


@pytest.mark.parametrize("cap", [1, 8 * CHAIN_PATHS * 5])
@pytest.mark.parametrize("case", ["without_replacement-d2-schedule", "with_replacement-d1"])
def test_minibatch_exits_ignore_the_noise_block_byte_cap(case, cap, monkeypatch):
    cfg, domain = _minibatch_exit_case(case)
    expected = hitting_time_mc(cfg, domain, CHAIN_PATHS, 6.0, experiment="cap")
    monkeypatch.setattr(streams, "NOISE_BLOCK_BYTES", cap)
    got = hitting_time_mc(cfg, domain, CHAIN_PATHS, 6.0, experiment="cap")
    _assert_same_records(got, [(r.exit_time, r.exit_point, r.censored) for r in expected])


def _per_path_draw(fn, width):
    """A ``PathDraw`` of int64 rows from ``fn(gen, k0, k1)``, one call per
    path and block."""

    def fill(gens, ids, k0, k1, out):
        for c, i in enumerate(ids):
            out[:, c] = fn(gens[i], k0, k1)

    return streams.PathDraw(fill, width, np.int64)


@pytest.mark.parametrize("with_domain", [False, True])
def test_draw_blocks_are_capped_by_the_row_drawn(with_domain, monkeypatch):
    # 16 two-dimensional paths drawing 6 int64 per step: 48 bytes a row, and
    # with a domain 16 more for the states, so 5 steps fit either cap.
    row = 8 * 6 + (8 * 2 if with_domain else 0)
    monkeypatch.setattr(streams, "NOISE_BLOCK_BYTES", row * 16 * 5)
    lengths = []

    def step(x, batches, k):
        lengths.append(len(batches.base))
        return x + 0.0 * batches[:, :2]

    draw = _per_path_draw(lambda gen, k0, k1: gen.integers(0, 9, size=(k1 - k0, 6)), 6)
    domain = Domain.box([-1.0, -1.0], [1.0, 1.0]) if with_domain else None
    streams.lockstep(
        streams.Kernel(step, draw), np.zeros(2), 0, "cap", range(16), 12, domain=domain
    )
    assert lengths == [5] * 10 + [2] * 2


def test_draw_blocks_under_a_domain_grow_from_the_scan_slab(monkeypatch):
    """A kernel's draw can cost a Python call per step, so under a domain
    its blocks start at SCAN_SLAB steps and double: a path that leaves at
    once draws one short block, not ``BLOCK_STEPS`` steps."""
    monkeypatch.setattr(streams, "BLOCK_STEPS", 300)
    lengths = []

    def fn(gen, k0, k1):
        lengths.append(k1 - k0)
        return gen.integers(0, 9, size=(k1 - k0, 1))

    draw = _per_path_draw(fn, 1)
    stay = streams.Kernel(lambda x, batches, k: x + 0.0 * batches, draw)
    wide = Domain.interval(-1.0, 1.0)
    streams.lockstep(stay, np.zeros(1), 0, "grow", range(3), 1000, domain=wide)
    slab = streams.SCAN_SLAB
    assert lengths == [n for n in (slab, 2 * slab, 4 * slab, 300, 1000 - 7 * slab - 300)
                       for _ in range(3)]
    lengths.clear()
    leave = streams.Kernel(lambda x, batches, k: x + 1.0, draw)
    exit_step, _, _ = streams.lockstep(
        leave, np.zeros(1), 0, "grow", range(3), 1000, domain=Domain.interval(-0.5, 0.5)
    )
    assert lengths == [slab] * 3 and exit_step.tolist() == [1, 1, 1]


def _run_sgd_exits(cfg, domain, label, n_paths, max_steps):
    """Each path's (exit step, or None if it stays, and its last state) from
    one-step ``run_sgd`` calls on its stream that stop at the first outside
    state: the reference of a chain that is not defined outside the domain."""
    out = []
    for gen in streams.path_streams(cfg.seed, label, range(n_paths)):
        x, exit_k = cfg.x0, None
        for k in range(1, max_steps + 1):
            x = run_sgd(dataclasses.replace(cfg, x0=x, steps=1), rng=gen).states[-1]
            if not domain.contains(x):
                exit_k = k
                break
        out.append((exit_k, x))
    return out


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_state_dependent_noise_exits_where_the_covariance_ends(block, monkeypatch):
    """The covariance 0.36 - x^2 is PSD only on the domain [-0.6, 0.6]: a
    path must take no noise from it once it has left."""
    oracle = AdditiveGaussianOracle(
        DOUBLE_WELL, lambda x: (0.36 - x[..., :1] * x[..., :1])[..., None]
    )
    cfg = SgdConfig(eta=0.05, steps=1, x0=np.array([-0.1]), oracle=oracle, seed=5)
    domain = Domain.interval(-0.6, 0.6)
    monkeypatch.setattr(streams, "BLOCK_STEPS", block)
    records = hitting_time_mc(cfg, domain, CHAIN_PATHS, 3.0, experiment="psd")
    expected = _run_sgd_exits(cfg, domain, "psd", CHAIN_PATHS, 60)
    for rec, (k, x) in zip(records, expected):
        assert rec.censored == (k is None)
        assert rec.exit_steps == (60 if k is None else k)
        np.testing.assert_array_equal(rec.exit_point, x)
    assert 0 < sum(r.censored for r in records) < CHAIN_PATHS


def test_state_dependent_noise_exit_raises_on_a_blow_up():
    """A path that overflows on leaving raises NumericalError at that step,
    as ``run_sgd`` does, even where its covariance is not PSD at the
    infinite state the rest of the block would step from."""

    def covariance(x):
        return np.where(np.abs(x[..., :1]) <= 1e300, 0.0, -1.0)[..., None]

    oracle = AdditiveGaussianOracle(DOUBLE_WELL, covariance)
    cfg = SgdConfig(eta=10.0, steps=20, x0=np.array([1.5]), oracle=oracle)
    with np.errstate(over="ignore"), pytest.raises(NumericalError) as expected:
        run_sgd(cfg)
    with pytest.raises(NumericalError) as info:
        hitting_time_mc(cfg, Domain.interval(-1e300, 1e300), 3, 200.0)
    assert info.value.step == expected.value.step == 6


def _counting(g, rows):
    def gradient(x):
        rows.append(len(x))
        return g(x)

    return gradient


@pytest.mark.parametrize("mode", [WITHOUT_REPLACEMENT, WITH_REPLACEMENT])
def test_minibatch_steps_evaluate_only_the_drawn_components(mode):
    """With M far above paths * m, a step evaluates each drawn component on
    the rows that drew it, one row per batch slot, never all M."""
    fs = gaussian_cloud(np.random.default_rng(3).normal(size=(500, 2)))
    rows = []
    counted = FiniteSumSpec(
        fs.base, tuple(_counting(g, rows) for g in fs.component_gradients), fs.M
    )
    cfg = SgdConfig(eta=0.1, steps=6, x0=np.zeros(2), oracle=MinibatchOracle(fs, 3, mode), seed=2)
    expected = np.array([states[-1] for states in _run_sgd_paths(cfg, "sparse", 8)])
    rows.clear()
    counted_cfg = dataclasses.replace(cfg, oracle=MinibatchOracle(counted, 3, mode))
    got = run_sgd_ensemble(counted_cfg, 8, experiment="sparse").endpoints
    np.testing.assert_array_equal(got, expected)
    assert sum(rows) == 6 * 8 * 3 and len(rows) <= 6 * 8 * 3


SHAPES = {
    "unit": 1.0,
    "unit-diagonal": np.eye(2),
    "scalar": 0.7,
    "diagonal": np.diag([0.7, -1.3]),
    "zero-on-diagonal": np.diag([0.7, 0.0]),
    "non-diagonal": NON_DIAGONAL,
}


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_constant_noise_shapes_keep_the_per_path_bits(shape, block, monkeypatch):
    """A scalar or a nonzero diagonal is multiplied into each block at once,
    and unit noise not at all; the noise must keep the bits of the per-path
    product xi @ s.T, signed zeros included, which a zero on the diagonal
    would flip."""
    s = SHAPES[shape]
    n_steps = 9
    expected = []
    for gen in streams.path_streams(1, "shape", range(5)):
        xi = gen.standard_normal((n_steps, 2))
        expected.append(s * xi if np.ndim(s) == 0 else xi @ np.asarray(s).T)
    expected = np.stack(expected, axis=1)
    scale = lambda k0, k1: np.linspace(0.5, 1.5, n_steps)[k0:k1]  # noqa: E731
    seen = []

    def step(x, noise, k):
        seen.append(noise.copy())
        return x

    kernel = streams.gaussian_kernel(step, 2, s, scale)
    monkeypatch.setattr(streams, "BLOCK_STEPS", block)
    streams.lockstep(kernel, np.zeros(2), 1, "shape", range(5), n_steps)
    expected *= np.linspace(0.5, 1.5, n_steps)[:, None, None]
    assert np.stack(seen).tobytes() == expected.tobytes()
    assert np.signbit(expected).sum() > 0


@pytest.mark.parametrize("shape", ["diagonal", "zero-on-diagonal"])
def test_diagonal_diffusions_match_reference_loops(shape):
    s = SHAPES[shape]
    cfg = _sde(WELL_2D, [0.4, -0.2], diffusion=s)
    expected = _reference_em_endpoints(cfg, N_PATHS, experiment="diag")
    assert em_endpoints(cfg, N_PATHS, experiment="diag").tobytes() == expected.tobytes()
    chain = _chain(s @ s.T)
    expected, _ = _reference_sgd_ensemble(chain, N_PATHS, experiment="diag")
    got = run_sgd_ensemble(chain, N_PATHS, experiment="diag").endpoints
    assert got.tobytes() == expected.tobytes()
