"""The fixed-horizon callers of the lockstep engine against the loops it
replaced: Euler-Maruyama endpoints, the additive-Gaussian SGD ensemble and
annealing.  The earlier loops are kept verbatim as ``_reference_*``; the
engine must reproduce them bit for bit, whatever the block size and however
paths are split into chunks.  Each caller must also stop on a blow-up, and
the per-path chain loop must step exits and trajectories alike."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    Domain,
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
from sgdlab.sde import _time_grid, apply_diffusion, em_on_grid
from sgdlab.sgd import additive_gaussian_kernel
from test_exit_times import (
    ENGINE_CASES,
    _assert_same_records,
    _engine_baseline,
    _engine_records,
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
        x = (
            x
            + cfg.drift(x) * h
            + cfg.amplitude(times[k]) * math.sqrt(h) * apply_diffusion(cfg.diffusion, x, noise[:, k])
        )
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
        DOUBLE_WELL, [0.5], diffusion=lambda x: np.array([[1.0 + x[0] * x[0]]])
    ),
}


def _chain(covariance, steps=40):
    oracle = AdditiveGaussianOracle(SADDLE_2D, np.array(covariance))
    return SgdConfig(eta=0.02, steps=steps, x0=np.array([0.4, 0.1]), oracle=oracle, seed=5)


SGD_CASES = {
    "isotropic": _chain([[0.5, 0.0], [0.0, 0.5]]),
    "non-diagonal": _chain([[0.5, 0.2], [0.2, 0.4]]),
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
def test_anneal_matches_reference_loop(mode):
    successes, occupancy = _reference_anneal(TILTED, mode=mode, block=64, **ANNEAL_KW)
    result = anneal_experiment(TILTED, mode=mode, block=64, **ANNEAL_KW)
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
            em_endpoints(cfg, 1, experiment="one-path", path_indices=range(i, i + 1))
            for i in range(N_PATHS)
        ]
    else:
        cfg = SGD_CASES["non-diagonal"]
        full = run_sgd_ensemble(cfg, N_PATHS, experiment="one-path").endpoints
        parts = [
            run_sgd_ensemble(
                cfg, 1, experiment="one-path", path_indices=range(i, i + 1)
            ).endpoints
            for i in range(N_PATHS)
        ]
    np.testing.assert_array_equal(np.concatenate(parts), full)


# ---------------------------------------------------------------------------
# Block size and chunking never change a result.
# ---------------------------------------------------------------------------


def _em_chunk(case, block, lo, hi):
    cfg = SDE_CASES[case]
    gens = streams.path_streams(cfg.seed, f"em:{case}", range(lo, hi))
    return em_on_grid(cfg, _time_grid(cfg.T, cfg.dt), gens, block=block)


def _sgd_chunk(case, block, lo, hi):
    """``run_sgd_ensemble``'s vectorised branch with an explicit block."""
    cfg = SGD_CASES[case]
    ref = _flow_reference(cfg)
    gens = streams.path_streams(cfg.seed, f"sgd:{case}", range(lo, hi))
    gaps = np.zeros(hi - lo)

    def track(k, x):
        np.maximum(gaps, np.linalg.norm(x - ref[k], axis=1), out=gaps)

    step_fn, shape_noise, _ = additive_gaussian_kernel(cfg)
    ends = streams.lockstep(
        step_fn, cfg.x0, gens, cfg.steps, block=block, shape_noise=shape_noise, on_step=track
    )[2]
    return np.column_stack([ends, gaps])


def _anneal_chunk(mode, block, lo, hi):
    """Per-checkpoint counts of paths in the target window, and successes."""
    kw = {k: v for k, v in ANNEAL_KW.items() if k not in ("n_paths", "n_checkpoints")}
    check_times = np.linspace(0.0, kw["T"], ANNEAL_KW["n_checkpoints"] + 1)[1:]
    successes, counts = anneal_chunk(
        TILTED, start=SHALLOW, mode=mode, experiment="anneal", check_times=check_times,
        block=block, lo=lo, hi=hi, **kw,
    )
    return np.append(counts, successes)[None, :]


CHUNKED = {
    **{f"em:{case}": functools.partial(_em_chunk, case) for case in SDE_CASES},
    **{f"sgd:{case}": functools.partial(_sgd_chunk, case) for case in SGD_CASES},
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

    streams.lockstep(step, np.zeros(2), streams.path_streams(0, "cap", range(16)), 12)
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


def test_anneal_raises_on_a_blow_up():
    with pytest.raises(NumericalError) as info:
        anneal_experiment(
            TILTED, gamma=0.0, T=100.0, n_paths=3, epsilon=0.25, start=[1.5], dt=10.0, block=4
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
