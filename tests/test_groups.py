"""Domain-free ensembles stepped in groups of paths.

``streams.lockstep`` runs the paths of an ensemble without a domain or an
observer one group at a time, each on its own ``path_streams`` call.  The
groups must move no bit: its final states equal those of one group over the
streams of every path, whatever the group budget, the block, the path count
and the step count.  A run with an observer or a mini-batch draw is one
group, as before; and the traced memory of a grouped run stays within one
group's budget and its output, whatever the path count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    MinibatchOracle,
    SdeConfig,
    SgdConfig,
    builtin,
    em_endpoints,
    gaussian_cloud,
    run_sgd_ensemble,
    streams,
)
from sgdlab.sde import sde_kernel
from sgdlab.sgd import chain_kernel

DOUBLE_WELL = builtin("double_well_1d")
WELL_2D = builtin("quadratic_well", (1.0, 2.0))
NON_DIAGONAL = np.array([[0.6, 0.25], [-0.1, 0.4]])


def _covariance(x):
    a, b = x[..., 0], x[..., 1]
    top = np.stack([1.5 + 5 * a * a, 0.5 * b], axis=-1)
    return np.stack([top, np.stack([0.5 * b, 1.0 + 5 * b * b], axis=-1)], axis=-2)


def _sde(potential, x0, **kwargs):
    cfg = SdeConfig(potential, 0.3, 0.01, 1.0, np.array(x0), **kwargs)
    return sde_kernel(cfg), cfg.x0


def _chain():
    oracle = AdditiveGaussianOracle(WELL_2D, _covariance)
    cfg = SgdConfig(eta=0.05, steps=1, x0=np.array([0.2, 0.1]), oracle=oracle)
    return chain_kernel(cfg, cfg.steps), cfg.x0


# Every kind of kernel that runs in groups, as (kernel, x0).
GROUPED = {
    "double-well-euler": _sde(DOUBLE_WELL, [0.8]),
    "diagonal-quadratic-euler": _sde(WELL_2D, [0.5, -0.4]),
    "constant-matrix-diffusion": _sde(WELL_2D, [0.5, -0.4], diffusion=NON_DIAGONAL),
    "state-dependent-chain": _chain(),
}


def test_the_grouped_cases_cover_every_grouped_kernel():
    kernels = {case: kernel for case, (kernel, _) in GROUPED.items()}
    assert kernels["double-well-euler"].block_step is not None
    assert not kernels["double-well-euler"].block_step_releases_gil
    assert kernels["diagonal-quadratic-euler"].block_step_releases_gil
    assert kernels["state-dependent-chain"].block_step is None


class CountingStreams:
    """``path_streams``, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.path_streams(*args)

    path_streams = staticmethod(streams.path_streams)


def _run(kernel, x0, case, indices, n_steps, block, budget):
    """``lockstep``'s output under the group budget ``budget`` and blocks of
    ``block`` steps, and its ``path_streams`` call count."""
    counting = CountingStreams()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "GROUP_BYTES", budget)
        mp.setattr(streams, "path_streams", counting)
        mp.setattr(streams, "BLOCK_STEPS", block)
        out = streams.lockstep(kernel, x0, 3, case, indices, n_steps)
    return out, counting.calls


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(GROUPED)),
    budget=st.sampled_from([0, 2**13, 2**15, streams.GROUP_BYTES]),
    block=st.sampled_from([1, 7, 1024]),
    lo=st.sampled_from([0, 7, 2**32 - 3]),
    n=st.integers(0, 40),
    n_steps=st.integers(0, 60),
)
def test_groups_move_no_bit(case, budget, block, lo, n, n_steps):
    kernel, x0 = GROUPED[case]
    indices = range(lo, lo + n)
    # One group: no run here needs more than 2**62 bytes.
    expected, calls = _run(kernel, x0, case, indices, n_steps, block, 2**62)
    assert calls == 1
    out, calls = _run(kernel, x0, case, indices, n_steps, block, budget)
    for a, b in zip(out, expected):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if budget == 0:
        assert calls == max(n, 1)  # one path per group
    if budget == streams.GROUP_BYTES:
        assert calls == 1


def _today(cfg, experiment, indices, reference=None):
    """``run_sgd_ensemble`` as one ``lockstep`` over every path's stream."""
    gaps = track = None
    if reference is not None:
        gaps = np.zeros(len(indices))

        def track(k0, states):
            for j, x in enumerate(states):
                np.maximum(gaps, np.linalg.norm(x - reference[k0 + j + 1], axis=1), out=gaps)

    kernel = chain_kernel(cfg, cfg.steps)
    ends = streams.lockstep(
        kernel, cfg.x0, cfg.seed, experiment, indices, cfg.steps, on_block=track
    )[2]
    return ends, gaps


def _minibatch_cfg():
    centers = np.random.default_rng(2).normal(size=(12, 1))
    oracle = MinibatchOracle(gaussian_cloud(centers), m=3)
    return SgdConfig(eta=0.05, steps=30, x0=np.array([1.0]), oracle=oracle, seed=11)


def _tracked_cfg():
    oracle = AdditiveGaussianOracle.isotropic(DOUBLE_WELL, 0.3)
    return SgdConfig(eta=0.05, steps=30, x0=np.array([1.2]), oracle=oracle, seed=12)


@pytest.mark.parametrize("budget", [0, streams.GROUP_BYTES])
@pytest.mark.parametrize("kind", ["minibatch", "reference-states"])
def test_minibatch_and_tracked_ensembles_are_one_group(kind, budget, monkeypatch):
    cfg = _minibatch_cfg() if kind == "minibatch" else _tracked_cfg()
    reference = None if kind == "minibatch" else np.linspace(1.2, 1.0, cfg.steps + 1)[:, None]
    indices = range(5, 45)
    expected, expected_gaps = _today(cfg, kind, indices, reference)
    counting = CountingStreams()
    monkeypatch.setattr(streams, "GROUP_BYTES", budget)
    monkeypatch.setattr(streams, "path_streams", counting)
    result = run_sgd_ensemble(cfg, indices, kind, reference)
    assert counting.calls == 1
    assert result.endpoints.tobytes() == expected.tobytes()
    if reference is None:
        assert result.sup_gaps is None
    else:
        assert result.sup_gaps.tobytes() == expected_gaps.tobytes()


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ensemble", ["em_endpoints", "run_sgd_ensemble"])
def test_a_grouped_ensemble_holds_one_group_at_a_time(ensemble):
    # 40,000 paths in one group held about 33 MB of streams and, for 400
    # Euler steps, a 64 MiB noise block.  In groups, a run holds its output,
    # one group's streams and block within GROUP_BYTES, and the fill's tile
    # of at most SCAN_BYTES on each of two threads.
    n = 40_000
    if ensemble == "em_endpoints":
        cfg = SdeConfig(DOUBLE_WELL, 0.3, 0.0025, 1.0, np.array([0.8]), seed=4)
        peak, out = _traced_peak(lambda: em_endpoints(cfg, n))
    else:
        cfg = _tracked_cfg()
        cfg = SgdConfig(eta=0.025, steps=40, x0=cfg.x0, oracle=cfg.oracle, seed=4)
        peak, out = _traced_peak(lambda: run_sgd_ensemble(cfg, n).endpoints)
    assert out.shape == (n, 1)
    bound = out.nbytes + streams.GROUP_BYTES + 4 * streams.SCAN_BYTES
    assert peak <= bound, f"traced peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"
