"""Tests for the annealed-noise basin-hopping experiment."""

import numpy as np
import pytest

from sgdlab import anneal_experiment, builtin, streams

TILTED = builtin("asym_double_well_1d", params=(-0.05,))


def test_zero_noise_never_crosses():
    res = anneal_experiment(
        TILTED, gamma=0.0, T=50.0, n_paths=64, epsilon=0.25, mode="cooling",
        seed=5, experiment="anneal",
    )
    assert res.successes == 0
    assert res.success_prob == 0.0


def test_cooling_schedule_beats_frozen_noise_level():
    """A slowly decaying noise amplitude finds the deep well far more often
    than the same amplitude frozen at its terminal value."""
    kwargs = dict(T=500.0, n_paths=500, epsilon=0.25, seed=2, experiment="anneal")
    cooled = anneal_experiment(TILTED, gamma=0.4, mode="cooling", **kwargs)
    frozen = anneal_experiment(TILTED, gamma=0.4, mode="constant", **kwargs)
    assert cooled.success_prob >= 0.5
    assert frozen.success_prob <= 0.25
    assert cooled.success_prob - frozen.success_prob >= 0.2


def test_result_bookkeeping():
    res = anneal_experiment(
        TILTED, gamma=0.5, T=100.0, n_paths=128, epsilon=0.25, mode="cooling",
        seed=5, experiment="anneal",
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
        experiment="anneal",
    )
    a = anneal_experiment(TILTED, **kwargs)
    b = anneal_experiment(TILTED, **kwargs)
    assert a.success_prob == b.success_prob
    np.testing.assert_array_equal(a.occupancy_fracs, b.occupancy_fracs)


@pytest.mark.parametrize("block", [0, -3])
def test_block_below_one_is_rejected(block, monkeypatch):
    def no_streams(*args, **kwargs):
        raise AssertionError("a stream was built before the arguments were checked")

    monkeypatch.setattr(streams, "path_streams", no_streams)
    with pytest.raises(ValueError, match="block"):
        anneal_experiment(TILTED, gamma=0.4, T=1.0, n_paths=4, epsilon=0.25, block=block)
