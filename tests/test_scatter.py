"""Chunk invariance at the experiment layer.

Every ensemble experiment takes a ``scatter(fn, n, *args)`` hook that runs
a chunk function over contiguous chunks of ``range(n)``.  A fake scatter
cuts ``range(n)`` at hypothesis-chosen points and runs the chunks in this
process, so no worker process starts; however the paths are cut, every
experiment must return exactly what its default, one-chunk scatter returns.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    Domain,
    anneal_experiment,
    builtin,
    deviation_empirical,
    flow_sup_gap,
    minimizer_scaling_fit,
    saddle_scaling_fit,
    weak_error_mc,
)

WELL = builtin("quadratic_well")
DOUBLE_WELL = builtin("double_well_1d")
TILTED = builtin("asym_double_well_1d", params=(-0.05,))
UNIT = Domain.interval(-1.0, 1.0)

# name -> (n_paths, run(**scatter_kw)), each at a tiny size.
CASES = {
    "minimizer_scaling_fit": (
        12,
        lambda **kw: minimizer_scaling_fit(
            WELL, 1.0, UNIT, (1.0, 0.5), source="mc", n_paths=12, seed=3, dt=0.01,
            horizon=200.0, keep_records=True, **kw,
        ),
    ),
    "saddle_scaling_fit": (
        12,
        lambda **kw: saddle_scaling_fit(
            builtin("inverted_quadratic"), 1.0, UNIT, np.zeros(1), (0.01,), source="mc",
            n_paths=12, seed=4, dt=0.01, horizon=100.0, keep_records=True, **kw,
        ),
    ),
    "weak_error_mc": (
        12,
        lambda **kw: weak_error_mc(
            DOUBLE_WELL, AdditiveGaussianOracle.isotropic(DOUBLE_WELL, 0.1), 0.4,
            np.array([1.5]), (0.2, 0.1, 0.05), n_paths=12, seed=5, **kw,
        ),
    ),
    "deviation_empirical": (
        12,
        lambda **kw: deviation_empirical(
            WELL, AdditiveGaussianOracle.isotropic(WELL, 1.0), 0.05, 0.5, 1.0, 12, seed=6,
            **kw,
        ),
    ),
    "flow_sup_gap": (
        12,
        lambda **kw: flow_sup_gap(
            DOUBLE_WELL, AdditiveGaussianOracle.isotropic(DOUBLE_WELL, 0.3), 0.1, 1.0, 1.5, 12,
            seed=7, **kw,
        ),
    ),
    "anneal_experiment": (
        12,
        lambda **kw: [
            anneal_experiment(
                TILTED, 0.4, 5.0, 12, 0.25, mode=mode, seed=8, dt=0.05, n_checkpoints=7, **kw
            )
            for mode in ("cooling", "constant")
        ],
    ),
    # The command line's anneal run whose occupancy fractions once depended
    # on the worker count.
    "anneal_experiment:45_paths": (
        45,
        lambda **kw: [
            anneal_experiment(
                TILTED, 3.0, 20.0, 45, 0.5, mode=mode, seed=1, n_checkpoints=1000, **kw
            )
            for mode in ("cooling", "constant")
        ],
    ),
}


@functools.cache
def _default(case):
    return CASES[case][1]()


def _assert_identical(a, b):
    """a and b hold the same values, bit for bit, down to every array."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b or (a != a and b != b), (a, b)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=16, deadline=None)
@given(data=st.data())
def test_chunking_never_changes_an_experiment(case, data):
    n_paths, run = CASES[case]
    cuts = sorted(data.draw(st.sets(st.integers(1, n_paths - 1), min_size=1, max_size=4)))
    chunk_counts = []

    def scatter(fn, n, *args):
        assert n == n_paths
        bounds = [0, *cuts, n]
        chunk_counts.append(len(bounds) - 1)
        return [fn(*args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    _assert_identical(run(scatter=scatter), _default(case))
    assert chunk_counts and all(c == len(cuts) + 1 for c in chunk_counts)
