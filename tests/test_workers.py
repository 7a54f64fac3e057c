"""Worker-count invariance over real process pools.

The command line spreads every ensemble over ``cli.Pool`` workers, which
fork from the calling process.  Each chunk function, run through a real
pool of 1, 2 or 3 workers with a small group budget patched in before the
pool forks, must return exactly what one worker with the default budget
returns: the chunk cuts and the group cuts then fall at different paths,
and neither may move a bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import AdditiveGaussianOracle, Domain, SdeConfig, SgdConfig, builtin, streams
from sgdlab.cli import Pool
from sgdlab.exit_times import anneal_chunk, hitting_time_chunk
from sgdlab.sde import em_endpoints_chunk
from sgdlab.sgd import sgd_ensemble_chunk
from test_scatter import _assert_identical

DOUBLE_WELL = builtin("double_well_1d")
TILTED = builtin("asym_double_well_1d", params=(-0.05,))
SHALLOW = max(TILTED.minimizers(), key=lambda cp: float(TILTED.value(cp.location))).location
RUNGS = tuple(
    (SdeConfig(builtin("quadratic_well"), eta, 0.01, 20.0, np.zeros(1), seed=5), f"exit:{eta}")
    for eta in (1.0, 0.5)
)


def _join_records(parts):
    """One record list per rung from the chunks' record lists."""
    return [sum((part[r] for part in parts), []) for r in range(len(RUNGS))]


def _join_anneal(parts):
    return sum(k for k, _ in parts), sum(counts for _, counts in parts)


def _join_ensembles(parts):
    return np.concatenate([part.endpoints for part in parts])


# name -> (chunk function, its arguments before (lo, hi), paths per unit of
# n, how to join its chunk results into one).
CHUNKS = {
    "em_endpoints_chunk": (
        em_endpoints_chunk,
        (SdeConfig(DOUBLE_WELL, 0.3, 0.01, 0.5, np.array([0.8]), seed=2), "em"),
        1,
        np.concatenate,
    ),
    "sgd_ensemble_chunk": (
        sgd_ensemble_chunk,
        (
            SgdConfig(
                eta=0.05, steps=30, x0=np.array([1.2]), seed=3,
                oracle=AdditiveGaussianOracle.isotropic(DOUBLE_WELL, 0.3),
            ),
            "sgd",
            None,
        ),
        1,
        _join_ensembles,
    ),
    "hitting_time_chunk": (
        hitting_time_chunk, (RUNGS, Domain.interval(-0.5, 0.5)), len(RUNGS), _join_records
    ),
    "anneal_chunk": (
        anneal_chunk,
        (TILTED, 0.4, 5.0, 0.25, SHALLOW, "cooling", 8, 0.05, np.linspace(1.0, 5.0, 5), 16),
        1,
        _join_anneal,
    ),
}


def _scatter(name, workers, n_paths):
    fn, args, cells, join = CHUNKS[name]
    with Pool(workers) as pool:
        return join(pool._scatter(fn, n_paths * cells, *args))


@pytest.mark.parametrize("name", sorted(CHUNKS))
@settings(max_examples=6, deadline=None)
@given(
    workers=st.sampled_from([1, 2, 3]),
    n_paths=st.integers(1, 9),
    budget=st.sampled_from([0, 2**12, 2**13]),
)
def test_worker_count_never_changes_a_chunk_function(name, workers, n_paths, budget):
    expected = _scatter(name, 1, n_paths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "GROUP_BYTES", budget)
        got = _scatter(name, workers, n_paths)
    _assert_identical(got, expected)

