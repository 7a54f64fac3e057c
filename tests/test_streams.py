"""The stream contract: which generator a (seed, label, path index) gets.

Every number the laboratory produces rests on this derivation, so it is
pinned three ways: the first draws of a few streams, recorded once; the
equality of each path's generator state with that of
``PCG64(SeedSequence(seed, spawn_key=label words + (index,)))``, which is
the derivation's definition; and numpy's generator behaviours (pickling,
deep copies, ``spawn``) on a path stream.  The last tests check that the
garbage collector is paused while streams are built and then left as it was.
"""

import copy
import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import streams
from sgdlab.streams import _label_words, path_streams

# (base_seed, label, path index) -> three standard normals, then one integer
# in [0, 2**63), drawn in that order.
PINNED_DRAWS = {
    (0, "weak-mc", 0): (
        [0.6959149037581489, 0.1272751253840955, -1.2883575885649148],
        6134432471919146180,
    ),
    (7, "exit:sde", 3): (
        [0.9233693241732525, -0.7778656092571107, -0.06519653119746817],
        960807722423672575,
    ),
    (2**31 - 2, "anneal:cooling", 2**32 - 1): (
        [-1.1560735405885545, -0.161104336361488, -0.4247515851512977],
        6572143511467347679,
    ),
    (2**40 + 3, "", 2**32): (
        [-0.9151950995413719, 0.21425262641982695, 1.055174203170359],
        5299554442668312791,
    ),
    (12345, "über-ß", 2**64): (
        [-2.5143224512731934, 0.9817042236188691, 1.1152641202102171],
        1127456923802774908,
    ),
}

EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]


def _reference(base_seed, label, index):
    seq = np.random.SeedSequence(base_seed, spawn_key=_label_words(label) + (index,))
    return np.random.Generator(np.random.PCG64(seq))


def _assert_same_stream(gen, ref):
    assert gen.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(gen.standard_normal(5), ref.standard_normal(5))


@pytest.mark.parametrize("key", sorted(PINNED_DRAWS, key=repr), ids=repr)
def test_first_draws_are_pinned(key):
    normals, integer = PINNED_DRAWS[key]
    for gen in (_reference(*key), path_streams(key[0], key[1], [key[2]])[0]):
        assert gen.standard_normal(3).tolist() == normals
        assert int(gen.integers(0, 2**63)) == integer


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-5, -5)])
def test_negative_seed_or_index_is_rejected(seed, index):
    with pytest.raises(ValueError, match="non-negative"):
        path_streams(seed, "label", [index])
    with pytest.raises(ValueError, match="non-negative"):
        path_streams(seed, "label", [3, index, 4])


@pytest.mark.parametrize(
    "indices",
    [
        [5, 1, 9, 1, 0],
        range(3, 8),
        np.arange(4),
        [np.int64(7), np.uint32(2), np.uint64(2**33)],
        np.array([2**32, 3, 2**32 - 1], dtype=np.uint64),
        [2**64, 0, 2**32, 1],
    ],
    ids=["unsorted-duplicates", "range", "arange", "numpy-ints", "uint64-array", "mixed-widths"],
)
def test_streams_come_back_in_the_given_order(indices):
    gens = path_streams(11, "order", indices)
    assert len(gens) == len(indices)
    for gen, i in zip(gens, indices):
        _assert_same_stream(gen, _reference(11, "order", int(i)))


def test_no_indices_give_no_streams():
    assert path_streams(3, "empty", []) == []
    assert path_streams(3, "empty", range(0)) == []


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 2, 2**32, 2**40 + 3, 2**64, 2**130 + 5])
def test_edge_indices_match_seed_sequence(seed):
    for gen, i in zip(path_streams(seed, "edges", EDGE_INDICES), EDGE_INDICES):
        _assert_same_stream(gen, _reference(seed, "edges", i))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**70 - 1),
    label=st.text(max_size=12),
    indices=st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=12),
)
def test_every_stream_matches_seed_sequence(seed, label, indices):
    gens = path_streams(seed, label, indices)
    assert len(gens) == len(indices)
    for gen, i in zip(gens, indices):
        assert gen.bit_generator.state == _reference(seed, label, i).bit_generator.state


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
def test_round_trip_continues_the_draws(round_trip):
    gen = path_streams(5, "pickle", [2**32 + 9])[0]
    gen.standard_normal(7)
    twin = round_trip(gen)
    np.testing.assert_array_equal(twin.standard_normal(9), gen.standard_normal(9))


def test_spawned_children_match_seed_sequence():
    gen = path_streams(21, "spawn", [4, 2**35])[1]
    ref = _reference(21, "spawn", 2**35)
    for _ in range(2):  # a second spawn gives fresh children, as numpy's does
        for child, ref_child in zip(gen.spawn(2), ref.spawn(2)):
            _assert_same_stream(child, ref_child)


# ---------------------------------------------------------------------------
# The garbage collector is paused while streams are built.
# ---------------------------------------------------------------------------


@pytest.fixture
def gc_state():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_after_a_return(enabled, gc_state, monkeypatch):
    seen = []
    path_seed = streams._PathSeed

    def recording(*args):
        seen.append(gc.isenabled())
        return path_seed(*args)

    monkeypatch.setattr(streams, "_PathSeed", recording)
    (gc.enable if enabled else gc.disable)()
    assert len(path_streams(3, "gc", range(5))) == 5
    assert seen == [False] * 5
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_after_a_raise(enabled, gc_state, monkeypatch):
    def failing(*args):
        raise RuntimeError("no stream")

    monkeypatch.setattr(streams, "_PathSeed", failing)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="no stream"):
        path_streams(3, "gc", range(5))
    assert gc.isenabled() is enabled
