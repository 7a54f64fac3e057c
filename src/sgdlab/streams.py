"""Deterministic random-stream derivation for reproducible parallel Monte Carlo.

Every simulated path owns a private generator derived from the triple
``(base_seed, experiment label, path index)``: path ``i`` gets
``PCG64(SeedSequence(base_seed, spawn_key=label words + (i,)))``.  Path
results are therefore a pure function of the configuration: how paths are
batched across workers can never change the numbers, and re-running with a
different worker count reproduces output files byte for byte.

``path_streams`` derives all paths of a call in one vectorised pass rather
than one ``SeedSequence`` per path, with the same result.  ``SeedSequence``
hashes its entropy words (the seed words zero-padded to the pool size 4,
then the two label words, then the index words) into a pool of four 32-bit
words, under hash constants that advance once per hash whatever the
values.  Every path of a call shares the entropy up to its index, so that
prefix is mixed once, by a ``SeedSequence`` of the prefix alone.  Each
path's index words are then mixed into a copy of that pool for all paths
at once, in ``uint64`` arrays masked to 32 bits (an index of k 32-bit
words takes k mixing rounds), and each pool is expanded to the four
``uint64`` words that seed ``PCG64``.  The generators are built on
``_PathSeed``, a numpy ``ISpawnableSeedSequence`` that hands ``PCG64`` its
precomputed words, because a ``SeedSequence`` per path, with ``PCG64``
running ``generate_state`` on it, cost about 30 us per path against about
4 us for the whole vectorised derivation (numpy 2.4, one x86-64 core).  A
path's ``SeedSequence`` is built only when a caller spawns from its stream.

``lockstep`` is the one engine that steps an ensemble: the diffusion, the
SGD chain, first exits and annealing all run through it.

Every ensemble experiment takes a ``scatter(fn, n, *args) -> list``: it
runs the module-level chunk function ``fn(*args, lo, hi)`` over contiguous
chunks ``[lo, hi)`` that cover ``range(n)`` and returns the chunk results
in index order.  The default, ``in_process``, runs one chunk in this
process; the command line's ``Pool._scatter`` spreads chunks over worker
processes.  Since paths own their streams, the cut never changes a result.
"""

from __future__ import annotations

import gc
import hashlib
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import NumericalError

# The largest noise block ``lockstep`` holds, in bytes.  Results do not
# depend on the block length; 64 MiB keeps blocks of 1024 steps for up to
# 8192 one-dimensional paths, while a smaller cap measurably cost wall time.
NOISE_BLOCK_BYTES = 64 * 2**20

# The steps of a noise block that one ``domain.contains`` call scans for
# first exits.  Exits do not depend on it; it bounds the scan's temporaries,
# which for a whole block can be as large as the noise block itself.
SCAN_SLAB = 64

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _label_words(label: str) -> tuple[int, int]:
    """Two stable 32-bit words derived from an experiment label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def _n_words(n: int) -> int:
    """How many 32-bit words SeedSequence splits the integer ``n`` into."""
    return max(1, -(-n.bit_length() // 32))


# _hash and _mix run on uint64 arrays that hold 32-bit words: each product
# of two words fits in 64 bits, and masking to 32 bits after a wrapped
# subtraction gives the word that SeedSequence's 32-bit arithmetic gives.


def _hash(value, before, after):
    """SeedSequence's hashmix of ``value`` with the hash constants before and
    after it advances."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _constants(init: int, mult: int, start: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (before, after) constants of hashes start .. start + k - 1 of a
    run that begins at ``init``, as two (k, 1) columns.  The constant
    advances once per hash whatever the hashed value."""
    run = [init * pow(mult, start + t, 2**32) & _MASK32 for t in range(k + 1)]
    column = np.array(run, dtype=np.uint64)[:, None]
    return column[:-1], column[1:]


# The constants of generate_state's eight hashes, the same for every path.
_STATE_CONSTANTS = _constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


def _pcg64_seeds(base_seed: int, label: tuple[int, int], indices: list[int]) -> np.ndarray:
    """Row i: ``SeedSequence(base_seed, spawn_key=label + (indices[i],))
    .generate_state(4, np.uint64)``, for all indices at once."""
    # The shared prefix: seed words padded to the pool size, then the label.
    # Mixing it took four hashes per word (four into the pool, twelve
    # cross-mixes, four per further word), so the index words' hashes start
    # at hash 4 * len(prefix).
    prefix = np.random.SeedSequence(base_seed, spawn_key=label)
    first_hash = _POOL_SIZE * (max(_POOL_SIZE, _n_words(base_seed)) + len(label))
    n_words = _n_words(max(indices))
    words = np.empty((len(indices), n_words), dtype=np.uint64)
    for j in range(n_words):
        words[:, j] = [i >> 32 * j & _MASK32 for i in indices]
    pool = prefix.pool.astype(np.uint64)[:, None].repeat(len(indices), axis=1)
    for j in range(n_words):
        # Only indices longer than j words take round j; zero words above an
        # index's top word are not part of its entropy.
        rows = slice(None) if j == 0 else words[:, j:].any(axis=1)
        consts = _constants(_INIT_A, _MULT_A, first_hash + _POOL_SIZE * j, _POOL_SIZE)
        pool[:, rows] = _mix(pool[:, rows], _hash(words[rows, j], *consts))
    # generate_state(4, np.uint64): eight 32-bit words cycling over the
    # pool, paired little-endian into four uint64.
    out = _hash(np.concatenate([pool, pool]), *_STATE_CONSTANTS)
    seeds = np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)
    seeds.flags.writeable = False
    return seeds


class _PathSeed(ISpawnableSeedSequence):
    """The seed sequence of one path, with its PCG64 seed words precomputed.

    ``PCG64`` asks only for ``generate_state(4, np.uint64)``, which returns
    those words (a read-only row).  Any other request, and ``spawn``, goes
    to the equal ``SeedSequence``, built on first use, so spawned children
    and their draws are numpy's.
    """

    _seq = None

    def __init__(self, pcg64_seed: np.ndarray, base_seed: int, label: tuple[int, int], index: int):
        # No tuple per path: a path's spawn key is built only on first use.
        self._pcg64_seed = pcg64_seed
        self._base_seed = base_seed
        self._label = label
        self._index = index

    def _sequence(self) -> np.random.SeedSequence:
        if self._seq is None:
            key = self._label + (self._index,)
            self._seq = np.random.SeedSequence(self._base_seed, spawn_key=key)
        return self._seq

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._pcg64_seed
        return self._sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._sequence().spawn(n_children)


def _non_negative(value, name: str) -> int:
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def seed_policy(base_seed: int, experiment: str, path_index: int) -> np.random.Generator:
    """Return the private generator for one path of one experiment.

    The stream depends only on the three arguments, never on scheduling,
    chunking, or worker count.  Distinct path indices (and distinct labels)
    yield statistically independent streams.
    """
    return path_streams(base_seed, experiment, [path_index])[0]


def path_streams(base_seed: int, experiment: str, indices) -> list[np.random.Generator]:
    """Generators for a collection of path indices, in the given order."""
    base_seed = _non_negative(base_seed, "base_seed")
    indices = [int(i) for i in indices]
    if not indices:
        return []
    _non_negative(min(indices), "path_index")
    label = _label_words(experiment)
    seeds = _pcg64_seeds(base_seed, label, indices)
    # Each path leaves four objects the cyclic garbage collector tracks, and
    # the collections their allocation triggers scan all of them: building
    # 40,000 streams took 6-8 us a path with the collector on and 3.5-4.5 us
    # with it off (numpy 2.4, one x86-64 core).
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [
            np.random.Generator(np.random.PCG64(_PathSeed(row, base_seed, label, i)))
            for row, i in zip(seeds, indices)
        ]
    finally:
        if enabled:
            gc.enable()


def in_process(fn: Callable, n: int, *args) -> list:
    """The default ``scatter``: all of ``range(n)`` as one chunk, here."""
    return [fn(*args, 0, n)]


def rows_times_transpose(s) -> Callable[[np.ndarray], np.ndarray]:
    """xi -> xi @ s.T through the same BLAS kernel for any number of rows.

    numpy hands a one-row product to gemv, whose last bits differ from those
    of the gemm that serves two rows or more, so a one-row block is padded
    to two rows: a path's noise must not depend on the block size.
    """
    s_t = np.asarray(s, dtype=float).T

    def shape(xi: np.ndarray) -> np.ndarray:
        if len(xi) > 1:
            return xi @ s_t
        return (np.concatenate([xi, xi]) @ s_t)[:1]

    return shape


def lockstep(
    step_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
    x0: np.ndarray,
    gens: list[np.random.Generator],
    n_steps: int,
    block: int = 1024,
    shape_noise: Callable[[np.ndarray], np.ndarray] | None = None,
    step_scale: Callable[[int], float] | None = None,
    domain=None,
    on_step: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step one path per generator in lockstep for up to ``n_steps`` steps.

    ``step_fn(x, noise, k)`` advances the states ``x`` (one row per path)
    by step k = 0, 1, ...; ``on_step(k, x)``, if given, then sees the states
    after k steps.  With a ``domain`` (anything with a vectorized
    ``contains``), a path retires on the first step that leaves it; without
    one every path runs all ``n_steps``.  ``on_step`` and ``domain`` do not
    combine.  Returns ``(exit_step, exit_points, states)``: the 1-based exit
    step of each path (-1 if it never left), its first outside state, and
    the final state of every path still inside.

    Noise is drawn per path from its private stream in blocks of at most
    ``block`` steps, and fewer where a block of the alive paths would pass
    ``NOISE_BLOCK_BYTES``, so the result is independent of how paths are
    grouped into chunks and of the block size.  A block is time-major:
    ``buf[j, c]`` is step j of the path in column c, so the noise of one
    step is the view ``buf[j]``.  Each path's draws pass through
    ``shape_noise`` as they are drawn; then, once per block and in place,
    step k is multiplied by ``step_scale(k)``.

    Block-scan contract, with a ``domain``: every path alive at the start of
    a block is stepped through the whole block, each step's states
    overwriting the noise row they used, and then ``domain.contains`` scans
    the block for first exits ``SCAN_SLAB`` steps at a time.  So ``step_fn``
    may be evaluated on a path after its exit, until the end of the block;
    those states are discarded, and overflow in them is ignored.  Exits are
    recorded, and the alive states and path ids compacted, once per block.
    A non-finite exit point raises ``NumericalError`` at its exact step, the
    earliest such step of the block; the states still alive are checked
    once per block, so a non-finite alive state is reported at the end of
    its block.
    """
    if domain is not None and on_step is not None:
        raise ValueError("lockstep takes on_step or domain, not both")
    n = len(gens)
    d = x0.size
    states = np.tile(x0, (n, 1))
    exit_step = np.full(n, -1, dtype=np.int64)
    exit_points = np.zeros((n, d))
    x = states.copy()
    ids = np.arange(n)
    step0 = 0
    # Overflow to inf/nan is caught by the explicit guards below; the
    # intermediate warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while ids.size and step0 < n_steps:
            kblock = min(
                block, n_steps - step0, max(1, NOISE_BLOCK_BYTES // (8 * d * ids.size))
            )
            buf = np.empty((kblock, ids.size, d))
            for pos, i in enumerate(ids):
                xi = gens[i].standard_normal((kblock, d))
                buf[:, pos] = xi if shape_noise is None else shape_noise(xi)
            if step_scale is not None:
                scales = [step_scale(k) for k in range(step0, step0 + kblock)]
                buf *= np.array(scales)[:, None, None]
            for j in range(kblock):
                x = step_fn(x, buf[j], step0 + j)
                if domain is not None:
                    buf[j] = x
                elif on_step is not None:
                    on_step(step0 + j + 1, x)
            if domain is not None:
                # Block step of each path's first outside state, -1 if none.
                first = np.full(ids.size, -1, dtype=np.int64)
                for j0 in range(0, kblock, SCAN_SLAB):
                    outside = ~domain.contains(buf[j0 : j0 + SCAN_SLAB])
                    new = outside.any(axis=0) & (first < 0)
                    first[new] = j0 + outside[:, new].argmax(axis=0)
                left = first >= 0
                if left.any():
                    rows = first[left]
                    points = buf[rows, np.flatnonzero(left)]
                    bad = ~np.isfinite(points).all(axis=1)
                    if bad.any():
                        k = step0 + int(rows[bad].min()) + 1
                        raise NumericalError(f"non-finite state at step {k}", step=k)
                    exit_step[ids[left]] = step0 + rows + 1
                    exit_points[ids[left]] = points
                    x = x[~left]
                    ids = ids[~left]
            step0 += kblock
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite state by step {step0}", step=step0)
    states[ids] = x
    return exit_step, exit_points, states
