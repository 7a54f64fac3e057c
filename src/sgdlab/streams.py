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
in index order.  ``n`` counts paths, except for an exit ladder
(``minimizer_scaling_fit``, ``saddle_scaling_fit``), where it counts the
ladder's path-major (path, rung) cells, so that one scatter runs every rung
and each chunk holds a contiguous range of paths of every rung.  The
default, ``in_process``, runs one chunk in this process; the command
line's ``Pool._scatter`` spreads chunks over worker processes.  Since paths
own their streams, the cut never changes a result.
"""

from __future__ import annotations

import gc
import hashlib
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import NumericalError

# The largest noise block ``lockstep`` holds, in bytes.  Results do not
# depend on the block length; 64 MiB keeps blocks of 1024 steps for up to
# 8192 one-dimensional paths, while a smaller cap measurably cost wall time.
NOISE_BLOCK_BYTES = 64 * 2**20

# The states that one ``domain.contains`` call scans for first exits, and
# that one call of a block stepper steps, in bytes.  Exits do not depend on
# it; it bounds the scan's temporaries, which for a whole block can be as
# large as the noise block itself, while a slab of few paths spans the whole
# block, so that a block costs a few calls and not one per 64 steps.
SCAN_BYTES = 2**20

# The fewest steps of a scan slab, and the first block under a domain of a
# draw that is not d floats per step.
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


def scan_slab(shape: tuple[int, int, int]) -> int:
    """The steps of a (steps, paths, d) block of states that one scan or one
    block-stepper call covers: ``SCAN_BYTES`` of states, but at least
    ``SCAN_SLAB`` steps and at most the whole block."""
    steps, paths, d = shape
    return min(steps, max(SCAN_SLAB, SCAN_BYTES // (8 * d * paths)))


class PathDraw(NamedTuple):
    """A kernel's draws for ``lockstep``: ``width`` values of ``dtype`` per
    path and step.

    ``fill(gens, ids, k0, k1, out)`` takes the draws of steps k0, ...,
    k1 - 1 of path ``ids[c]`` from its generator ``gens[ids[c]]``, in step
    order, and writes them into ``out[:, c]`` of the (k1 - k0, len(ids),
    width) block ``out``.
    """

    fill: Callable[[list, np.ndarray, int, int, np.ndarray], None]
    width: int
    dtype: type


class Kernel(NamedTuple):
    """One step of an ensemble and the noise it takes, for ``lockstep``.

    ``step(x, noise, k)`` advances the states ``x`` (one row per path) by
    step k = 0, 1, ..., where ``noise`` is the block row of step k.  A
    block is filled by ``draw``; then, once per block and in place, it is
    multiplied by ``shape`` unless that is None (a number, or a (d,)
    vector that scales each axis), and steps k0, ..., k1 - 1 by
    ``step_scale(k0, k1)``, one number for the whole block or one value per
    step.  A ``block_step(x, buf)``, if given, replaces the per-step loop:
    it steps the states ``x`` through the whole block ``buf`` in one call,
    writes each step's states over the noise row they used and returns the
    states after the block, and ``step`` is not called.  ``gaussian_kernel``
    builds the kernels that draw d standard normals per step.
    """

    step: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    draw: PathDraw
    shape: float | np.ndarray | None = None
    step_scale: Callable[[int, int], float | np.ndarray] | None = None
    block_step: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def gaussian_kernel(step, d: int, s=1.0, step_scale=None, block_step=None) -> Kernel:
    """The ``Kernel`` of ``step`` on d standard normals xi per step and path,
    shaped by a constant diffusion ``s`` into xi @ s.T.

    A scalar, or the diagonal of a diagonal ``s`` whose diagonal entries are
    all nonzero, becomes the kernel's ``shape``: every element of
    ``xi @ s.T`` then has one nonzero term, which the product gives in the
    same bits.  Unit noise is not shaped, since multiplying by 1.0 changes
    no bit.  Any other matrix (a zero on the diagonal could flip the sign of
    a zero) is applied to each path's draws as they are drawn.
    """
    s_t = None
    if np.ndim(s) == 0:
        shape = float(s)
    else:
        s_t = np.asarray(s, dtype=float).T
        shape = np.diagonal(s_t).copy()
        if np.all(shape != 0.0) and np.count_nonzero(s_t) == shape.size:
            s_t = None
        else:
            shape = None
    if shape is not None and np.all(shape == 1.0):
        shape = None

    def fill(gens, ids, k0, k1, out):
        for c, i in enumerate(ids):
            xi = gens[i].standard_normal((k1 - k0, d))
            if s_t is None:
                out[:, c] = xi
            elif len(xi) > 1:
                out[:, c] = xi @ s_t
            else:
                # numpy hands a one-row product to gemv, whose last bits
                # differ from those of the gemm that serves two rows or
                # more, so a one-row block is padded to two rows: a path's
                # noise must not depend on the block.
                out[:, c] = (np.concatenate([xi, xi]) @ s_t)[:1]

    return Kernel(step, PathDraw(fill, d, float), shape, step_scale, block_step)


def lockstep(
    kernel: Kernel,
    x0: np.ndarray,
    gens: list[np.random.Generator],
    n_steps: int,
    block: int = 1024,
    domain=None,
    on_step: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step one path per generator in lockstep through ``kernel`` (see
    ``Kernel``, whose fields state the draw, shape and scale of each block)
    for up to ``n_steps`` steps.

    ``on_step(k, x)``, if given, sees the states after k steps.  With a
    ``domain`` (anything with a vectorized ``contains``), a path retires on
    the first step that leaves it; without one every path runs all
    ``n_steps``.  ``on_step`` combines with neither ``domain`` nor a
    ``kernel.block_step``.  Returns ``(exit_step, exit_points, states)``:
    the 1-based exit step of each path (-1 if it never left), its first
    outside state, and the final state of every path still inside.

    A block of at most ``block`` steps is filled with one
    ``kernel.draw.fill`` call, from each path's private stream, and holds
    fewer steps where the alive paths' rows would pass
    ``NOISE_BLOCK_BYTES``, so the result is independent of how paths are
    grouped into chunks and of the block size.  A block is time-major:
    ``buf[j, c]`` is step j of the path in column c, so the noise of one
    step is the view ``buf[j]``.

    Block-scan contract, with a ``domain``: every path alive at the start of
    a block is stepped through the whole block, each step's states
    overwriting the noise row they used, and then ``domain.contains`` scans
    the block for first exits one slab at a time: ``scan_slab`` steps,
    ``SCAN_BYTES`` of the alive paths' states, so a few alive paths are
    scanned in one call per block and many in slabs of as few as
    ``SCAN_SLAB`` steps.  Unless the draw is d floats per step (a
    mini-batch's component indices, say), the states take rows of their
    own, which the byte cap counts too, and blocks start at ``SCAN_SLAB``
    steps and double up to ``block``, since such a draw may cost a Python
    call per step: a path that exits at step t draws at most
    t + ``SCAN_SLAB`` steps past it.  So a step may be evaluated on a path
    after its exit, until the end of the block; those states are discarded,
    and overflow in them is ignored (the chain kernels,
    ``sgd.chain_kernel``, leave such paths as they are).  Exits are
    recorded, and the alive states and path ids compacted, once per block.
    A non-finite exit point raises ``NumericalError`` at its exact step, the
    earliest such step of the block; the states still alive are checked
    once per block, so a non-finite alive state is reported at the end of
    its block.
    """
    step_fn, draw, shape, step_scale, block_step = kernel
    if on_step is not None and (domain is not None or block_step is not None):
        raise ValueError("lockstep takes on_step alone, without domain or block_step")
    n = len(gens)
    d = x0.size
    own_rows = domain is not None and (draw.width, np.dtype(draw.dtype)) != (d, np.float64)
    row_bytes = draw.width * np.dtype(draw.dtype).itemsize + (8 * d if own_rows else 0)
    longest = min(block, SCAN_SLAB) if own_rows else block
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
                longest, n_steps - step0, max(1, NOISE_BLOCK_BYTES // (row_bytes * ids.size))
            )
            longest = min(2 * longest, block)
            step1 = step0 + kblock
            buf = np.empty((kblock, ids.size, draw.width), dtype=draw.dtype)
            draw.fill(gens, ids, step0, step1, buf)
            if shape is not None:
                buf *= shape
            if step_scale is not None:
                buf *= np.reshape(step_scale(step0, step1), (-1, 1, 1))
            rows = np.empty((kblock, ids.size, d)) if own_rows else buf
            if block_step is not None:
                x = block_step(x, buf)
            else:
                for j in range(kblock):
                    x = step_fn(x, buf[j], step0 + j)
                    if domain is not None:
                        rows[j] = x
                    elif on_step is not None:
                        on_step(step0 + j + 1, x)
            if domain is not None:
                # Block step of each path's first outside state, -1 if none.
                first = np.full(ids.size, -1, dtype=np.int64)
                slab = scan_slab(rows.shape)
                for j0 in range(0, kblock, slab):
                    outside = ~domain.contains(rows[j0 : j0 + slab])
                    new = outside.any(axis=0) & (first < 0)
                    first[new] = j0 + outside[:, new].argmax(axis=0)
                left = first >= 0
                if left.any():
                    steps = first[left]
                    points = rows[steps, np.flatnonzero(left)]
                    bad = ~np.isfinite(points).all(axis=1)
                    if bad.any():
                        k = step0 + int(steps[bad].min()) + 1
                        raise NumericalError(f"non-finite state at step {k}", step=k)
                    exit_step[ids[left]] = step0 + steps + 1
                    exit_points[ids[left]] = points
                    x = x[~left]
                    ids = ids[~left]
            step0 = step1
            # Free this block before the next is allocated, so that the
            # allocator can hand its memory to the next one.
            del buf, rows
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite state by step {step0}", step=step0)
    states[ids] = x
    return exit_step, exit_points, states
