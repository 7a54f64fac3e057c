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
SGD chain, first exits and annealing all run through it, and it is the one
caller of ``path_streams``: it builds each path's stream itself.

Memory: ``lockstep`` holds at most ``NOISE_BLOCK_BYTES`` of noise at once.
A run without a domain and without an observer whose draw is d floats per
step (``sde.em_endpoints``, ``sgd.run_sgd_ensemble`` without sup-gaps) runs
in contiguous groups of paths, one at a time, each on its own
``path_streams`` call, and only a group's final states outlive it.  A group
holds as many paths as fit ``GROUP_BYTES`` with each path's first block
(``BLOCK_STEPS`` steps, or the whole run if shorter) and its stream, so such
a run holds its output and one group, whatever its path count.  Every other run
is one group, with every path's stream: a first exit, from whose blocks
compaction drops each path that has left; a run with an ``on_block``
observer (annealing's checkpoints, the chain's sup-gaps), which may need
every path at every step; and a draw that is not d floats per step (a
mini-batch's, one Python call per path and step), to which more groups
would add only dispatch.  Since a path's states depend on its own stream
alone, the groups move no bit.

Two-thread contract: where a second CPU is free, ``lockstep`` splits a block
of d floats per path and step (the standard normals of ``gaussian_kernel``)
in two when at least two paths are alive, a path's draw holds at least
``SPLIT_VALUES`` values and the block at least ``SPLIT_BLOCK_VALUES``, at
least two CPUs are usable (``os.sched_getaffinity``) and the process is
neither a forked child nor a pool worker.  A helper thread, started on first
use, then fills the last half of the alive columns while the calling
thread does the first half, each with one ``fill`` call on its own ids,
which also shapes and scales them; numpy's ``standard_normal`` releases
the GIL, so the halves run side by side.  A ``block_step`` that releases it
too (``Kernel.block_step_releases_gil``: the diagonal quadratics' compiled
linear filter, see ``sde._linear_filter``) steps each half on its thread;
one that holds it (the double wells' cubic recursion) would only wait for
the other thread, so it steps the whole block once, on the calling thread,
after the join.  The per-step loop, the exit scan, compaction, every
``NumericalError`` guard and ``on_block`` run on the calling thread after
the join.  Since every path's stream is drawn by one thread in step order,
and shaping, scaling and the block steppers act on each path's column
alone, the split moves no bit.  Any other block, a mini-batch draw among
them, is filled by one ``fill`` call on the calling thread.  ``import sgdlab`` starts
no thread, and neither a forked child nor a worker of the command line's
pool, however it was started, ever starts one: the pool already keeps the
CPUs busy, and a child inherits its parent's executor without its thread.

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
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import NumericalError, check_count

# The most steps of one noise block.  Results do not depend on it.  Longer
# blocks spread each block's fixed costs (its Python dispatch, exit scan and
# compaction, and annealing's one observer call) over more steps; 1024 steps
# keep a 500-path annealing arm's block at 3.9 MiB, where 4096 would take
# 15.6 MiB.  The benchmark's exit workloads count noise draws in whole
# blocks of 1024 steps.
BLOCK_STEPS = 1024

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

# The bytes one group of a grouped ``lockstep`` run may hold: each path's
# first noise block (``BLOCK_STEPS`` steps or the whole run, if shorter, of
# d floats per step) and its stream.  Results do not depend on it.  It
# bounds the memory of a run, while groups that fit the CPU caches step
# faster: a weak ladder of 40,000 one-dimensional double-well paths a side
# (four rungs of 5 to 40 chain and 50 to 400 Euler steps) and a 2-D chain of
# 5,000 paths took 1.12, 1.06, 1.03, 1.03 and 1.05 s with budgets of 2, 4,
# 8, 16 and 32 MiB, and 1.12 s as one group (numpy 2.4, two x86-64 cores).
GROUP_BYTES = 8 * 2**20

# What one path's stream holds: its Generator, PCG64 and _PathSeed, and its
# row of seed words, about 830 bytes by tracemalloc (numpy 2.4).
_STREAM_BYTES = 840

# The fewest values one path's draw of a block must hold for ``lockstep`` to
# split the block between two threads.  Two threads filled 1,024-value draws
# 1.5-1.8 times as fast as one, but 400-value draws 0.85 and 50-value draws
# 0.6 times as fast, since GIL hand-offs then outweigh the draws (numpy 2.4,
# two x86-64 cores).
SPLIT_VALUES = 512

# The fewest values a whole block must hold for ``lockstep`` to split it.
# Handing a block to the helper thread and waiting for it costs about 50 us,
# so with 1,024-value draws two threads filled 2 paths 0.6, 16 paths 0.9,
# 32 paths 1.0 and 64 paths 1.2 times as fast as one (same machine): the
# floor keeps the blocks that gain at least a fifth.
SPLIT_BLOCK_VALUES = 2**16

# The helper thread's executor, started by the first block that splits.
_helper_pool: ThreadPoolExecutor | None = None
_helper_lock = threading.Lock()
_no_helper = False

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


def path_streams(base_seed: int, experiment: str, indices) -> list[np.random.Generator]:
    """Generators for a collection of path indices, in the given order."""
    base_seed = check_count("base_seed", base_seed)
    indices = [int(i) for i in indices]
    if not indices:
        return []
    check_count("path_index", min(indices))
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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helper() -> ThreadPoolExecutor | None:
    """The one-thread executor that runs the second half of a split block,
    started on first use; None in a forked child, in a pool worker or with
    one usable CPU."""
    global _helper_pool
    if _helper_pool is None and not _no_helper and _usable_cpus() >= 2:
        with _helper_lock:  # lockstep may run on several threads at once
            if _helper_pool is None:
                _helper_pool = ThreadPoolExecutor(1, thread_name_prefix="sgdlab-lockstep")
    return _helper_pool


def _start_without_helper() -> None:
    """Keep this process from starting a helper thread.  Run after a fork,
    where a child inherits the executor but not its thread, so a submit would
    wait forever, and by every pool worker as its initializer, since a
    ``spawn`` or ``forkserver`` worker is not a forked child and the pool
    already fills the CPUs."""
    global _helper_pool, _no_helper
    _helper_pool, _no_helper = None, True


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_start_without_helper)


class PathDraw(NamedTuple):
    """A kernel's draws for ``lockstep``: ``width`` values of ``dtype`` per
    path and step.

    ``fill(gens, ids, k0, k1, out)`` takes the draws of steps k0, ...,
    k1 - 1 of path ``ids[c]`` from its generator ``gens[ids[c]]``, in step
    order, and writes them into ``out[:, c]`` of the (k1 - k0, len(ids),
    width) block ``out``.  It touches no other generator or column, so
    ``lockstep`` may fill two halves of a block on two threads at once.
    """

    fill: Callable[[list, np.ndarray, int, int, np.ndarray], None]
    width: int
    dtype: type


class Kernel(NamedTuple):
    """One step of an ensemble and the noise it takes, for ``lockstep``.

    ``step(x, noise, k)`` advances the states ``x`` (one row per path) by
    step k = 0, 1, ..., where ``noise`` is the block row of step k, as
    ``draw`` filled it: for ``gaussian_kernel``'s kernels, noise that is
    already shaped and scaled, ready to add.  A ``block_step(x, buf, k0)``,
    if given, replaces the per-step loop: it steps the states ``x`` through
    the whole block ``buf`` of steps k0, k0 + 1, ... in one call, writes
    each step's states over the noise row they used and returns the states
    after the block, and ``step`` is not called.  ``gaussian_kernel`` builds
    the kernels that draw d standard normals per step.

    ``block_step_releases_gil`` is internal, set by ``sde.sde_kernel`` for
    a block stepper that runs outside the GIL (the compiled linear filter),
    which ``lockstep`` may then run on each half of a split block (see the
    module docstring's two-thread contract).
    """

    step: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    draw: PathDraw
    block_step: Callable[[np.ndarray, np.ndarray, int], np.ndarray] | None = None
    block_step_releases_gil: bool = False


def gaussian_kernel(step, d: int, s=1.0, step_scale=None, block_step=None) -> Kernel:
    """The ``Kernel`` of ``step`` on d standard normals xi per step and path,
    shaped by a constant diffusion ``s`` into xi @ s.T and then scaled,
    steps k0, ..., k1 - 1, by ``step_scale(k0, k1)`` unless that is None:
    one number for the whole block or one value per step.  Its ``fill``
    does both, in place on its own columns, so it hands ``lockstep`` noise
    ready to add.

    A scalar, or the diagonal of a diagonal ``s`` whose diagonal entries are
    all nonzero, is multiplied into the filled block at once: every element
    of ``xi @ s.T`` then has one nonzero term, which the product gives in
    the same bits.  Unit noise is not shaped, since multiplying by 1.0
    changes no bit.  Any other matrix (a zero on the diagonal could flip the
    sign of a zero) is applied to each path's draws as they are drawn.
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
        if s_t is None:
            # Each path draws into a contiguous row of a path-major tile of
            # ``SCAN_BYTES``, and a tile goes into the time-major block in
            # one transposed copy, not one strided column per path.
            k = k1 - k0
            tile = np.empty((min(len(ids), max(1, SCAN_BYTES // (8 * k * d))), k, d))
            for c0 in range(0, len(ids), len(tile)):
                part = ids[c0 : c0 + len(tile)]
                for c, i in enumerate(part):
                    gens[i].standard_normal(out=tile[c])
                out[:, c0 : c0 + len(part)] = tile[: len(part)].transpose(1, 0, 2)
            del tile  # not held while the block is shaped and scaled
            if shape is not None:
                out *= shape
        else:
            for c, i in enumerate(ids):
                xi = gens[i].standard_normal((k1 - k0, d))
                if len(xi) > 1:
                    out[:, c] = xi @ s_t
                else:
                    # numpy hands a one-row product to gemv, whose last bits
                    # differ from those of the gemm that serves two rows or
                    # more, so a one-row block is padded to two rows: a
                    # path's noise must not depend on the block.
                    out[:, c] = (np.concatenate([xi, xi]) @ s_t)[:1]
        if step_scale is not None:
            out *= np.reshape(step_scale(k0, k1), (-1, 1, 1))

    return Kernel(step, PathDraw(fill, d, float), block_step)


def _prepare(kernel: Kernel, gens, ids, k0, k1, buf, x, block_step) -> np.ndarray:
    """Fill ``buf`` with the draws of steps k0, ..., k1 - 1 of the paths
    ``ids``, and step their states ``x`` through it with ``block_step``
    unless that is None; returns the states after the block, or ``x`` as it
    was.  numpy's error state belongs to a thread's context, so this sets
    ``lockstep``'s own for the helper thread too."""
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.draw.fill(gens, ids, k0, k1, buf)
        return x if block_step is None else block_step(x, buf, k0)


def lockstep(
    kernel: Kernel,
    x0: np.ndarray,
    base_seed: int,
    experiment: str,
    indices,
    n_steps: int,
    domain=None,
    on_block: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step the paths ``indices`` (a sequence, such as a ``range``) in
    lockstep from ``x0`` through ``kernel`` (see ``Kernel``) for up to
    ``n_steps`` steps, path i on the stream (``base_seed``, ``experiment``,
    i).  The paths run in groups as the module docstring's memory model
    states.

    With a ``domain`` (anything with a vectorized ``contains``), a path
    retires on the first step that leaves it; without one every path runs
    all ``n_steps``.  ``on_block`` does not combine with a ``domain``.
    Returns ``(exit_step, exit_points, states)``, one row per path in the
    order of ``indices``: the 1-based exit step of each path (-1 if it never
    left), its first outside state, and the final state of every path still
    inside; without a domain the first two are read-only views.

    A block of at most ``BLOCK_STEPS`` steps is filled from each path's
    stream, and holds fewer steps where the alive paths' rows would
    pass ``NOISE_BLOCK_BYTES``, so the result is independent of the block
    size, of the groups and of how paths are cut into chunks.  A block is
    time-major: ``buf[j, c]`` is step j of the path in column c, so the
    noise of one step is the view ``buf[j]``.  It may be split between two
    threads, as the module docstring's two-thread contract states.

    Observer contract: ``on_block(k0, states)``, if given, is called once
    per block, blocks in step order, after the block is stepped and before
    its ``NumericalError`` guard.  ``states`` is the (k1 - k0, paths, d)
    stack of the states after steps k0 + 1, ..., k1, so ``states[j]`` holds
    every path after step k0 + j + 1.  It is a view of the block's rows,
    which the block stepper or the per-step loop wrote over the noise they
    used (rows of their own, counted by the byte cap, for a draw that is not
    d floats per step), and is valid only during the call: later blocks
    reuse that memory, so an observer that keeps states copies them.

    Block-scan contract, with a ``domain``: every path alive at the start of
    a block is stepped through the whole block, each step's states
    overwriting the noise row they used, and then ``domain.contains`` scans
    the block for first exits one slab at a time: ``scan_slab`` steps,
    ``SCAN_BYTES`` of the alive paths' states, so a few alive paths are
    scanned in one call per block and many in slabs of as few as
    ``SCAN_SLAB`` steps.  Unless the draw is d floats per step (a
    mini-batch's component indices, say), the states take rows of their
    own, which the byte cap counts too, and blocks start at ``SCAN_SLAB``
    steps and double up to ``BLOCK_STEPS``, since such a draw may cost a
    Python call per step: a path that exits at step t draws at most
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
    if on_block is not None and domain is not None:
        raise ValueError("lockstep takes on_block only without a domain")
    n, d = len(indices), x0.size
    draw = kernel.draw
    d_floats = (draw.width, np.dtype(draw.dtype)) == (d, np.float64)
    size = max(n, 1)
    if domain is None and on_block is None and d_floats:
        size = max(1, GROUP_BYTES // (8 * d * min(BLOCK_STEPS, n_steps) + _STREAM_BYTES))
    if domain is None:
        # No path leaves: read-only views, which hold no memory per path.
        exit_step = np.broadcast_to(np.int64(-1), (n,))
        exit_points = np.broadcast_to(0.0, (n, d))
    else:
        exit_step = np.full(n, -1, dtype=np.int64)
        exit_points = np.zeros((n, d))
    states = np.tile(x0, (n, 1))
    # An empty run still takes one (empty) path_streams call, which checks
    # the seed.  No name keeps a group's streams once it has run, so they
    # are freed before the next group's are built.
    for lo in range(0, max(n, 1), size):
        hi = min(lo + size, n)
        gens = path_streams(base_seed, experiment, indices[lo:hi])
        _run_group(
            kernel, gens, n_steps, domain, on_block, d_floats,
            exit_step[lo:hi], exit_points[lo:hi], states[lo:hi],
        )
        del gens
    return exit_step, exit_points, states


def _run_group(
    kernel, gens, n_steps, domain, on_block, d_floats, exit_step, exit_points, states
) -> None:
    """``lockstep`` of one group: the paths of ``gens`` from the rows of
    ``states``, writing each path's exit step, exit point and final state
    into its row of ``exit_step``, ``exit_points`` and ``states``.
    ``d_floats`` says whether the kernel draws d floats per step."""
    step_fn, draw, block_step, releases_gil = kernel
    d = states.shape[1]
    keep_rows = domain is not None or on_block is not None
    own_rows = keep_rows and not d_floats
    row_bytes = draw.width * np.dtype(draw.dtype).itemsize + (8 * d if own_rows else 0)
    longest = min(BLOCK_STEPS, SCAN_SLAB) if domain is not None and not d_floats else BLOCK_STEPS
    x = states.copy()
    ids = np.arange(len(gens))
    step0 = 0
    # Overflow to inf/nan is caught by the explicit guards below; the
    # intermediate warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while ids.size and step0 < n_steps:
            kblock = min(
                longest, n_steps - step0, max(1, NOISE_BLOCK_BYTES // (row_bytes * ids.size))
            )
            longest = min(2 * longest, BLOCK_STEPS)
            step1 = step0 + kblock
            buf = np.empty((kblock, ids.size, draw.width), dtype=draw.dtype)
            split = (
                d_floats
                and ids.size >= 2
                and kblock * d >= SPLIT_VALUES
                and buf.size >= SPLIT_BLOCK_VALUES
            )
            helper = _helper() if split else None
            if helper is None:
                x = _prepare(kernel, gens, ids, step0, step1, buf, x, block_step)
            else:
                per_half = block_step if releases_gil else None
                h = ids.size // 2
                tail = helper.submit(
                    _prepare, kernel, gens, ids[h:], step0, step1, buf[:, h:], x[h:], per_half
                )
                try:
                    head = _prepare(
                        kernel, gens, ids[:h], step0, step1, buf[:, :h], x[:h], per_half
                    )
                finally:
                    tail.exception()  # waits for the helper's half
                x = np.concatenate([head, tail.result()])
                if per_half is None and block_step is not None:
                    x = block_step(x, buf, step0)
            rows = np.empty((kblock, ids.size, d)) if own_rows else buf
            if block_step is None:
                for j in range(kblock):
                    x = step_fn(x, buf[j], step0 + j)
                    if keep_rows:
                        rows[j] = x
            if on_block is not None:
                on_block(step0, rows)
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
            # allocator can hand its memory to the next one; so no other
            # name may keep a view of it (the helper's half is one).
            del buf, rows
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite state by step {step0}", step=step0)
    states[ids] = x
