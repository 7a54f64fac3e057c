"""Deterministic random-stream derivation for reproducible parallel Monte Carlo.

Every simulated path owns a private generator derived from the triple
``(base_seed, experiment label, path index)`` via numpy's splittable
``SeedSequence``.  Path results are therefore a pure function of the
configuration: how paths are batched across workers can never change the
numbers, and re-running with a different worker count reproduces output
files byte for byte.

``lockstep`` is the one engine that steps an ensemble: the diffusion, the
SGD chain, first exits and annealing all run through it.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from .errors import NumericalError


def _label_words(label: str) -> tuple[int, int]:
    """Two stable 32-bit words derived from an experiment label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def seed_policy(base_seed: int, experiment: str, path_index: int) -> np.random.Generator:
    """Return the private generator for one path of one experiment.

    The stream depends only on the three arguments, never on scheduling,
    chunking, or worker count.  Distinct path indices (and distinct labels)
    yield statistically independent streams.
    """
    base_seed = int(base_seed)
    path_index = int(path_index)
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    if path_index < 0:
        raise ValueError(f"path_index must be non-negative, got {path_index}")
    key = _label_words(experiment) + (path_index,)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(base_seed, spawn_key=key)))


def path_streams(base_seed: int, experiment: str, indices) -> list[np.random.Generator]:
    """Generators for a collection of path indices, in the given order."""
    return [seed_policy(base_seed, experiment, int(i)) for i in indices]


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
    one every path runs all ``n_steps``.  Returns ``(exit_step,
    exit_points, states)``: the 1-based exit step of each path (-1 if it
    never left), its first outside state, and the final state of every path
    still inside.

    Noise is drawn per path from its private stream in blocks of ``block``
    steps, so the result is independent of how paths are grouped into
    chunks and of the block size.  A block is time-major: ``buf[j, c]`` is
    step j of the path in column c, so the noise of one step is the view
    ``buf[j]``.  Each path's draws pass through ``shape_noise`` as they are
    drawn; then, once per block and in place, step k is multiplied by
    ``step_scale(k)``.  States are checked for overflow on every exit and
    once per block, so a non-finite state is reported at its exit step or
    at the end of its block.

    Compaction invariant: ``x``, ``ids`` and ``cols`` hold exactly the alive
    paths, in increasing path order, row for row: ``x[r]`` is the state of
    path ``ids[r]``, whose noise is column ``cols[r]`` of the current block.
    They are compacted only on a step where some path leaves.  ``cols`` is
    None while it is the identity, from the start of each block to its
    first exit.
    """
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
            kblock = min(block, n_steps - step0)
            buf = np.empty((kblock, ids.size, d))
            for pos, i in enumerate(ids):
                xi = gens[i].standard_normal((kblock, d))
                buf[:, pos] = xi if shape_noise is None else shape_noise(xi)
            if step_scale is not None:
                scales = [step_scale(k) for k in range(step0, step0 + kblock)]
                buf *= np.array(scales)[:, None, None]
            cols = None
            for j in range(kblock):
                x = step_fn(x, buf[j] if cols is None else buf[j, cols], step0 + j)
                if on_step is not None:
                    on_step(step0 + j + 1, x)
                if domain is None:
                    continue
                inside = domain.contains(x)
                if inside.all():
                    continue
                outside = ~inside
                if not np.all(np.isfinite(x[outside])):
                    raise NumericalError(
                        f"non-finite state at step {step0 + j + 1}",
                        step=step0 + j + 1,
                    )
                exit_step[ids[outside]] = step0 + j + 1
                exit_points[ids[outside]] = x[outside]
                x = x[inside]
                ids = ids[inside]
                cols = (np.arange(inside.size) if cols is None else cols)[inside]
                if not ids.size:
                    break
            step0 += kblock
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite state by step {step0}", step=step0)
    states[ids] = x
    return exit_step, exit_points, states
