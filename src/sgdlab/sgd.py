"""The stochastic gradient descent chain x_{k+1} = x_k - eta * g(x_k, xi).

The chain is a discrete Markov process indexed by pseudo-time s = k * eta.
``run_sgd`` simulates a single trajectory bit-reproducibly from a seed;
``run_sgd_ensemble`` simulates many paths with private per-path streams so
ensembles can be split across workers without changing any number.

A growing batch-size schedule m(s) = clip(ceil(C * log(s + 2) / eta)) mimics
a slowly cooled diffusion: the effective noise temperature eta/m(s) then
decays like 1/log(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import streams
from .errors import NumericalError, check_count, check_non_negative, check_point, check_positive
from .oracles import GradientOracle, MinibatchOracle


@dataclass(frozen=True)
class Trajectory:
    """A discretely sampled path: times (n,), states (n, dim)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if times.ndim != 1 or states.shape[0] != times.shape[0]:
            raise ValueError(
                f"times {times.shape} and states {states.shape} do not align"
            )
        if times.size and np.any(np.diff(times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class BatchSchedule:
    """Logarithmic batch-size growth m(s) = ceil(C log(s+2) / eta), clipped.

    The emitted size is clipped to [1, min(m_star, M)] so it is always a
    valid batch for sampling without replacement; ``SgdConfig`` requires M
    to be its oracle's number of components and eta to be its own step.
    """

    C: float
    eta: float
    m_star: int
    M: int

    def __post_init__(self):
        check_non_negative("C", self.C)
        check_positive("eta", self.eta)
        check_count("m_star", self.m_star, 1)
        check_count("M", self.M, 1)


def schedule_m(schedule: BatchSchedule, s: float) -> int:
    """Batch size at pseudo-time s >= 0."""
    if s < 0:
        raise ValueError(f"pseudo-time must be non-negative, got {s}")
    raw = math.ceil(schedule.C * math.log(s + 2.0) / schedule.eta)
    return min(max(raw, 1), min(schedule.m_star, schedule.M))


@dataclass(frozen=True)
class SgdConfig:
    """Configuration of one SGD run."""

    eta: float
    steps: int
    x0: np.ndarray
    oracle: GradientOracle
    schedule: Optional[BatchSchedule] = None
    seed: int = 0

    def __post_init__(self):
        x0 = check_point("x0", self.x0)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        check_positive("eta", self.eta)
        check_count("steps", self.steps)
        if x0.shape != (self.oracle.potential.dim,):
            raise ValueError(
                f"x0 shape {x0.shape} does not match dim {self.oracle.potential.dim}"
            )
        if self.schedule is not None:
            if not isinstance(self.oracle, MinibatchOracle):
                raise ValueError("a batch-size schedule requires a mini-batch oracle")
            if self.schedule.M != self.oracle.fs.M:
                raise ValueError(
                    f"the schedule's M={self.schedule.M} differs from the oracle's "
                    f"M={self.oracle.fs.M}"
                )
            if self.schedule.eta != self.eta:
                raise ValueError(
                    f"the schedule's eta={self.schedule.eta} differs from the config's "
                    f"eta={self.eta}"
                )


def _additive_gaussian_kernel(cfg: SgdConfig, domain=None) -> streams.Kernel:
    """The kernel of an ``AdditiveGaussianOracle`` chain: step k is
    x - eta (grad F(x) + S xi_k), whose noise ``streams.gaussian_kernel``
    forms from S = ``oracle.diffusion``, constant or a map, in the bits of
    ``oracle.sample``'s S(x_i) @ xi_i."""
    eta = cfg.eta
    gradient = cfg.oracle.potential.gradient

    def step_fn(x, noise, k):
        return x - eta * (gradient(x) + noise)

    return streams.gaussian_kernel(step_fn, cfg.x0.size, cfg.oracle.diffusion, domain=domain)


def _minibatch_kernel(cfg: SgdConfig, domain=None) -> streams.Kernel:
    """The kernel of a ``MinibatchOracle`` chain.

    Step k draws each live row's batch (``streams.live_rows``; the others
    stay as they are and draw nothing) from its path's stream
    (``oracle.batch``), as ``run_sgd`` does, evaluates the drawn components
    with one call of the indexed map, ``g(x[rows][:, None, :], picks)``, on
    rows * m (point, index) pairs, and averages every path's batch in
    ``oracle.sample``'s bits.
    """
    oracle, schedule, eta = cfg.oracle, cfg.schedule, cfg.eta
    gradients = oracle.fs.component_gradients

    def step_fn(x, gens, k):
        m = oracle.m if schedule is None else schedule_m(schedule, k * eta)
        rows = streams.live_rows(x, domain)
        out = x.copy()
        if rows.size:
            picks = np.empty((rows.size, m), dtype=np.int64)
            for c, r in enumerate(rows.tolist()):
                picks[c] = oracle.batch(gens[r], m)
            live = x[rows]
            out[rows] = live - eta * (np.add.reduce(gradients(live[:, None, :], picks), axis=1) / m)
        return out

    return streams.Kernel(step_fn)


def chain_kernel(cfg: SgdConfig, domain=None) -> streams.Kernel:
    """The ``streams.Kernel`` of any chain: the one stepping form of every
    oracle.  Give the ``domain`` a first-exit run stops at, so that a step
    skips paths that have already left it."""
    if isinstance(cfg.oracle, MinibatchOracle):
        return _minibatch_kernel(cfg, domain)
    return _additive_gaussian_kernel(cfg, domain)


def run_sgd(cfg: SgdConfig, rng: np.random.Generator | None = None) -> Trajectory:
    """Simulate one SGD path.

    With the default ``rng=None`` the path is a pure function of the config
    (including its seed).  Passing a generator lets a caller continue a
    previous run: restarting from a stored state with the same generator
    reproduces the remaining steps exactly, which is the Markov property of
    the chain in executable form.  Raises ``NumericalError`` if an iterate
    stops being finite.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    states = [cfg.x0]
    x = cfg.x0
    for k in range(cfg.steps):
        m = None if cfg.schedule is None else schedule_m(cfg.schedule, k * cfg.eta)
        x = x - cfg.eta * cfg.oracle.sample(x, rng, m=m)
        if not np.all(np.isfinite(x)):
            raise NumericalError(
                f"non-finite state at step {k + 1} (eta={cfg.eta})", step=k + 1
            )
        states.append(x)
    return Trajectory(times=np.arange(cfg.steps + 1) * cfg.eta, states=np.vstack(states))


@dataclass(frozen=True)
class EnsembleResult:
    """Endpoint states of an ensemble, plus optional running sup-gaps."""

    endpoints: np.ndarray  # (n_paths, dim)
    sup_gaps: Optional[np.ndarray] = None  # (n_paths,)


def run_sgd_ensemble(
    cfg: SgdConfig,
    n_paths: int | range,
    experiment: str = "sgd-ensemble",
    reference_states: np.ndarray | None = None,
) -> EnsembleResult:
    """Simulate many SGD paths with private streams; return endpoints.

    ``n_paths`` is a count n (paths 0, ..., n - 1) or a ``range`` of path
    indices; path i draws from the stream (``cfg.seed``, ``experiment``, i).
    ``reference_states`` of shape (steps + 1, dim) activates tracking of
    max_k ||x_k - ref_k|| per path, used to compare the chain against its
    deterministic gradient-flow limit.  Every oracle is stepped by one
    ``streams.lockstep`` through ``chain_kernel``, with the draws ``run_sgd``
    takes from each path's stream, in groups: a run holds its endpoints (and
    sup-gaps) and one group's streams and block, within
    ``streams.GROUP_BYTES``, whatever ``n_paths``.
    """
    indices = n_paths if isinstance(n_paths, range) else range(check_count("n_paths", n_paths))
    d = cfg.oracle.potential.dim
    track = None
    gaps = None
    if reference_states is not None:
        reference_states = np.asarray(reference_states, dtype=float)
        if reference_states.shape != (cfg.steps + 1, d):
            raise ValueError(
                f"reference states shape {reference_states.shape} != ({cfg.steps + 1}, {d})"
            )
        gaps = np.zeros(len(indices))

        def track(k0, states, paths):
            # Slabs (``streams.scan_slab``) bound the temporaries, which are
            # squared and summed in place, in np.linalg.norm's bits; the max
            # over steps then over slabs is exact.
            chunk = gaps[paths]
            slab = streams.scan_slab(states.shape)
            for j0 in range(0, len(states), slab):
                part = states[j0 : j0 + slab]
                sq = part - reference_states[k0 + j0 + 1 : k0 + j0 + 1 + len(part), None]
                sq *= sq
                dist = np.add.reduce(sq, axis=2)
                np.maximum(chunk, np.sqrt(dist, out=dist).max(axis=0), out=chunk)

    kernel = chain_kernel(cfg)
    endpoints = streams.lockstep(
        kernel, cfg.x0, cfg.seed, experiment, indices, cfg.steps, on_block=track
    )[2]
    return EnsembleResult(endpoints=endpoints, sup_gaps=gaps)


def sgd_ensemble_chunk(
    cfg: SgdConfig, experiment: str, reference_states: np.ndarray | None, lo: int, hi: int
) -> EnsembleResult:
    """``run_sgd_ensemble`` over paths lo, ..., hi - 1: a ``scatter`` chunk."""
    return run_sgd_ensemble(cfg, range(lo, hi), experiment, reference_states)
