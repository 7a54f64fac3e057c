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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import streams
from .errors import NumericalError
from .oracles import AdditiveGaussianOracle, GradientOracle, MinibatchOracle


@dataclass(frozen=True)
class Trajectory:
    """A discretely sampled path: times (n,), states (n, dim), metadata."""

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

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


def interpolate(traj: Trajectory, t: float) -> np.ndarray:
    """Piecewise-linear state at time t; exact at stored knots."""
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise ValueError(f"t={t} outside trajectory range [{times[0]}, {times[-1]}]")
    return np.array([np.interp(t, times, traj.states[:, j]) for j in range(traj.dim)])


@dataclass(frozen=True)
class BatchSchedule:
    """Logarithmic batch-size growth m(s) = ceil(C log(s+2) / eta), clipped.

    The emitted size is clipped to [1, min(m_star, M)] so it is always a
    valid batch for sampling without replacement.
    """

    C: float
    eta: float
    m_star: int
    M: int

    def __post_init__(self):
        if self.C < 0:
            raise ValueError(f"C must be non-negative, got {self.C}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.m_star < 1 or self.M < 1:
            raise ValueError("m_star and M must be at least 1")


def schedule_m(schedule: BatchSchedule, s: float) -> int:
    """Batch size at pseudo-time s >= 0."""
    if s < 0:
        raise ValueError(f"pseudo-time must be non-negative, got {s}")
    raw = math.ceil(schedule.C * math.log(s + 2.0) / schedule.eta)
    return int(np.clip(raw, 1, min(schedule.m_star, schedule.M)))


@dataclass(frozen=True)
class SgdConfig:
    """Configuration of one SGD run."""

    eta: float
    steps: int
    x0: np.ndarray
    oracle: GradientOracle
    schedule: Optional[BatchSchedule] = None
    seed: int = 0
    store_every: int = 1

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if self.store_every < 1:
            raise ValueError(f"store_every must be >= 1, got {self.store_every}")
        if x0.shape != (self.oracle.potential.dim,):
            raise ValueError(
                f"x0 shape {x0.shape} does not match dim {self.oracle.potential.dim}"
            )
        if self.schedule is not None and not isinstance(self.oracle, MinibatchOracle):
            raise ValueError("a batch-size schedule requires a mini-batch oracle")


def sgd_iterates(cfg: SgdConfig, rng: np.random.Generator, n_steps: int):
    """Yield ``(x_k, m_k)`` for k = 1, ..., n_steps along one SGD path.

    ``m_k`` is the batch size of step k under the config's schedule (None
    without one).  Raises ``NumericalError`` if an iterate stops being
    finite.  This is the one per-path stepping loop: ``run_sgd`` stores what
    it yields and ``hitting_time_mc`` stops it at the first exit.
    """
    x = cfg.x0
    for k in range(n_steps):
        m = None if cfg.schedule is None else schedule_m(cfg.schedule, k * cfg.eta)
        x = x - cfg.eta * cfg.oracle.sample(x, rng, m=m)
        if not np.all(np.isfinite(x)):
            raise NumericalError(
                f"non-finite state at step {k + 1} (eta={cfg.eta})", step=k + 1
            )
        yield x, m


def additive_gaussian_kernel(cfg: SgdConfig) -> tuple[Callable, Callable, None] | None:
    """``(step_fn, shape_noise, step_scale)`` of the chain for ``streams.lockstep``.

    Only an ``AdditiveGaussianOracle`` with constant covariance S S^T has
    one (None otherwise): each path's draws are multiplied by S as they are
    drawn, and step k is x - eta (grad F(x) + S xi_k), so no step is scaled.
    """
    oracle = cfg.oracle
    if not isinstance(oracle, AdditiveGaussianOracle) or callable(oracle.covariance):
        return None
    eta = cfg.eta
    gradient = oracle.potential.gradient

    def step_fn(x, noise, k):
        return x - eta * (gradient(x) + noise)

    return step_fn, streams.rows_times_transpose(oracle.diffusion_at(cfg.x0)), None


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
    times = [0.0]
    states = [cfg.x0]
    steps_stored = [0]
    m_history: list[int] = []
    for k, (x, m) in enumerate(sgd_iterates(cfg, rng, cfg.steps), start=1):
        if m is not None:
            m_history.append(m)
        if k % cfg.store_every == 0 or k == cfg.steps:
            times.append(k * cfg.eta)
            states.append(x)
            steps_stored.append(k)
    meta = {"eta": cfg.eta, "seed": cfg.seed, "steps": np.array(steps_stored)}
    if cfg.schedule is not None:
        meta["m_history"] = np.array(m_history, dtype=int)
    return Trajectory(times=np.array(times), states=np.vstack(states), meta=meta)


@dataclass(frozen=True)
class EnsembleResult:
    """Endpoint states of an ensemble, plus optional running sup-gaps."""

    endpoints: np.ndarray  # (n_paths, dim)
    sup_gaps: Optional[np.ndarray] = None  # (n_paths,)


def run_sgd_ensemble(
    cfg: SgdConfig,
    n_paths: int,
    experiment: str = "sgd-ensemble",
    path_indices: range | None = None,
    reference_states: np.ndarray | None = None,
) -> EnsembleResult:
    """Simulate many SGD paths with private streams; return endpoints.

    ``reference_states`` of shape (steps + 1, dim) activates tracking of
    max_k ||x_k - ref_k|| per path, used to compare the chain against its
    deterministic gradient-flow limit.  Additive-Gaussian oracles with
    constant covariance are stepped vectorized across paths; anything else
    falls back to per-path ``run_sgd`` with the same streams.
    """
    indices = path_indices if path_indices is not None else range(n_paths)
    gens = streams.path_streams(cfg.seed, experiment, indices)
    n = len(gens)
    d = cfg.oracle.potential.dim
    if reference_states is not None:
        reference_states = np.asarray(reference_states, dtype=float)
        if reference_states.shape != (cfg.steps + 1, d):
            raise ValueError(
                f"reference states shape {reference_states.shape} != ({cfg.steps + 1}, {d})"
            )

    kernel = additive_gaussian_kernel(cfg)
    if kernel is None:
        endpoints = np.empty((n, d))
        gaps = np.zeros(n) if reference_states is not None else None
        for i, gen in enumerate(gens):
            traj = run_sgd(replace(cfg, store_every=1), rng=gen)
            endpoints[i] = traj.states[-1]
            if reference_states is not None:
                gaps[i] = np.linalg.norm(traj.states - reference_states, axis=1).max()
        return EnsembleResult(endpoints=endpoints, sup_gaps=gaps)

    track = None
    gaps = None
    if reference_states is not None:
        gaps = np.zeros(n)

        def track(k, x):
            np.maximum(gaps, np.linalg.norm(x - reference_states[k], axis=1), out=gaps)

    step_fn, shape_noise, _ = kernel
    endpoints = streams.lockstep(
        step_fn, cfg.x0, gens, cfg.steps, shape_noise=shape_noise, on_step=track
    )[2]
    return EnsembleResult(endpoints=endpoints, sup_gaps=gaps)


def sgd_ensemble_chunk(
    cfg: SgdConfig, experiment: str, reference_states: np.ndarray | None, lo: int, hi: int
) -> EnsembleResult:
    """``run_sgd_ensemble`` over paths lo, ..., hi - 1: a ``scatter`` chunk."""
    return run_sgd_ensemble(
        cfg, hi - lo, experiment, path_indices=range(lo, hi), reference_states=reference_states
    )
