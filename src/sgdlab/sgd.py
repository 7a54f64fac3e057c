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
from .errors import NumericalError
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
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if x0.shape != (self.oracle.potential.dim,):
            raise ValueError(
                f"x0 shape {x0.shape} does not match dim {self.oracle.potential.dim}"
            )
        if self.schedule is not None and not isinstance(self.oracle, MinibatchOracle):
            raise ValueError("a batch-size schedule requires a mini-batch oracle")


def _live_rows(x: np.ndarray, domain) -> np.ndarray:
    """Indices of the rows of ``x`` a chain step must advance: finite and,
    under a ``domain``, inside it.  ``lockstep`` steps a path on after its
    exit until the block ends and discards those states, so a step leaves
    such rows as they are rather than evaluate the model where it may not
    be defined (a covariance that is PSD only inside the domain)."""
    live = np.isfinite(x).all(axis=1)
    if domain is not None:
        live &= domain.contains(x)
    return np.flatnonzero(live)


def _additive_gaussian_kernel(cfg: SgdConfig, domain=None) -> streams.Kernel:
    """The kernel of an ``AdditiveGaussianOracle`` chain, on d standard
    normals per step.

    Step k is x - eta (grad F(x) + S xi_k), with S = ``oracle.diffusion``.
    A constant S shapes the draws (``streams.gaussian_kernel``); a map S is
    evaluated inside the step, one S(x_i) @ xi_i per live row (see
    ``_live_rows``; the others take no noise), the product ``oracle.sample``
    takes.
    """
    eta = cfg.eta
    gradient = cfg.oracle.potential.gradient
    diffusion = cfg.oracle.diffusion
    d = cfg.x0.size
    if not callable(diffusion):

        def step_fn(x, noise, k):
            return x - eta * (gradient(x) + noise)

        return streams.gaussian_kernel(step_fn, d, diffusion)

    def step_fn(x, xi, k):
        noise = np.zeros_like(x)
        for i in _live_rows(x, domain):
            noise[i] = diffusion(x[i]) @ xi[i]
        return x - eta * (gradient(x) + noise)

    return streams.gaussian_kernel(step_fn, d)


def _minibatch_kernel(cfg: SgdConfig, n_steps: int, domain=None) -> streams.Kernel:
    """The kernel of a ``MinibatchOracle`` chain of ``n_steps`` steps.

    Each path draws the batch of step k from its own stream
    (``oracle.batch``) into a block row padded to the run's widest batch.
    The step evaluates each component that occurs in the live rows' batches
    (see ``_live_rows``; the others stay as they are) once, on the rows
    that drew it, so a step costs at most min(M, rows * m) calls and
    rows * m * d floats, and averages every path's batch in
    ``oracle.sample``'s bits.
    """
    oracle, schedule, eta = cfg.oracle, cfg.schedule, cfg.eta
    components = oracle.fs.component_gradients
    if schedule is None:
        size_of = lambda k: oracle.m  # noqa: E731
    else:
        size_of = lambda k: schedule_m(schedule, k * eta)  # noqa: E731
    # The schedule never shrinks a batch, so the last step's is the widest.
    width = size_of(max(n_steps - 1, 0))

    def fill(gens, ids, k0, k1, out):
        out[...] = 0
        sizes = [size_of(k) for k in range(k0, k1)]
        for c, i in enumerate(ids):
            for j, m in enumerate(sizes):
                out[j, c, :m] = oracle.batch(gens[i], m)

    def step_fn(x, batches, k):
        m, d = size_of(k), x.shape[1]
        rows = _live_rows(x, domain)
        picks = batches[rows, :m].ravel()
        # The live rows' batch slots sorted by the component they drew, so
        # that each drawn component is called once, on a contiguous run.
        order = np.argsort(picks, kind="stable")
        drawn = picks[order]
        starts = np.flatnonzero(np.diff(drawn, prepend=-1)).tolist()
        points = x[rows[order // m]]
        grads = np.empty_like(points)
        for a, b in zip(starts, starts[1:] + [drawn.size]):
            grads[a:b] = components[drawn[a]](points[a:b])
        slots = np.empty_like(grads)
        slots[order] = grads
        out = x.copy()
        out[rows] = x[rows] - eta * (np.add.reduce(slots.reshape(rows.size, m, d), axis=1) / m)
        return out

    return streams.Kernel(step_fn, streams.PathDraw(fill, width, np.int64))


def chain_kernel(cfg: SgdConfig, n_steps: int, domain=None) -> streams.Kernel:
    """The ``streams.Kernel`` of any chain of ``n_steps`` steps: the one
    stepping form of every oracle.  Give the ``domain`` a first-exit run
    stops at, so that a step skips paths that have already left it."""
    if isinstance(cfg.oracle, MinibatchOracle):
        return _minibatch_kernel(cfg, n_steps, domain)
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
    n_paths: int,
    experiment: str = "sgd-ensemble",
    path_indices: range | None = None,
    reference_states: np.ndarray | None = None,
) -> EnsembleResult:
    """Simulate many SGD paths with private streams; return endpoints.

    ``reference_states`` of shape (steps + 1, dim) activates tracking of
    max_k ||x_k - ref_k|| per path, used to compare the chain against its
    deterministic gradient-flow limit.  Every oracle is stepped on
    ``streams.lockstep`` through ``chain_kernel``, all paths at once, with
    the draws ``run_sgd`` takes from each path's stream.
    """
    indices = path_indices if path_indices is not None else range(n_paths)
    gens = streams.path_streams(cfg.seed, experiment, indices)
    d = cfg.oracle.potential.dim
    track = None
    gaps = None
    if reference_states is not None:
        reference_states = np.asarray(reference_states, dtype=float)
        if reference_states.shape != (cfg.steps + 1, d):
            raise ValueError(
                f"reference states shape {reference_states.shape} != ({cfg.steps + 1}, {d})"
            )
        gaps = np.zeros(len(gens))

        def track(k, x):
            np.maximum(gaps, np.linalg.norm(x - reference_states[k], axis=1), out=gaps)

    kernel = chain_kernel(cfg, cfg.steps)
    endpoints = streams.lockstep(kernel, cfg.x0, gens, cfg.steps, on_step=track)[2]
    return EnsembleResult(endpoints=endpoints, sup_gaps=gaps)


def sgd_ensemble_chunk(
    cfg: SgdConfig, experiment: str, reference_states: np.ndarray | None, lo: int, hi: int
) -> EnsembleResult:
    """``run_sgd_ensemble`` over paths lo, ..., hi - 1: a ``scatter`` chunk."""
    return run_sgd_ensemble(
        cfg, hi - lo, experiment, path_indices=range(lo, hi), reference_states=reference_states
    )
