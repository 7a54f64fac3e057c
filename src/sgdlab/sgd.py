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
    evaluated inside the step, one call on the stack of live rows (see
    ``_live_rows``; the others take no noise), and each row takes the
    product S(x_i) @ xi_i that ``oracle.sample`` takes.
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
        rows = _live_rows(x, domain)
        if rows.size:
            noise[rows] = (diffusion(x[rows]) @ xi[rows, :, None])[..., 0]
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
    n_paths: int | range,
    experiment: str = "sgd-ensemble",
    reference_states: np.ndarray | None = None,
) -> EnsembleResult:
    """Simulate many SGD paths with private streams; return endpoints.

    ``n_paths`` is a count n (paths 0, ..., n - 1) or a ``range`` of path
    indices; path i draws from the stream (``cfg.seed``, ``experiment``, i).
    ``reference_states`` of shape (steps + 1, dim) activates tracking of
    max_k ||x_k - ref_k|| per path, used to compare the chain against its
    deterministic gradient-flow limit.  Every oracle is stepped on
    ``streams.lockstep`` through ``chain_kernel``, with the draws ``run_sgd``
    takes from each path's stream, by ``streams.lockstep_groups``.  So an
    additive-Gaussian chain without ``reference_states`` runs in groups and
    holds its endpoints and one group's streams and noise, within
    ``streams.GROUP_BYTES``; a tracked run, whose sup-gaps see every path
    at every step, and a mini-batch chain run as one group, within the
    block cap ``streams.NOISE_BLOCK_BYTES`` and one stream per path.
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

        def track(k0, states):
            # A slab of steps at a time bounds the temporaries, as the exit
            # scan does; the max over steps then over slabs is exact.
            slab = streams.scan_slab(states.shape)
            for j0 in range(0, len(states), slab):
                part = states[j0 : j0 + slab]
                ref = reference_states[k0 + j0 + 1 : k0 + j0 + 1 + len(part), None]
                np.maximum(gaps, np.linalg.norm(part - ref, axis=2).max(axis=0), out=gaps)

    kernel = chain_kernel(cfg, cfg.steps)
    endpoints = streams.lockstep_groups(
        kernel, cfg.x0, cfg.seed, experiment, indices, cfg.steps, track
    )
    return EnsembleResult(endpoints=endpoints, sup_gaps=gaps)


def sgd_ensemble_chunk(
    cfg: SgdConfig, experiment: str, reference_states: np.ndarray | None, lo: int, hi: int
) -> EnsembleResult:
    """``run_sgd_ensemble`` over paths lo, ..., hi - 1: a ``scatter`` chunk."""
    return run_sgd_ensemble(cfg, range(lo, hi), experiment, reference_states)
