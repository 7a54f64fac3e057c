"""Continuous-time companions of the SGD chain.

This module integrates the diffusion approximations

    dX = b(X) ds + sqrt(eta) * S(X) dB,

with first-order drift b = -grad F or second-order drift
b = -grad F - (eta/4) grad |grad F|^2, the noiseless gradient flow
dY = -grad F(Y) ds, and the Lyapunov equation governing the covariance of
the rescaled fluctuations zeta = (x_sgd - Y) / sqrt(eta),

    dC/ds = M C + C M^T + S S^T,   M(s) = -hessian F(Y(s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.signal import lfilter

from . import streams
from .oracles import GradientOracle
from .potentials import PotentialSpec, diagonal_quadratic_coefficients
from .sgd import SgdConfig, sgd_ensemble_chunk

FIRST_ORDER = "first"
SECOND_ORDER = "second"

Diffusion = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SdeConfig:
    """Configuration of one diffusion integration.

    ``diffusion`` is S(x): a scalar (isotropic S = sigma I), a constant
    matrix, or a map x -> matrix.  ``noise_schedule`` optionally replaces
    the constant noise amplitude sqrt(eta) by a function of time, which is
    how the log-cooling schedule sqrt(gamma / log(2 + s)) is expressed.
    """

    potential: PotentialSpec
    eta: float
    dt: float
    T: float
    x0: np.ndarray
    diffusion: Diffusion = 1.0
    drift_order: str = FIRST_ORDER
    seed: int = 0
    noise_schedule: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (0 < self.dt <= self.T):
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if self.drift_order not in (FIRST_ORDER, SECOND_ORDER):
            raise ValueError(f"unknown drift order {self.drift_order!r}")
        if x0.shape != (self.potential.dim,):
            raise ValueError(
                f"x0 shape {x0.shape} does not match dim {self.potential.dim}"
            )

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Drift field, vectorized over a leading batch axis."""
        g = np.asarray(self.potential.gradient(x), dtype=float)
        if self.drift_order == FIRST_ORDER:
            return -g
        h = np.asarray(self.potential.hessian(x), dtype=float)
        correction = np.einsum("...ij,...j->...i", h, g)
        return -g - 0.5 * self.eta * correction

    def amplitude(self, s: float) -> float:
        """Noise amplitude multiplying S(x) dB at time s."""
        if self.noise_schedule is not None:
            return float(self.noise_schedule(s))
        return math.sqrt(self.eta)


def apply_diffusion(diffusion: Diffusion, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """S(x) xi for batched states x (n, d) and draws xi (n, d)."""
    if callable(diffusion):
        return np.stack([np.asarray(diffusion(xr), dtype=float) @ xir for xr, xir in zip(x, xi)])
    if np.ndim(diffusion) == 0:
        return float(diffusion) * xi
    s = np.asarray(diffusion, dtype=float)
    return xi @ s.T


def _time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ... whose last step is shortened to end at T."""
    n_steps = int(math.ceil(T / dt - 1e-12))
    return np.minimum(np.arange(n_steps + 1) * dt, T)


def _horizon_steps(T: float, eta: float) -> int:
    """The number k of eta steps with k eta = T; raises ``ValueError`` when T
    is not a whole number of steps."""
    k = round(T / eta)
    if abs(T / eta - k) > 1e-9 * max(1, k):
        raise ValueError(f"horizon T={T} is not a whole number of steps of eta={eta}")
    return k


def _linear_block_step(c: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The kernel ``block_step`` of x_{k+1} = c x_k + noise_k, one factor
    per axis: one ``lfilter`` per axis per ``streams.scan_slab`` steps,
    which for a few alive paths is the whole block.

    The filter's recursion y_k = noise_k + c y_{k-1}, started from
    zi = c x, is the loop ``x = c * x + noise`` bit for bit, so neither the
    block nor the slab cut changes a state.
    """

    def block_step(x, buf):
        step = streams.scan_slab(buf.shape)
        for j0 in range(0, len(buf), step):
            slab = buf[j0 : j0 + step]
            for a, ca in enumerate(c):
                zi = ca * x[None, :, a]
                slab[..., a] = lfilter([1.0], [1.0, -ca], slab[..., a], axis=0, zi=zi)[0]
            x = slab[-1]
        return x.copy()

    return block_step


def sde_kernel(cfg: SdeConfig, times: np.ndarray | None = None) -> streams.Kernel:
    """The ``streams.Kernel`` of Euler-Maruyama steps on the grid ``times``,
    or on the unbounded uniform grid k cfg.dt when ``times`` is None.

    A scalar or constant-matrix diffusion shapes the draws
    (``streams.gaussian_kernel``), and the kernel's ``step_scale(k0, k1)``
    is amplitude(t_k) sqrt(h_k): one number on the uniform grid without a
    noise schedule, one value per step otherwise.  So the step only adds
    the drift; a state-dependent diffusion is evaluated inside the step.

    The kernel has a ``block_step`` only under first-order drift on the
    uniform grid of a builtin diagonal quadratic
    (``potentials.diagonal_quadratic_coefficients``) with a scalar or
    constant-matrix diffusion, with or without a noise schedule.  It runs
    each axis's step x -> (1 - q dt) x + noise through a whole noise block
    as one compiled recursion, whose states can differ from the step's
    x - (q x) dt + noise in the last bit.
    """
    if times is None:
        dt = cfg.dt
        time_of, step_of = (lambda k: k * dt), (lambda k: dt)
    else:
        steps = np.diff(times)
        time_of, step_of = times.__getitem__, steps.__getitem__
    diffusion = cfg.diffusion
    drift = cfg.drift
    d = cfg.x0.size
    if callable(diffusion):

        def step_fn(x, xi, k):
            h = step_of(k)
            return (
                x
                + drift(x) * h
                + cfg.amplitude(time_of(k)) * math.sqrt(h) * apply_diffusion(diffusion, x, xi)
            )

        return streams.gaussian_kernel(step_fn, d)

    root_eta = math.sqrt(cfg.eta)
    if cfg.noise_schedule is not None:
        scale_of = lambda k: cfg.amplitude(time_of(k)) * math.sqrt(step_of(k))  # noqa: E731
        step_scale = lambda k0, k1: np.array([scale_of(k) for k in range(k0, k1)])  # noqa: E731
    elif times is None:
        scale = root_eta * math.sqrt(dt)
        step_scale = lambda k0, k1: scale  # noqa: E731
    else:
        step_scale = lambda k0, k1: root_eta * np.sqrt(steps[k0:k1])  # noqa: E731

    block_step = None
    if cfg.drift_order == FIRST_ORDER:
        gradient = cfg.potential.gradient

        # x + (-g) h + noise in the same bits, since IEEE negation is exact,
        # without the drift call and the negated copy of g.
        def step_fn(x, noise, k):
            return x - np.asarray(gradient(x), dtype=float) * step_of(k) + noise

        q = diagonal_quadratic_coefficients(cfg.potential)
        if times is None and q is not None:
            block_step = _linear_block_step(1.0 - q * dt)

    else:

        def step_fn(x, noise, k):
            return x + drift(x) * step_of(k) + noise

    return streams.gaussian_kernel(step_fn, d, diffusion, step_scale, block_step)


def em_on_grid(
    cfg: SdeConfig,
    times: np.ndarray,
    gens: list[np.random.Generator],
    block: int = 1024,
    on_step: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Final states of Euler-Maruyama paths, one per generator, on ``times``.

    ``block`` and ``on_step`` are passed to ``streams.lockstep``.
    """
    kernel = sde_kernel(cfg, times)
    return streams.lockstep(kernel, cfg.x0, gens, times.size - 1, block=block, on_step=on_step)[2]


def em_endpoints(
    cfg: SdeConfig,
    n_paths: int,
    experiment: str = "sde-ensemble",
    path_indices: range | None = None,
) -> np.ndarray:
    """Endpoint states X(T) of many paths with private per-path streams."""
    indices = path_indices if path_indices is not None else range(n_paths)
    gens = streams.path_streams(cfg.seed, experiment, indices)
    return em_on_grid(cfg, _time_grid(cfg.T, cfg.dt), gens)


def em_endpoints_chunk(cfg: SdeConfig, experiment: str, lo: int, hi: int) -> np.ndarray:
    """``em_endpoints`` over paths lo, ..., hi - 1: a ``scatter`` chunk."""
    return em_endpoints(cfg, hi - lo, experiment=experiment, path_indices=range(lo, hi))


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck closed forms: dX = -lam X ds + sqrt(eta_sigma2) dB.
# ---------------------------------------------------------------------------


def ou_moments(lam: float, eta_sigma2: float, x0: float, t: float) -> tuple[float, float]:
    """Exact mean and variance of the OU process at time t."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    mean = x0 * math.exp(-lam * t)
    var = eta_sigma2 / (2.0 * lam) * (1.0 - math.exp(-2.0 * lam * t))
    return mean, var


# ---------------------------------------------------------------------------
# Noiseless gradient flow (classical fourth-order Runge-Kutta).
# ---------------------------------------------------------------------------


def _rk4_step(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_knots(
    potential: PotentialSpec, x0, eta: float, n_knots: int, substeps: int = 10
) -> np.ndarray:
    """Gradient-flow states at the SGD knot times 0, eta, ..., n_knots*eta."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    f = lambda y: -np.asarray(potential.gradient(y), dtype=float)
    h = eta / substeps
    out = np.empty((n_knots + 1, x0.size))
    out[0] = x0
    y = x0.copy()
    for k in range(n_knots):
        for _ in range(substeps):
            y = _rk4_step(f, y, h)
        out[k + 1] = y
    return out


# ---------------------------------------------------------------------------
# Normal deviations: Lyapunov covariance and its empirical counterpart.
# ---------------------------------------------------------------------------


def deviation_covariance(
    potential: PotentialSpec,
    x0,
    t_grid,
    diffusion: Diffusion,
    dt: float = 1e-3,
) -> np.ndarray:
    """Covariance C(t) of the rescaled SGD fluctuations around the flow.

    Solves the joint system dY = -grad F(Y), dC = M C + C M^T + S S^T with
    M = -hessian F(Y) and C(0) = 0, returning C at each requested time.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be non-negative and strictly increasing")
    d = x0.size

    def s_matrix(y: np.ndarray) -> np.ndarray:
        if callable(diffusion):
            return np.asarray(diffusion(y), dtype=float)
        if np.ndim(diffusion) == 0:
            return float(diffusion) * np.eye(d)
        return np.asarray(diffusion, dtype=float)

    def rhs(state: np.ndarray) -> np.ndarray:
        y, c = state[:d], state[d:].reshape(d, d)
        g = np.asarray(potential.gradient(y), dtype=float)
        m = -np.asarray(potential.hessian(y), dtype=float)
        s = s_matrix(y)
        dc = m @ c + c @ m.T + s @ s.T
        return np.concatenate([-g, dc.ravel()])

    state = np.concatenate([x0, np.zeros(d * d)])
    out = np.empty((t_grid.size, d, d))
    t = 0.0
    for j, target in enumerate(t_grid):
        span = target - t
        if span > 0:
            n = int(math.ceil(span / dt - 1e-12))
            h = span / n
            for _ in range(n):
                state = _rk4_step(rhs, state, h)
        t = target
        out[j] = state[d:].reshape(d, d)
    return out


@dataclass(frozen=True)
class DeviationReport:
    """Empirical law of (x_sgd(T) - Y(T)) / sqrt(eta) against its Gaussian limit."""

    t: float
    eta: float
    n_paths: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    lyapunov_cov: np.ndarray
    rel_frobenius_err: float


def deviation_empirical(
    potential: PotentialSpec,
    oracle: GradientOracle,
    eta: float,
    T: float,
    x0,
    n_paths: int,
    seed: int = 0,
    experiment: str = "deviation",
    scatter: Callable[..., list] = streams.in_process,
) -> DeviationReport:
    """Monte Carlo check of the normal-deviation covariance at time T.

    The Lyapunov side integrates ``oracle.diffusion`` along the flow, so a
    state-dependent noise law (any mini-batch oracle) is read at Y(s), not
    frozen at x0.  The SGD ensemble runs through ``scatter`` (see
    ``streams``).
    """
    k = _horizon_steps(T, eta)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    cfg = SgdConfig(eta=eta, steps=k, x0=x0, oracle=oracle, seed=seed)
    parts = scatter(sgd_ensemble_chunk, n_paths, cfg, experiment, None)
    endpoints = np.concatenate([part.endpoints for part in parts])
    y_final = flow_knots(potential, x0, eta, k)[-1]
    zeta = (endpoints - y_final) / math.sqrt(eta)
    emp_mean = zeta.mean(axis=0)
    emp_cov = np.atleast_2d(np.cov(zeta.T, ddof=1))
    lyap = deviation_covariance(potential, x0, [T], oracle.diffusion)[-1]
    rel = float(np.linalg.norm(emp_cov - lyap) / max(np.linalg.norm(lyap), 1e-300))
    return DeviationReport(
        t=T,
        eta=eta,
        n_paths=zeta.shape[0],
        empirical_mean=emp_mean,
        empirical_cov=emp_cov,
        lyapunov_cov=lyap,
        rel_frobenius_err=rel,
    )


def flow_sup_gap(
    potential: PotentialSpec,
    oracle: GradientOracle,
    eta: float,
    T: float,
    x0,
    n_paths: int,
    seed: int = 0,
    experiment: str = "ode-limit",
    scatter: Callable[..., list] = streams.in_process,
) -> tuple[float, float]:
    """Mean and standard error of max_k ||x_k - Y(eta k)|| over an ensemble.

    The SGD ensemble runs through ``scatter`` (see ``streams``).
    """
    k = _horizon_steps(T, eta)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    reference = flow_knots(potential, x0, eta, k)
    cfg = SgdConfig(eta=eta, steps=k, x0=x0, oracle=oracle, seed=seed)
    parts = scatter(sgd_ensemble_chunk, n_paths, cfg, experiment, reference)
    gaps = np.concatenate([part.sup_gaps for part in parts])
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(gaps.size))
