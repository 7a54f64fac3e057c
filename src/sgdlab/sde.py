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

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import streams
from .errors import check_count, check_finite, check_non_negative, check_point, check_positive
from .oracles import GradientOracle
from .potentials import (
    PotentialSpec,
    check_stacked_maps,
    diagonal_quadratic_coefficients,
    double_well_tilt,
)
from .sgd import SgdConfig, sgd_ensemble_chunk

FIRST_ORDER = "first"
SECOND_ORDER = "second"

# The most alive paths for which the double well's block stepper steps each
# path as a loop of Python floats rather than all paths as numpy rows.  A
# step of the in-place ufuncs costs about 1.6 us without a tilt and 2.0 us
# with one, whatever the paths, the float loop about 88 and 95 ns per path
# and step, so they cross at about 18 and 21 paths (numpy 2.4, one x86-64
# core).  The benchmark's exit-wide escape op ran equally fast at 16, 18,
# 20 and 24, and slower at 32.
SCALAR_PATHS = 20

Diffusion = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SdeConfig:
    """Configuration of one diffusion integration.

    ``diffusion`` is S(x): a scalar (isotropic S = sigma I), a constant
    matrix, or a map (..., d) -> (..., d, d) of a stack of states, checked
    at construction on probes next to ``x0``.  ``noise_schedule``
    optionally replaces the constant noise amplitude sqrt(eta) by a
    function of time, which is how the log-cooling schedule
    sqrt(gamma / log(2 + s)) is expressed.
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
        x0 = check_point("x0", self.x0)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        for name, value in (("eta", self.eta), ("dt", self.dt), ("T", self.T)):
            check_positive(name, value)
        if self.dt > self.T:
            raise ValueError(f"need dt <= T, got dt={self.dt}, T={self.T}")
        if self.drift_order not in (FIRST_ORDER, SECOND_ORDER):
            raise ValueError(f"unknown drift order {self.drift_order!r}")
        if x0.shape != (self.potential.dim,):
            raise ValueError(
                f"x0 shape {x0.shape} does not match dim {self.potential.dim}"
            )
        if callable(self.diffusion):
            check_stacked_maps([self.diffusion], "diffusion map", x0, radius=1e-3)
        else:
            check_finite("diffusion", self.diffusion)

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


def _step_count(span: float, h: float) -> int:
    """The number of steps of h that cover ``span``: ceil(span / h), with a
    span a rounding error past a whole number of steps taking no extra step."""
    return int(math.ceil(span / h - 1e-12))


def _time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ... whose last step is shortened to end at T."""
    return np.minimum(np.arange(_step_count(T, dt) + 1) * dt, T)


def _horizon_steps(T: float, eta: float) -> int:
    """The number k of eta steps with k eta = T; raises ``ValueError`` when T
    is not a whole number of steps, or either is not positive and finite."""
    for name, value in (("T", T), ("eta", eta)):
        check_positive(name, value)
    k = round(T / eta)
    if abs(T / eta - k) > 1e-9 * max(1, k):
        raise ValueError(f"horizon T={T} is not a whole number of steps of eta={eta}")
    return k


@functools.cache
def _linear_filter() -> Callable:
    """scipy's compiled ``_linear_filter(b, a, x, axis, zi)``, loaded from
    its extension file without importing any scipy package.

    ``find_spec`` locates scipy without running its ``__init__``, and the
    extension is loaded on its own; a single-phase extension enters itself
    in ``sys.modules``, which is undone unless it was there already.  If any
    step fails, ``scipy.signal.lfilter`` stands in: for a two-tap
    denominator it calls this same function on the same arguments, so
    either route gives the same bits.
    """
    name = "scipy.signal._sigtools"
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        paths = [
            os.path.join(root, "signal", "_sigtools" + suffix)
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next(p for p in paths if os.path.isfile(p))
        known = name in sys.modules
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        if not known:
            sys.modules.pop(name, None)
        return module._linear_filter
    except Exception:
        from scipy.signal import lfilter

        return lfilter


def _linear_block_step(c: np.ndarray) -> Callable[[np.ndarray, np.ndarray, int], np.ndarray]:
    """The kernel ``block_step`` of x_{k+1} = c x_k + noise_k, one factor
    per axis: one compiled linear filter (``_linear_filter``, scipy's
    ``lfilter`` without the import) per axis per ``streams.scan_slab``
    steps, which for a few alive paths is the whole block.  Every step is
    the same, so the block's first step index is not read.

    The filter's recursion y_k = noise_k + c y_{k-1}, started from
    zi = c x, is the loop ``x = c * x + noise`` bit for bit, so neither the
    block nor the slab cut changes a state.  The filter is fetched here, on
    the thread that builds the kernel, before any block is stepped.
    """
    linear_filter = _linear_filter()
    numerator = np.array([1.0])
    denominators = [np.array([1.0, -ca]) for ca in c]

    def block_step(x, buf, k0):
        step = streams.scan_slab(buf.shape)
        for j0 in range(0, len(buf), step):
            slab = buf[j0 : j0 + step]
            for a, ca in enumerate(c):
                zi = ca * x[None, :, a]
                slab[..., a] = linear_filter(numerator, denominators[a], slab[..., a], 0, zi)[0]
            x = slab[-1]
        return x.copy()

    return block_step


def _double_well_block_step(tilt: float, steps: float | np.ndarray) -> Callable:
    """The kernel ``block_step`` of the Euler step of a builtin double well,
    s -> (s - ((s*s*s - s) + tilt) h_k) + noise, through a whole block.

    ``steps`` is the step h_k of every step k: one float dt on the unbounded
    uniform grid, else the grid's array of steps, whose entries k0, ...,
    k1 - 1 a block reads as Python floats.  These are the IEEE operations of
    the per-step ``x - gradient(x) h_k + noise`` in the same order, so every
    state keeps its bits, overflow to inf and nan included (a Python float
    product overflows to inf without raising).  With no tilt the ``+ tilt``
    is left out, which changes no bit: s*s*s - s is never -0.0.  Above
    ``SCALAR_PATHS`` alive paths a step is six or seven in-place ufuncs on
    the states' column; at or below it each path runs as a loop of Python
    floats.  Either way the states go over the noise rows they used.
    """
    multiply, subtract, add = np.multiply, np.subtract, np.add
    if tilt == 0.0:

        def path(s, column, hs):
            return [s := (s - (s * s * s - s) * h) + z for z, h in zip(column, hs)]

    else:

        def path(s, column, hs):
            return [s := (s - ((s * s * s - s) + tilt) * h) + z for z, h in zip(column, hs)]

    def block_step(x, buf, k0):
        noise = buf[..., 0]  # (steps, paths)
        k1 = k0 + len(noise)
        hs = steps[k0:k1].tolist() if np.ndim(steps) else [steps] * (k1 - k0)
        if noise.shape[1] <= SCALAR_PATHS:
            for c, s in enumerate(x[:, 0].tolist()):
                noise[:, c] = path(s, noise[:, c].tolist(), hs)
        else:
            # ``out`` by position: as a keyword it costs about 0.3 us a step.
            s = x[:, 0]
            t = np.empty_like(s)
            for row, h in zip(noise, hs):
                multiply(s, s, t)
                multiply(t, s, t)
                subtract(t, s, t)
                if tilt != 0.0:
                    add(t, tilt, t)
                multiply(t, h, t)
                subtract(s, t, t)
                s = add(t, row, row)
        return buf[-1].copy()

    return block_step


def sde_kernel(cfg: SdeConfig, times: np.ndarray | None = None) -> streams.Kernel:
    """The ``streams.Kernel`` of Euler-Maruyama steps on the grid ``times``,
    or on the unbounded uniform grid k cfg.dt when ``times`` is None.

    A scalar or constant-matrix diffusion shapes the draws, and the
    ``step_scale(k0, k1)`` that ``streams.gaussian_kernel`` scales them by
    is amplitude(t_k) sqrt(h_k): one number on the unbounded grid without a
    noise schedule, one value per step otherwise.  On ``times`` it is
    tabulated once per kernel, one Python ``amplitude(t_k) *
    math.sqrt(h_k)`` per step, and each block slices the table; a schedule
    on the unbounded grid computes each block's steps the same way.  The
    table keeps ``math``'s scalar calls because numpy's vectorised ones may
    round differently: on the annealing grid (T = 500, dt = 0.02, 25,001
    times) ``np.log(2 + s)`` differs from ``math.log(2.0 + s)`` at 7 times
    and the cooling amplitude sqrt(0.4 / log(2 + s)) at 2 (numpy 2.4 on an
    AVX-512 x86-64 CPU), so a numpy table would move annealing's bits and
    make them depend on the CPU.  So the step only adds the drift; a
    state-dependent diffusion is evaluated inside the step, one call on the
    whole stack of states, as the stacked product S(x) xi.

    The kernel has a ``block_step`` only under first-order drift with a
    scalar or constant-matrix diffusion, with or without a noise schedule,
    and only for two builtin families, recognised by their bound Hessians:
    - a diagonal quadratic (``potentials.diagonal_quadratic_coefficients``),
      on the uniform grid only: each axis's step x -> (1 - q dt) x + noise
      runs through a whole noise block as one compiled recursion, whose
      states can differ from the step's x - (q x) dt + noise in the last
      bit.  The recursion releases the GIL, so ``lockstep`` runs it on each
      thread's half of a split block;
    - a double well (``potentials.double_well_tilt``), on the uniform grid
      and on any ``times``: the cubic step runs through the block with the
      per-step operations in their order and each step's own h_k, so no bit
      moves (``_double_well_block_step``).  It holds the GIL, so
      ``lockstep`` runs it once on the whole block, on the calling thread.
    """
    if times is None:
        dt = cfg.dt
        time_of, step_of = (lambda k: k * dt), (lambda k: dt)
    else:
        steps = np.diff(times)
        time_of, step_of = times.tolist().__getitem__, steps.tolist().__getitem__
    diffusion = cfg.diffusion
    drift = cfg.drift
    d = cfg.x0.size
    if callable(diffusion):

        def step_fn(x, xi, k):
            h = step_of(k)
            noise = (np.asarray(diffusion(x), dtype=float) @ xi[..., None])[..., 0]
            return x + drift(x) * h + cfg.amplitude(time_of(k)) * math.sqrt(h) * noise

        return streams.gaussian_kernel(step_fn, d)

    scale_of = lambda k: cfg.amplitude(time_of(k)) * math.sqrt(step_of(k))  # noqa: E731
    if times is not None:
        table = np.array([scale_of(k) for k in range(steps.size)])
        step_scale = lambda k0, k1: table[k0:k1]  # noqa: E731
    elif cfg.noise_schedule is not None:
        step_scale = lambda k0, k1: np.array([scale_of(k) for k in range(k0, k1)])  # noqa: E731
    else:
        scale = scale_of(0)
        step_scale = lambda k0, k1: scale  # noqa: E731

    block_step, releases_gil = None, False
    if cfg.drift_order == FIRST_ORDER:
        gradient = cfg.potential.gradient

        # x + (-g) h + noise in the same bits, since IEEE negation is exact,
        # without the drift call and the negated copy of g.
        def step_fn(x, noise, k):
            return x - np.asarray(gradient(x), dtype=float) * step_of(k) + noise

        q = diagonal_quadratic_coefficients(cfg.potential)
        tilt = double_well_tilt(cfg.potential)
        if times is None and q is not None:
            block_step, releases_gil = _linear_block_step(1.0 - q * dt), True
        elif tilt is not None:
            block_step = _double_well_block_step(tilt, float(dt) if times is None else steps)

    else:

        def step_fn(x, noise, k):
            return x + drift(x) * step_of(k) + noise

    kernel = streams.gaussian_kernel(step_fn, d, diffusion, step_scale, block_step)
    return kernel._replace(block_step_releases_gil=releases_gil)


def em_endpoints(
    cfg: SdeConfig, n_paths: int | range, experiment: str = "sde-ensemble"
) -> np.ndarray:
    """Endpoint states X(T) of many paths with private per-path streams.

    ``n_paths`` is a count n (paths 0, ..., n - 1) or a ``range`` of path
    indices; path i draws from the stream (``cfg.seed``, ``experiment``, i).
    One ``streams.lockstep`` runs the paths in groups, so the run holds its
    endpoints and one group's streams and noise, within
    ``streams.GROUP_BYTES``, whatever ``n_paths``.
    """
    indices = n_paths if isinstance(n_paths, range) else range(check_count("n_paths", n_paths))
    times = _time_grid(cfg.T, cfg.dt)
    kernel = sde_kernel(cfg, times)
    return streams.lockstep(kernel, cfg.x0, cfg.seed, experiment, indices, times.size - 1)[2]


def em_endpoints_chunk(cfg: SdeConfig, experiment: str, lo: int, hi: int) -> np.ndarray:
    """``em_endpoints`` over paths lo, ..., hi - 1: a ``scatter`` chunk."""
    return em_endpoints(cfg, range(lo, hi), experiment)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck closed forms: dX = -lam X ds + sqrt(eta_sigma2) dB.
# ---------------------------------------------------------------------------


def ou_moments(lam: float, eta_sigma2: float, x0: float, t: float) -> tuple[float, float]:
    """Exact mean and variance of the OU process at time t."""
    check_positive("lam", lam)
    check_non_negative("eta_sigma2", eta_sigma2)
    check_non_negative("t", t)
    check_finite("x0", x0)
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
    x0 = check_point("x0", x0)
    f = lambda y: -np.asarray(potential.gradient(y), dtype=float)
    h = check_positive("eta", eta) / substeps
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
) -> np.ndarray:
    """Covariance C(t) of the rescaled SGD fluctuations around the flow.

    Solves the joint system dY = -grad F(Y), dC = M C + C M^T + S S^T with
    M = -hessian F(Y) and C(0) = 0 by RK4 on the pair (Y, C) with steps of
    at most 1e-3, returning C at each requested time.  A constant S has its
    S S^T formed once.
    """
    x0 = check_point("x0", x0)
    t_grid = check_point("t_grid", t_grid)
    if not callable(diffusion):
        check_finite("diffusion", diffusion)
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be non-negative and strictly increasing")
    d = x0.size

    if callable(diffusion):

        def gram(y: np.ndarray) -> np.ndarray:
            s = np.asarray(diffusion(y), dtype=float)
            return s @ s.T

    else:
        s = np.asarray(diffusion, dtype=float)
        s = s * np.eye(d) if s.ndim == 0 else s
        constant = s @ s.T
        gram = lambda y: constant  # noqa: E731

    def rhs(y: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = np.asarray(potential.gradient(y), dtype=float)
        m = -np.asarray(potential.hessian(y), dtype=float)
        return -g, m @ c + c @ m.T + gram(y)

    # The same elementwise arithmetic as RK4 on the concatenated vector,
    # without joining and splitting one per stage.
    y, c = x0, np.zeros((d, d))
    out = np.empty((t_grid.size, d, d))
    t = 0.0
    for j, target in enumerate(t_grid):
        span = target - t
        if span > 0:
            n = _step_count(span, 1e-3)
            h = span / n
            for _ in range(n):
                ky1, kc1 = rhs(y, c)
                ky2, kc2 = rhs(y + 0.5 * h * ky1, c + 0.5 * h * kc1)
                ky3, kc3 = rhs(y + 0.5 * h * ky2, c + 0.5 * h * kc2)
                ky4, kc4 = rhs(y + h * ky3, c + h * kc3)
                y = y + (h / 6.0) * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)
                c = c + (h / 6.0) * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4)
        t = target
        out[j] = c
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
    scatter: Callable[..., list] = streams.in_process,
) -> DeviationReport:
    """Monte Carlo check of the normal-deviation covariance at time T.

    The Lyapunov side integrates ``oracle.diffusion`` along the flow, so a
    state-dependent noise law (any mini-batch oracle) is read at Y(s), not
    frozen at x0.  The SGD ensemble runs through ``scatter`` (see
    ``streams``).
    """
    check_count("n_paths", n_paths, 2, " for a sample variance")
    k = _horizon_steps(T, eta)
    x0 = check_point("x0", x0)
    cfg = SgdConfig(eta=eta, steps=k, x0=x0, oracle=oracle, seed=seed)
    parts = scatter(sgd_ensemble_chunk, n_paths, cfg, "deviation", None)
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
    check_count("n_paths", n_paths, 2, " for a sample variance")
    k = _horizon_steps(T, eta)
    x0 = check_point("x0", x0)
    reference = flow_knots(potential, x0, eta, k)
    cfg = SgdConfig(eta=eta, steps=k, x0=x0, oracle=oracle, seed=seed)
    parts = scatter(sgd_ensemble_chunk, n_paths, cfg, experiment, reference)
    gaps = np.concatenate([part.sup_gaps for part in parts])
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(gaps.size))
