"""First-exit times of the SGD chain and its diffusion approximation.

Provides Monte Carlo hitting times with censoring, an exact 1-D mean-exit
oracle (the boundary-value problem (eta sigma^2 / 2) u'' - F' u' = -1 solved
by double quadrature in log space), the isotropic quasi-potential
(2/sigma^2) * inf_boundary (F - F(x*)), an Eyring-Kramers style predictor,
scaling fits for escape from minimizers (eta * log E[T] -> quasi-potential)
and from unstable points (E[T] / log(1/eta) -> 1/(2 gamma1)), and a
simulated-annealing experiment with the log-cooling noise schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import streams
from .errors import (
    NumericalError, check_count, check_dimension, check_finite, check_non_negative, check_point,
    check_positive,
)
from .potentials import PotentialSpec
from .sde import (
    FIRST_ORDER, SdeConfig, _rk4_step, _step_count, _time_grid, sde_kernel,
)
from .sgd import SgdConfig, chain_kernel

TRANSFORM_ETA_LOG_T = "eta_log_T"
TRANSFORM_T_OVER_LOG = "T_over_log_inv_eta"

#: The change in log u at which the mean-exit quadrature stops doubling.
BVP_RTOL = 1e-6


# ---------------------------------------------------------------------------
# Domains.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A bounded open domain; exit means leaving its closure.  The
    constructors refuse a non-finite bound, centre or radius.  ``dim`` is 1
    for an interval, the centre's size for a ball and the bounds' for a box;
    ``hitting_time_mc`` and ``flow_exit_time`` refuse a start point of any
    other size."""

    kind: str  # "interval" | "ball" | "box"
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Domain":
        check_finite("interval bounds", [lo, hi])
        if not lo < hi:
            raise ValueError(f"interval needs lo < hi, got ({lo}, {hi})")
        return cls(kind="interval", lo=np.array([float(lo)]), hi=np.array([float(hi)]))

    @classmethod
    def ball(cls, center, radius: float) -> "Domain":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        check_finite("ball center and radius", [*center, radius])
        check_positive("ball radius", radius)
        return cls(kind="ball", center=center, radius=float(radius))

    @classmethod
    def box(cls, lo, hi) -> "Domain":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        check_finite("box bounds", [*lo, *hi])
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box needs lo < hi componentwise")
        return cls(kind="box", lo=lo, hi=hi)

    @property
    def dim(self) -> int:
        """The dimension of the space the domain lies in: 1 for an interval."""
        return self.center.size if self.kind == "ball" else self.lo.size

    def contains(self, x) -> np.ndarray:
        """Membership in the closed domain; vectorized over a leading axis."""
        x = np.asarray(x, dtype=float)
        if self.kind == "interval":
            s = x[..., 0]
            return (s >= self.lo[0]) & (s <= self.hi[0])
        if self.kind == "ball":
            # A running sum in axis order: np.sum's bits for d <= 7, where
            # numpy adds in order too, without a (..., d) temporary.
            diff = x[..., 0] - self.center[0]
            r2 = diff * diff
            for k in range(1, self.center.size):
                diff = x[..., k] - self.center[k]
                r2 += diff * diff
            return r2 <= self.radius**2
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)

    def strictly_inside(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "interval":
            return bool(self.lo[0] < x[0] < self.hi[0])
        if self.kind == "ball":
            return bool(np.linalg.norm(x - self.center) < self.radius)
        return bool(np.all((x > self.lo) & (x < self.hi)))


# ---------------------------------------------------------------------------
# Monte Carlo first exits.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExitRecord:
    """Outcome of one first-exit simulation (censored at the horizon)."""

    path_index: int
    exit_time: float
    exit_steps: float  # exit_time / eta, the chain-step count scale; a chain's exact count
    exit_point: np.ndarray
    censored: bool


@dataclass(frozen=True)
class ExitStats:
    mean: float
    stderr: float
    censor_frac: float
    n_used: int


def exit_time_stats(records: Sequence[ExitRecord]) -> ExitStats:
    """Mean exit time over non-censored records, with standard error."""
    times = np.array([r.exit_time for r in records if not r.censored])
    n_total = len(records)
    if times.size == 0:
        raise ValueError("all paths were censored; cannot estimate a mean exit time")
    stderr = float(times.std(ddof=1) / math.sqrt(times.size)) if times.size > 1 else 0.0
    return ExitStats(
        mean=float(times.mean()),
        stderr=stderr,
        censor_frac=float(1.0 - times.size / n_total),
        n_used=int(times.size),
    )


def hitting_time_mc(
    process: Union[SdeConfig, SgdConfig],
    domain: Domain,
    n_paths: int | range,
    horizon: float,
    experiment: str = "first-exit",
) -> list[ExitRecord]:
    """First-exit Monte Carlo for a diffusion or an SGD chain.

    ``n_paths`` is a count n (paths 0, ..., n - 1) or a ``range`` of path
    indices, and path i draws from the stream (``process.seed``,
    ``experiment``, i).  Exit is the first step whose state lies outside the
    closed domain; the recorded exit point is that first outside state.
    Paths still inside at the horizon are returned censored with exit_time =
    horizon.  Records are returned in path-index order.  Each path is
    stepped in windows of ``streams.BLOCK_STEPS`` steps, and the alive paths
    of a window in chunks within ``streams.GROUP_BYTES``; windows and chunks
    set memory and speed, never the records.  A mini-batch path draws one
    batch per step up to its exit, as ``run_sgd`` would.
    """
    chain = isinstance(process, SgdConfig)
    if not chain and not isinstance(process, SdeConfig):
        raise TypeError(f"unsupported process type {type(process).__name__}")
    x0 = check_dimension("x0", process.x0, domain.dim)
    if not domain.strictly_inside(x0):
        raise ValueError(f"start point {x0} is not strictly inside the domain")
    check_positive("horizon", horizon)
    indices = n_paths if isinstance(n_paths, range) else range(check_count("n_paths", n_paths))

    eta = process.eta
    time_per_step = eta if chain else process.dt
    max_steps = _step_count(horizon, time_per_step)
    kernel = chain_kernel(process, domain) if chain else sde_kernel(process, domain=domain)
    exit_step, exit_points, states = streams.lockstep(
        kernel, x0, process.seed, experiment, indices, max_steps, domain=domain
    )
    records = []
    for pos, idx in enumerate(indices):
        censored = bool(exit_step[pos] < 0)
        t_exit = horizon if censored else float(exit_step[pos] * time_per_step)
        point = states[pos] if censored else exit_points[pos]
        # A chain's exit is counted in its own steps, exactly.
        steps = float(exit_step[pos]) if chain and not censored else t_exit / eta
        records.append(ExitRecord(idx, t_exit, steps, point.copy(), censored))
    return records


def hitting_time_chunk(
    rungs: Sequence[tuple[SdeConfig, str]], domain: Domain, lo: int, hi: int
) -> list[list[ExitRecord]]:
    """Cells lo, ..., hi - 1 of an exit ladder: a ``scatter`` chunk.

    ``rungs`` holds one ``(process, experiment label)`` per rung, run to the
    horizon ``process.T``, and cell i is path i // len(rungs) of rung
    i % len(rungs), so a chunk holds a contiguous range of paths of every
    rung.  Each rung's part of the chunk is one ``hitting_time_mc`` call;
    returns one record list per rung, each in path order.
    """
    n_rungs = len(rungs)
    records = []
    for r, (process, label) in enumerate(rungs):
        # The paths p with lo <= p * n_rungs + r < hi.
        paths = range(-(-(lo - r) // n_rungs), -(-(hi - r) // n_rungs))
        records.append(hitting_time_mc(process, domain, paths, process.T, experiment=label))
    return records


# ---------------------------------------------------------------------------
# Exact 1-D mean exit time (double quadrature in log space).
# ---------------------------------------------------------------------------


def _as_1d_value_fn(potential) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(potential, PotentialSpec):
        if potential.dim != 1:
            raise ValueError("the mean-exit oracle is one-dimensional")
        return lambda grid: np.asarray(potential.value(grid[:, None]), dtype=float)
    return lambda grid: np.asarray(potential(grid), dtype=float)


def _grid_with_point(lo: float, hi: float, x: float, n: int) -> tuple[np.ndarray, int]:
    frac = (x - lo) / (hi - lo)
    n_left = min(max(int(round(frac * n)), 1), n - 1)
    left = np.linspace(lo, x, n_left + 1)
    right = np.linspace(x, hi, (n - n_left) + 1)
    return np.concatenate([left, right[1:]]), n_left


def _log_sinhc(u: np.ndarray) -> np.ndarray:
    """log(sinh(u)/u) for u >= 0, stable from 0 to very large u."""
    out = np.empty_like(u)
    small = u < 1e-4
    us = u[small]
    out[small] = np.log1p(us * us / 6.0 * (1.0 + us * us / 20.0))
    ub = u[~small]
    out[~small] = ub + np.log(-np.expm1(-2.0 * ub)) - np.log(2.0 * ub)
    return out


def _log_cumtrapz(log_f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """log of the cumulative integral of exp(log_f) from the left end.

    Each segment uses the exponentially fitted rule (log_f interpolated
    linearly, i.e. the integrand treated as one exponential per segment):
    exact for boundary layers exp(c y / eps) of any steepness, second-order
    in the curvature of log_f otherwise.  Segments touching a -inf endpoint
    (a vanishing integrand) fall back to the plain trapezoid value.
    """
    lf0, lf1 = log_f[:-1], log_f[1:]
    fit = np.isfinite(lf0) & np.isfinite(lf1)
    delta = np.where(fit, lf1 - lf0, 0.0)
    seg = np.where(
        fit,
        0.5 * (lf0 + lf1) + _log_sinhc(0.5 * np.abs(delta)),
        np.logaddexp(lf0, lf1) - math.log(2.0),
    ) + np.log(h)
    out = np.empty(log_f.size)
    out[0] = -np.inf
    out[1:] = np.logaddexp.accumulate(seg)
    return out


def _log_cumtrapz_rev(log_f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """log of the cumulative trapezoid integral of exp(log_f) from the right end."""
    return _log_cumtrapz(log_f[::-1], h[::-1])[::-1]


def log_mean_exit_bvp_1d(
    potential,
    eta_sigma2: float,
    interval: tuple[float, float],
    x: float,
) -> float:
    """log of the mean exit time u(x); see mean_exit_bvp_1d.

    u solves (eps/2) u'' - F' u' = -1 with u = 0 at both ends, where
    eps = eta sigma^2.  With scale density s = exp(2F/eps) and speed density
    m = exp(-2F/eps)/eps the solution is the two-sided Green's-function sum

        u(x) = 2 [ S(x,r)/S(l,r) * int_l^x S(l,y) m(y) dy
                 + S(l,x)/S(l,r) * int_x^r S(y,r) m(y) dy ],

    with S(a,b) = int_a^b s.  Both terms are positive, so the quadrature is
    free of cancellation even when the drift points outward and u is tiny
    compared with the individual scale/speed integrals.  Every integral is
    accumulated in log space, so barriers with 2 dF/eps in the thousands
    cannot overflow.  The grid is doubled until log u is stable to
    ``BVP_RTOL`` (which bounds the relative error of u itself).
    """
    lo, hi = float(interval[0]), float(interval[1])
    check_finite("interval bounds", [lo, hi])
    if not lo < x < hi:
        raise ValueError(f"x={x} must lie strictly inside ({lo}, {hi})")
    check_positive("eta*sigma^2", eta_sigma2)
    value = _as_1d_value_fn(potential)
    eps = float(eta_sigma2)

    def evaluate(n: int) -> float:
        grid, ix = _grid_with_point(lo, hi, x, n)
        h = np.diff(grid)
        g = 2.0 * value(grid) / eps  # log scale density
        log_m = -g - math.log(eps)  # log speed density
        log_a = _log_cumtrapz(g, h)  # log S(l, y)
        log_a_rev = _log_cumtrapz_rev(g, h)  # log S(y, r)
        log_i1 = _log_cumtrapz(log_a + log_m, h)[ix]
        log_i2 = _log_cumtrapz_rev(log_a_rev + log_m, h)[ix]
        log_total = log_a[-1]
        t1 = log_a_rev[ix] - log_total + log_i1
        t2 = log_a[ix] - log_total + log_i2
        return math.log(2.0) + np.logaddexp(t1, t2)

    n = 512
    prev = evaluate(n)
    for _ in range(14):
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) <= BVP_RTOL:
            return cur
        prev = cur
    raise NumericalError(
        f"mean-exit quadrature did not reach rtol={BVP_RTOL} by n={n} grid points"
    )


def mean_exit_bvp_1d(
    potential,
    eta_sigma2: float,
    interval: tuple[float, float],
    x: float,
) -> float:
    """Mean exit time u(x) from an interval, solving the exact two-point ODE.

    u solves (eps/2) u'' - F' u' = -1 with u = 0 at both ends, eps = eta
    sigma^2.  Computed via log_mean_exit_bvp_1d; raises NumericalError if the
    value itself overflows a float (use the log form for such regimes).
    """
    log_u = log_mean_exit_bvp_1d(potential, eta_sigma2, interval, x)
    if log_u > 709.0:
        raise NumericalError(
            f"mean exit time exp({log_u:.3g}) overflows a float; "
            "use log_mean_exit_bvp_1d"
        )
    return math.exp(log_u)


# ---------------------------------------------------------------------------
# Quasi-potential and Eyring-Kramers style prediction.
# ---------------------------------------------------------------------------


def _boundary_min(potential: PotentialSpec, domain: Domain) -> float:
    """Minimum of F over the domain boundary (dense sampling + refinement)."""
    value = potential.value
    n_samples = 10**4
    if domain.dim == 1:  # the two end points
        if domain.kind == "ball":
            c, r = domain.center[0], domain.radius
            ends = [[c - r], [c + r]]
        else:
            ends = [[domain.lo[0]], [domain.hi[0]]]
        return float(np.min(value(np.array(ends))))
    if domain.kind == "ball":
        c, r = domain.center, domain.radius
        d = c.size
        if d == 2:
            from scipy.optimize import minimize_scalar

            theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
            pts = c + r * np.column_stack([np.cos(theta), np.sin(theta)])
            vals = np.asarray(value(pts), dtype=float)
            k = int(np.argmin(vals))
            width = 2.0 * np.pi / n_samples

            def on_circle(t: float) -> float:
                return float(value(c + r * np.array([math.cos(t), math.sin(t)])))

            res = minimize_scalar(
                on_circle,
                bounds=(theta[k] - 2 * width, theta[k] + 2 * width),
                method="bounded",
                options={"xatol": 1e-12},
            )
            return float(min(res.fun, vals[k]))
        from scipy.optimize import minimize

        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((n_samples, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = np.asarray(value(c + r * dirs), dtype=float)
        best = dirs[int(np.argmin(vals))]

        def on_sphere(u: np.ndarray) -> float:
            u = u / np.linalg.norm(u)
            return float(value(c + r * u))

        res = minimize(on_sphere, best, method="Nelder-Mead", options={"xatol": 1e-10})
        return float(min(res.fun, vals.min()))
    # box: sample every face, refine the best face with a local search
    lo, hi = domain.lo, domain.hi
    d = lo.size
    from scipy.optimize import minimize

    rng = np.random.default_rng(0)
    per_face = max(1, n_samples // (2 * d))
    best_val, best_pt, best_face = np.inf, None, None
    for axis in range(d):
        for side, bound in ((0, lo[axis]), (1, hi[axis])):
            pts = rng.uniform(lo, hi, size=(per_face, d))
            pts[:, axis] = bound
            vals = np.asarray(value(pts), dtype=float)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val, best_pt, best_face = float(vals[k]), pts[k].copy(), (axis, bound)
    axis, bound = best_face
    free = [j for j in range(d) if j != axis]

    def on_face(u: np.ndarray) -> float:
        p = best_pt.copy()
        p[free] = np.clip(u, lo[free], hi[free])
        p[axis] = bound
        return float(value(p))

    res = minimize(on_face, best_pt[free], method="Nelder-Mead", options={"xatol": 1e-10})
    return float(min(res.fun, best_val))


def quasi_potential_isotropic(
    potential: PotentialSpec,
    sigma: float,
    domain: Domain,
    x_star=None,
) -> float:
    """Escape cost (2/sigma^2) * (min_boundary F - F(x*)) for isotropic noise."""
    if np.ndim(sigma) != 0:
        raise ValueError("only scalar (isotropic) noise amplitudes are supported here")
    sigma = check_positive("sigma", float(sigma))
    x_star = _resolve_minimizer(potential, domain, x_star)
    f_star = float(potential.value(x_star))
    f_boundary = _boundary_min(potential, domain)
    return (2.0 / sigma**2) * (f_boundary - f_star)


def _resolve_minimizer(potential: PotentialSpec, domain: Domain | None, x_star) -> np.ndarray:
    if x_star is None:
        inside = [
            cp
            for cp in potential.minimizers()
            if domain is None or domain.strictly_inside(cp.location)
        ]
        if not inside:
            raise ValueError("no annotated minimizer inside the domain; pass x_star")
        values = [float(potential.value(cp.location)) for cp in inside]
        return inside[int(np.argmin(values))].location
    x_star = check_point("x_star", x_star)
    g = np.asarray(potential.gradient(x_star), dtype=float)
    if np.linalg.norm(g) > 1e-8:
        raise ValueError(f"x_star={x_star} is not a stationary point")
    w = np.linalg.eigvalsh(np.asarray(potential.hessian(x_star), dtype=float))
    if w.min() <= 0:
        raise ValueError(f"x_star={x_star} is not a local minimizer")
    return x_star


def kramers_predictor(potential: PotentialSpec, eta: float, x_star, z_star) -> float:
    """Barrier-crossing time prediction for 1-D unit-variance gradient noise.

    Returns 2*pi / sqrt(F''(x*) |F''(z*)|) * exp(2 (F(z*) - F(x*)) / eta)
    for a well bottom x* and barrier top z*; noise of variance sigma^2 takes
    eta sigma^2 in place of eta.
    """
    if potential.dim != 1:
        raise ValueError("the barrier-crossing predictor is one-dimensional")
    check_positive("eta", eta)
    x_star, z_star = check_point("x_star", x_star), check_point("z_star", z_star)
    curv_min = float(potential.hessian(x_star)[0, 0])
    curv_top = float(potential.hessian(z_star)[0, 0])
    if curv_min <= 0:
        raise ValueError(f"x_star={x_star} must have positive curvature")
    if curv_top >= 0:
        raise ValueError(f"z_star={z_star} must have negative curvature")
    barrier = float(potential.value(z_star)) - float(potential.value(x_star))
    return 2.0 * math.pi / math.sqrt(curv_min * abs(curv_top)) * math.exp(2.0 * barrier / eta)


# ---------------------------------------------------------------------------
# Deterministic flow exit (theta(x0) for starts off the stable manifold).
# ---------------------------------------------------------------------------


def flow_exit_time(
    potential: PotentialSpec,
    x0,
    domain: Domain,
    dt: float = 1e-3,
    horizon: float = 200.0,
) -> float | None:
    """Exit time of the noiseless gradient flow, or None if it never leaves.

    Integrates with RK4 and refines the boundary crossing by bisection
    within the crossing step.  Returns None early once the flow stalls
    (speed below 1e-12): from there it cannot reach the boundary within any
    practical horizon, which is how starts on a stable manifold terminate.
    """
    x = check_dimension("x0", check_point("x0", x0), domain.dim)
    if not domain.strictly_inside(x):
        raise ValueError(f"start point {x} is not strictly inside the domain")
    check_positive("dt", dt)
    check_positive("horizon", horizon)
    f = lambda y: -np.asarray(potential.gradient(y), dtype=float)
    t = 0.0
    stall = 1e-12 * dt
    for _ in range(_step_count(horizon, dt)):
        x_new = _rk4_step(f, x, dt)
        if not domain.contains(x_new):
            a_lo, a_hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (a_lo + a_hi)
                if domain.contains(x + mid * (x_new - x)):
                    a_lo = mid
                else:
                    a_hi = mid
            return t + a_hi * dt
        if np.max(np.abs(x_new - x)) < stall:
            return None
        x = x_new
        t += dt
    return None


# ---------------------------------------------------------------------------
# Scaling fits.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingEntry:
    eta: float
    mean_exit_time: float
    stderr: float
    censor_frac: float
    transform_value: float
    steps_transform_value: float
    n_samples: int
    admissible: bool


@dataclass(frozen=True)
class ScalingReport:
    """Exit-time scaling across a learning-rate ladder."""

    transform: str
    source: str
    entries: tuple[ScalingEntry, ...]
    fitted_constant: float
    reference_constant: float
    extra: dict = field(default_factory=dict)


def _interval_log_mean(
    potential: PotentialSpec, eta_sigma2: float, domain: Domain, start: np.ndarray
) -> Optional[float]:
    """The oracle's log mean exit time from ``start``; None off a 1-D interval."""
    if potential.dim != 1 or domain.kind != "interval":
        return None
    interval = (domain.lo[0], domain.hi[0])
    return log_mean_exit_bvp_1d(potential, eta_sigma2, interval, float(start[0]))


def _exit_ladder(
    potential: PotentialSpec, sigma: float, domain: Domain, start: np.ndarray,
    etas: Sequence[float], source: str, label: str,
    horizon_of: Callable[[float], float],
    values_of: Callable[[float, ExitStats, Optional[float]], tuple[float, float]],
    n_paths: int, seed: int, dt: float | None, scatter: Callable[..., list], keep_records: bool,
) -> tuple[tuple[ScalingEntry, ...], float, dict]:
    """The entries of a scaling fit, its fitted constant and its extras.

    "bvp_1d" solves the oracle once per eta, on a 1-D interval only (a
    mean past a float's range reads inf); "mc" runs first-order diffusion
    from ``start`` to ``horizon_of(eta)`` with dt = min(eta/10, 1e-3) unless
    ``dt`` is given, every rung in one ``scatter`` over path-major (path,
    rung) cells (see ``hitting_time_chunk``), path i of rung j on the stream
    (seed, "<label>:eta<j>", i).  Every rung is checked before any path
    runs.  ``values_of(eta, stats, log_mean)`` is a rung's transform pair
    (log_mean None for Monte Carlo).  Rungs censored over 1% are
    inadmissible; the fit is the transform at the smallest admissible eta.
    """
    if source == "bvp_1d":
        log_means = [_interval_log_mean(potential, eta * sigma**2, domain, start) for eta in etas]
        if None in log_means:
            raise ValueError("the bvp_1d source needs a 1-D interval domain")
        ladder = [ExitStats(math.exp(u) if u <= 709 else math.inf, 0.0, 0.0, 0) for u in log_means]
        records = {}
    elif source == "mc":
        if len(set(etas)) < len(etas):
            raise ValueError(f"the ladder repeats an eta: {list(etas)}")
        check_count("n_paths", n_paths, 1)
        rungs = []
        for j, eta in enumerate(etas):
            step = dt if dt is not None else min(eta / 10.0, 1e-3)
            cfg = SdeConfig(potential=potential, eta=eta, dt=step, T=horizon_of(eta), x0=start,
                            diffusion=sigma, drift_order=FIRST_ORDER, seed=seed)
            rungs.append((cfg, f"{label}:eta{j}"))
        by_rung = [[] for _ in rungs]
        for part in scatter(hitting_time_chunk, len(rungs) * n_paths, rungs, domain):
            for recs, chunk_recs in zip(by_rung, part):
                recs += chunk_recs
        log_means = [None] * len(rungs)
        ladder = [exit_time_stats(recs) for recs in by_rung]
        records = {float(eta): recs for eta, recs in zip(etas, by_rung)}
    else:
        raise ValueError(f"unknown source {source!r}")
    entries = tuple(
        ScalingEntry(float(eta), st.mean, st.stderr, st.censor_frac, *values_of(eta, st, log_mean),
                     st.n_used, st.censor_frac <= 0.01)
        for eta, st, log_mean in zip(etas, ladder, log_means)
    )
    ok = [e for e in entries if e.admissible]
    if not ok:
        raise NumericalError("no admissible ladder entry (censoring everywhere > 1%)")
    fitted = min(ok, key=lambda e: e.eta).transform_value
    return entries, fitted, {"records": records} if keep_records else {}


def minimizer_scaling_fit(
    potential: PotentialSpec,
    sigma: float,
    domain: Domain,
    eta_list: Sequence[float],
    source: str = "bvp_1d",
    x0=None,
    n_paths: int = 2000,
    seed: int = 0,
    dt: float | None = None,
    horizon: float | None = None,
    scatter: Callable[..., list] = streams.in_process,
    keep_records: bool = False,
) -> ScalingReport:
    """Escape-time scaling from a minimizer: eta * log E[T] against the
    quasi-potential of the domain.

    ``source`` selects the exact 1-D boundary-value oracle ("bvp_1d") or
    first-exit Monte Carlo of the diffusion ("mc", with dt <= min(eta/10,
    1e-3) and a horizon of 20x the oracle prediction by default).  On a 1-D
    interval the oracle is solved once per rung for either source.  The
    rungs run as one ladder (see ``_exit_ladder``): every rung is checked,
    then one ``scatter`` covers ``len(eta_list) * n_paths`` cells.
    """
    x_star = _resolve_minimizer(potential, domain, None)
    start = x_star if x0 is None else check_point("x0", x0)
    reference = quasi_potential_isotropic(potential, sigma, domain, x_star)
    for eta in eta_list:
        check_positive("eta", eta)

    def horizon_of(eta: float) -> float:
        log_u = _interval_log_mean(potential, eta * sigma**2, domain, start)
        if horizon is not None:
            return horizon
        if log_u is None:
            raise ValueError("pass a horizon for Monte Carlo in this geometry")
        return 20.0 * math.exp(min(log_u, 700.0))

    def values_of(eta: float, stats: ExitStats, log_u: float | None) -> tuple[float, float]:
        if log_u is None:
            return eta * math.log(stats.mean), eta * math.log(stats.mean / eta)
        return eta * log_u, eta * (log_u - math.log(eta))

    entries, fitted, extra = _exit_ladder(
        potential, sigma, domain, start, eta_list, source, "exit-min", horizon_of, values_of,
        n_paths, seed, dt, scatter, keep_records,
    )
    return ScalingReport(TRANSFORM_ETA_LOG_T, source, entries, fitted, reference, extra)


def saddle_scaling_fit(
    potential: PotentialSpec,
    sigma: float,
    domain: Domain,
    x0,
    eta_list: Sequence[float],
    source: str = "bvp_1d",
    n_paths: int = 2000,
    seed: int = 0,
    dt: float | None = None,
    horizon: float | None = None,
    scatter: Callable[..., list] = streams.in_process,
    keep_records: bool = False,
) -> ScalingReport:
    """Escape-time scaling from an unstable point: E[T] / log(1/eta).

    The reference constant is 1/(2 gamma1) with gamma1 the most negative
    curvature direction of the annotated unstable point in the domain.  A
    noiseless flow run decides whether the start leaves on its own; if it
    does, its exit time theta(x0) is reported (extra["theta"]) and the
    small-eta mean exit time should approach it instead of the log law.
    The chain-step bound 2 gamma1 E[T] / log(1/eta), which should not
    exceed 1 + o(1), is reported per entry in extra["steps_bound"].  The
    Monte Carlo horizon is 50 log(1/eta) / gamma1 by default; the rungs are
    checked and run as in ``minimizer_scaling_fit``.
    """
    unstable = [
        cp for cp in potential.unstable_points() if domain.strictly_inside(cp.location)
    ]
    if not unstable:
        raise ValueError("no annotated unstable critical point inside the domain")
    gamma1 = -float(unstable[0].eigenvalues[-1])
    if gamma1 <= 0:
        raise ValueError("the unstable point has no negative curvature direction")
    start = check_point("x0", x0)
    theta = None
    if np.linalg.norm(potential.gradient(start)) > 1e-12:
        theta = flow_exit_time(potential, start, domain, dt=1e-4, horizon=200.0 / gamma1)
    for eta in eta_list:
        if not 0 < eta < 1:
            raise ValueError(f"the log(1/eta) transform needs 0 < eta < 1, got {eta}")

    def horizon_of(eta: float) -> float:
        return horizon if horizon is not None else 50.0 * math.log(1.0 / eta) / gamma1

    def values_of(eta: float, stats: ExitStats, log_mean: float | None) -> tuple[float, float]:
        log_inv = math.log(1.0 / eta)
        return stats.mean / log_inv, stats.mean / (eta * log_inv)

    entries, fitted, kept = _exit_ladder(
        potential, sigma, domain, start, eta_list, source, "exit-saddle", horizon_of, values_of,
        n_paths, seed, dt, scatter, keep_records,
    )
    steps_bound = tuple(2.0 * gamma1 * e.transform_value for e in entries)
    extra = {"gamma1": gamma1, "theta": theta, "steps_bound": steps_bound, **kept}
    return ScalingReport(TRANSFORM_T_OVER_LOG, source, entries, fitted, 0.5 / gamma1, extra)


# ---------------------------------------------------------------------------
# Annealing with the log-cooling schedule.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnealResult:
    """Success statistics of an annealing arm.

    ``ci_low`` and ``ci_high``, the 95% Clopper-Pearson interval of the
    success probability, are computed from ``successes`` and ``n_paths``
    each time they are read, so an arm whose interval nobody reads never
    imports ``scipy.special``.
    """

    mode: str  # "cooling" | "constant"
    gamma: float
    T: float
    epsilon: float
    n_paths: int
    successes: int
    success_prob: float
    occupancy_times: np.ndarray
    occupancy_fracs: np.ndarray

    @property
    def ci_low(self) -> float:
        return _binomial_ci(self.successes, self.n_paths)[0]

    @property
    def ci_high(self) -> float:
        return _binomial_ci(self.successes, self.n_paths)[1]


def _binomial_ci(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Clopper-Pearson central interval.  The quantiles come from
    ``scipy.special.betaincinv``, which gives ``scipy.stats.beta.ppf``'s
    bits without the cost of importing ``scipy.stats``."""
    from scipy.special import betaincinv

    alpha = 1.0 - level
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


def anneal_experiment(
    potential: PotentialSpec,
    gamma: float,
    T: float,
    n_paths: int,
    epsilon: float,
    start=None,
    mode: str = "cooling",
    seed: int = 0,
    dt: float = 0.01,
    n_checkpoints: int = 50,
    scatter: Callable[..., list] = streams.in_process,
) -> AnnealResult:
    """Simulate dX = -F'(X) ds + beta(s) dB and score arrival at the global well.

    The cooling arm uses beta(s) = sqrt(gamma / log(2 + s)); the constant
    control arm freezes beta at the cooling schedule's terminal value
    beta(T).  Success means the final state lies within ``epsilon`` of a
    global minimizer.  gamma = 0 degenerates to the plain gradient flow.
    The paths run through ``scatter`` (see ``streams``) as ``anneal_chunk``
    calls, whose integer counts are divided by ``n_paths`` once.
    """
    if mode not in ("cooling", "constant"):
        raise ValueError(f"unknown annealing mode {mode!r}")
    check_non_negative("gamma", gamma)
    for name, value in (("T", T), ("epsilon", epsilon), ("dt", dt)):
        check_positive(name, value)
    check_count("n_paths", n_paths, 1)
    check_count("n_checkpoints", n_checkpoints)
    if start is None:
        mins = potential.minimizers()
        if len(mins) < 2:
            raise ValueError("pass a start point for a single-well objective")
        values = [float(potential.value(cp.location)) for cp in mins]
        start = mins[int(np.argmax(values))].location  # the shallow well
    else:
        start = check_point("start", start)
    check_times = np.linspace(0.0, T, n_checkpoints + 1)[1:] if n_checkpoints else np.array([])
    parts = scatter(
        anneal_chunk, n_paths, potential, gamma, T, epsilon, start, mode, seed, dt, check_times
    )
    successes = sum(k for k, _ in parts)
    return AnnealResult(
        mode=mode,
        gamma=float(gamma),
        T=float(T),
        epsilon=float(epsilon),
        n_paths=n_paths,
        successes=successes,
        success_prob=successes / n_paths,
        occupancy_times=check_times,
        occupancy_fracs=sum(counts for _, counts in parts) / n_paths,
    )


def anneal_chunk(
    potential: PotentialSpec, gamma: float, T: float, epsilon: float, start: np.ndarray,
    mode: str, seed: int, dt: float, check_times: np.ndarray, lo: int, hi: int,
) -> tuple[int, np.ndarray]:
    """Paths lo, ..., hi - 1 of ``anneal_experiment``: a ``scatter`` chunk.

    Returns the number of successes and, per checkpoint time, the number of
    paths inside the target window.
    """
    if mode == "cooling":
        amp_fn = lambda s: math.sqrt(gamma / math.log(2.0 + s))
    else:
        const = math.sqrt(gamma / math.log(2.0 + T))
        amp_fn = lambda s: const
    # eta is unused: the schedule sets the noise amplitude.
    cfg = SdeConfig(
        potential=potential, eta=1.0, dt=dt, T=T, x0=start, noise_schedule=amp_fn
    )
    targets = np.stack([cp.location for cp in potential.global_minimizers()])
    times = _time_grid(T, dt)
    # Checkpoint i counts the paths at the first step k >= 1 whose time
    # reaches check_times[i] (less 1e-12); one past the grid if none does.
    check_steps = np.maximum(1, np.searchsorted(times, check_times - 1e-12))
    counts = np.zeros(check_times.size, dtype=np.int64)

    def in_target(xs: np.ndarray) -> np.ndarray:
        dist2 = ((xs[:, None, :] - targets) ** 2).sum(axis=-1)
        return (dist2.min(axis=1) <= epsilon**2)

    def checkpoint(k0, states, paths):
        due = (check_steps > k0) & (check_steps <= k0 + len(states))
        for i in np.flatnonzero(due):
            counts[i] += in_target(states[check_steps[i] - k0 - 1]).sum()

    x = streams.lockstep(
        sde_kernel(cfg, times), cfg.x0, seed, f"anneal:{mode}", range(lo, hi), times.size - 1,
        on_block=checkpoint,
    )[2]
    return int(in_target(x).sum()), counts
