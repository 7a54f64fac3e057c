"""Weak-approximation error of the SGD chain against its diffusion limits.

For the linear (quadratic-objective) chain both the iterate x_k and the
limiting Ornstein-Uhlenbeck marginal are exactly Gaussian, so expectations
of arbitrary observables reduce to Gauss-Hermite quadrature and the weak
error can be evaluated without Monte Carlo down to machine precision.  A
Monte Carlo variant covers general objectives; log-log slope fitting turns
an error ladder over learning rates into an empirical convergence order
(order 1 for the plain drift -grad F, order 2 once the drift carries the
-(eta/4) grad |grad F|^2 correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import streams
from .errors import NumericalError
from .oracles import AdditiveGaussianOracle, GradientOracle
from .potentials import PotentialSpec
from .sde import FIRST_ORDER, SECOND_ORDER, SdeConfig, em_endpoints_chunk, ou_moments
from .sgd import SgdConfig, sgd_ensemble_chunk

# ---------------------------------------------------------------------------
# Observables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A scalar observable phi applied to the (1-D) terminal state."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    bounded: bool

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(s, dtype=float))


def _phi_x(s):
    return s


def _phi_x2(s):
    return s * s


def _phi_tanh(s):
    return np.tanh(s)


def _phi_tanh_x2(s):
    return np.tanh(s * s)


#: Default observable suite: two polynomial moments plus two bounded smooth
#: functions, enough to expose the convergence order without favoring either
#: class.
DEFAULT_SUITE: tuple[TestFunction, ...] = (
    TestFunction("x", _phi_x, bounded=False),
    TestFunction("x2", _phi_x2, bounded=False),
    TestFunction("tanh_x", _phi_tanh, bounded=True),
    TestFunction("tanh_x2", _phi_tanh_x2, bounded=True),
)


def gauss_hermite_expectation(
    fn: Callable[[np.ndarray], np.ndarray],
    mean: float,
    var: float,
    order: int = 64,
) -> float:
    """E[fn(Z)] for Z ~ N(mean, var) by Gauss-Hermite quadrature."""
    if var < 0:
        raise ValueError(f"variance must be non-negative, got {var}")
    if var == 0.0:
        return float(fn(np.array([mean]))[0])
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    pts = mean + math.sqrt(2.0 * var) * nodes
    return float(weights @ np.asarray(fn(pts), dtype=float) / math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# Exact linear-chain moments.
# ---------------------------------------------------------------------------


def sgd_moments_linear(
    lam: float, eta: float, sigma: float, x0: float, k: int
) -> tuple[float, float]:
    """Mean and variance of the SGD iterate on F(x) = lam x^2 / 2.

    The chain x_{k+1} = (1 - eta lam) x_k - eta xi_k with xi_k ~ N(0, sigma^2)
    stays Gaussian:  mean (1 - eta lam)^k x0 and variance
    eta^2 sigma^2 (1 - a^{2k}) / (1 - a^2) with a = 1 - eta lam.  Requires
    the stable regime |a| < 1.
    """
    if k < 0:
        raise ValueError(f"step count must be non-negative, got {k}")
    a = 1.0 - eta * lam
    if abs(a) >= 1.0:
        raise ValueError(
            f"unstable chain: |1 - eta*lam| = {abs(a)} >= 1 (eta={eta}, lam={lam})"
        )
    mean = a**k * x0
    var = eta**2 * sigma**2 * (1.0 - a ** (2 * k)) / (1.0 - a**2)
    return float(mean), float(var)


def corrected_rate(lam: float, eta: float, drift_order: str) -> float:
    """Decay rate of the limiting OU process on F(x) = lam x^2 / 2.

    The first-order drift is -lam x; the second-order correction
    -(eta/4) d/dx (lam x)^2 = -(eta lam^2 / 2) x sharpens the rate to
    lam + eta lam^2 / 2.
    """
    if drift_order == FIRST_ORDER:
        return float(lam)
    if drift_order == SECOND_ORDER:
        return float(lam + 0.5 * eta * lam**2)
    raise ValueError(f"unknown drift order {drift_order!r}")


# ---------------------------------------------------------------------------
# Exact weak error on the linear chain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakErrorPoint:
    """Weak errors at one learning rate, one value per observable."""

    eta: float
    errors: tuple[float, ...]
    stderrs: tuple[float, ...]
    max_error: float
    max_stderr: float


@dataclass(frozen=True)
class WeakErrorReport:
    """A learning-rate ladder of weak errors with fitted orders.

    ``fitted_orders`` holds one log-log slope per observable (NaN when too
    few ladder points rise above the Monte Carlo noise floor);
    ``fitted_order`` is the slope of the max-over-suite error.  Method tags
    record how each side was evaluated: "closed_form" (exact Gaussian
    moments + quadrature), "exact_sampler" (exact transition law), or "mc".
    """

    drift_order: str
    observables: tuple[str, ...]
    points: tuple[WeakErrorPoint, ...]
    fitted_orders: tuple[float, ...]
    fitted_order: float
    expected_order: float
    method_sgd: str
    method_sde: str


def _per_observable_fits(
    points: Sequence[WeakErrorPoint], n_obs: int, use_stderr: bool
) -> tuple[float, ...]:
    fits = []
    for i in range(n_obs):
        errs = [p.errors[i] for p in points]
        ses = [p.stderrs[i] for p in points] if use_stderr else None
        try:
            fits.append(order_fit([p.eta for p in points], errs, stderrs=ses).slope)
        except NumericalError:
            fits.append(float("nan"))
    return tuple(fits)


def weak_error_linear(
    lam: float,
    eta: float,
    sigma: float,
    T: float,
    x0: float,
    drift_order: str = FIRST_ORDER,
    suite: Sequence[TestFunction] = DEFAULT_SUITE,
    gh_order: int = 64,
) -> WeakErrorPoint:
    """max_phi |E phi(x_K) - E phi(X_T)| on F = lam x^2/2, evaluated exactly.

    T must be an integer multiple of eta so the chain lands on the horizon.
    Both marginals are Gaussian; expectations use Gauss-Hermite quadrature
    (exact for the polynomial observables at any order >= 2).
    """
    if lam <= 0 or sigma <= 0 or eta <= 0 or T <= 0:
        raise ValueError("lam, sigma, eta and T must all be positive")
    k = T / eta
    if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
        raise ValueError(f"horizon T={T} is not an integer number of steps of eta={eta}")
    k = int(round(k))
    m_sgd, v_sgd = sgd_moments_linear(lam, eta, sigma, x0, k)
    rate = corrected_rate(lam, eta, drift_order)
    m_sde, v_sde = ou_moments(rate, eta * sigma**2, x0, T)
    errors = tuple(
        abs(
            gauss_hermite_expectation(phi, m_sgd, v_sgd, gh_order)
            - gauss_hermite_expectation(phi, m_sde, v_sde, gh_order)
        )
        for phi in suite
    )
    return WeakErrorPoint(
        eta=float(eta),
        errors=errors,
        stderrs=tuple(0.0 for _ in suite),
        max_error=max(errors),
        max_stderr=0.0,
    )


def weak_error_ladder_linear(
    lam: float,
    sigma: float,
    T: float,
    x0: float,
    eta_list: Sequence[float],
    drift_order: str = FIRST_ORDER,
    suite: Sequence[TestFunction] = DEFAULT_SUITE,
    gh_order: int = 64,
) -> WeakErrorReport:
    """Exact weak-error ladder on the linear chain with a fitted order."""
    points = tuple(
        weak_error_linear(lam, eta, sigma, T, x0, drift_order, suite, gh_order)
        for eta in eta_list
    )
    fit = order_fit(
        [p.eta for p in points], [p.max_error for p in points], stderrs=None
    )
    return WeakErrorReport(
        drift_order=drift_order,
        observables=tuple(phi.name for phi in suite),
        points=points,
        fitted_orders=_per_observable_fits(points, len(suite), use_stderr=False),
        fitted_order=fit.slope,
        expected_order=1.0 if drift_order == FIRST_ORDER else 2.0,
        method_sgd="closed_form",
        method_sde="closed_form",
    )


# ---------------------------------------------------------------------------
# Order fitting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    n_used: int
    used: tuple[bool, ...]
    pairwise_slopes: tuple[float, ...]


def order_fit(
    etas: Sequence[float],
    errors: Sequence[float],
    stderrs: Optional[Sequence[float]] = None,
    min_points: int = 3,
) -> OrderFit:
    """Least-squares slope of log(error) against log(eta).

    Points with non-positive error are dropped, as are points whose Monte
    Carlo standard error exceeds 30% of the measured error (the ladder below
    the noise floor carries no order information).  At least ``min_points``
    must survive.  ``pairwise_slopes`` are the local slopes between
    consecutive surviving points, for diagnosing pre-asymptotic drift.
    """
    etas = np.asarray(etas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = (errors > 0) & np.isfinite(errors) & (etas > 0)
    if stderrs is not None:
        stderrs = np.asarray(stderrs, dtype=float)
        mask &= stderrs <= 0.3 * errors
    if mask.sum() < min_points:
        raise NumericalError(
            f"only {int(mask.sum())} resolvable ladder points (need {min_points}); "
            "increase the sample size or use larger learning rates"
        )
    log_e = np.log(etas[mask])
    log_err = np.log(errors[mask])
    slope, intercept = np.polyfit(log_e, log_err, 1)
    pairwise = np.diff(log_err) / np.diff(log_e)
    return OrderFit(
        slope=float(slope),
        intercept=float(intercept),
        n_used=int(mask.sum()),
        used=tuple(bool(b) for b in mask),
        pairwise_slopes=tuple(float(s) for s in pairwise),
    )


# ---------------------------------------------------------------------------
# Monte Carlo weak error for general objectives.
# ---------------------------------------------------------------------------

def _is_linear_gaussian(potential: PotentialSpec, oracle: GradientOracle) -> bool:
    return (
        potential.name == "quadratic_well"
        and potential.dim == 1
        and isinstance(oracle, AdditiveGaussianOracle)
        and not callable(oracle.covariance)
    )


def weak_error_mc(
    potential: PotentialSpec,
    oracle: GradientOracle,
    T: float,
    x0,
    eta_list: Sequence[float],
    n_paths: int = 20000,
    drift_order: str = FIRST_ORDER,
    suite: Sequence[TestFunction] = DEFAULT_SUITE,
    seed: int = 0,
    experiment: str = "weak-mc",
    dt_factor: float = 0.1,
    gh_order: int = 64,
    scatter: Callable[..., list] = streams.in_process,
) -> WeakErrorReport:
    """Monte Carlo weak-error ladder |E phi(x_K) - E phi(X_T)| (1-D).

    The SGD side is always simulated.  On the linear Gaussian chain the
    diffusion expectation is evaluated exactly (no discretization, no
    sampling); otherwise the diffusion side is an Euler-Maruyama ensemble
    with dt = dt_factor * eta.  Standard errors combine both sides and feed
    the noise-floor filter of the order fit.  Both ensembles run through
    ``scatter`` (see ``streams``).
    """
    if potential.dim != 1:
        raise ValueError("the Monte Carlo weak-error ladder is one-dimensional")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    exact_sde = _is_linear_gaussian(potential, oracle)
    points = []
    for j, eta in enumerate(eta_list):
        k = T / eta
        if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"horizon T={T} is not an integer number of steps of eta={eta}")
        k = int(round(k))
        sgd_cfg = SgdConfig(
            eta=eta, steps=k, x0=x0, oracle=oracle, seed=seed, store_every=k
        )
        parts = scatter(sgd_ensemble_chunk, n_paths, sgd_cfg, f"{experiment}:sgd:eta{j}", None)
        ends_sgd = np.concatenate([part.endpoints for part in parts])[:, 0]
        if exact_sde:
            lam = potential.params[0]
            sigma2 = float(np.asarray(oracle.covariance)[0, 0])
            rate = corrected_rate(lam, eta, drift_order)
            m_sde, v_sde = ou_moments(rate, eta * sigma2, float(x0[0]), T)
            ends_sde = None
        else:
            sde_cfg = SdeConfig(
                potential=potential,
                eta=eta,
                dt=dt_factor * eta,
                T=T,
                x0=x0,
                diffusion=oracle.diffusion_at if callable(oracle.covariance) else oracle.diffusion_at(x0),
                drift_order=drift_order,
                seed=seed,
            )
            parts = scatter(em_endpoints_chunk, n_paths, sde_cfg, f"{experiment}:sde:eta{j}")
            ends_sde = np.concatenate(parts)[:, 0]
        errors, stderrs = [], []
        for phi in suite:
            vals_sgd = np.asarray(phi(ends_sgd), dtype=float)
            mean_sgd = float(vals_sgd.mean())
            se2 = float(vals_sgd.var(ddof=1)) / vals_sgd.size
            if ends_sde is None:
                mean_sde = gauss_hermite_expectation(phi, m_sde, v_sde, gh_order)
            else:
                vals_sde = np.asarray(phi(ends_sde), dtype=float)
                mean_sde = float(vals_sde.mean())
                se2 += float(vals_sde.var(ddof=1)) / vals_sde.size
            errors.append(abs(mean_sgd - mean_sde))
            stderrs.append(math.sqrt(se2))
        i_max = int(np.argmax(errors))
        points.append(
            WeakErrorPoint(
                eta=float(eta),
                errors=tuple(errors),
                stderrs=tuple(stderrs),
                max_error=errors[i_max],
                max_stderr=stderrs[i_max],
            )
        )
    fit = order_fit(
        [p.eta for p in points],
        [p.max_error for p in points],
        stderrs=[p.max_stderr for p in points],
    )
    return WeakErrorReport(
        drift_order=drift_order,
        observables=tuple(phi.name for phi in suite),
        points=tuple(points),
        fitted_orders=_per_observable_fits(points, len(suite), use_stderr=True),
        fitted_order=fit.slope,
        expected_order=1.0 if drift_order == FIRST_ORDER else 2.0,
        method_sgd="mc",
        method_sde="exact_sampler" if exact_sde else "mc",
    )
