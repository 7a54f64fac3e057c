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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import streams
from .errors import (
    NumericalError, check_count, check_finite, check_non_negative, check_point, check_positive,
)
from .oracles import GradientOracle
from .potentials import PotentialSpec, diagonal_quadratic_coefficients
from .sde import (
    FIRST_ORDER,
    SECOND_ORDER,
    SdeConfig,
    _horizon_steps,
    em_endpoints_chunk,
    ou_moments,
)
from .sgd import SgdConfig, sgd_ensemble_chunk

# ---------------------------------------------------------------------------
# Observables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A scalar observable phi applied to the (1-D) terminal state."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

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


#: The observable suite of every ladder: two polynomial moments plus two
#: bounded smooth functions, enough to expose the convergence order without
#: favoring either class.
DEFAULT_SUITE: tuple[TestFunction, ...] = (
    TestFunction("x", _phi_x),
    TestFunction("x2", _phi_x2),
    TestFunction("tanh_x", _phi_tanh),
    TestFunction("tanh_x2", _phi_tanh_x2),
)


#: The Gauss-Hermite order of every closed-form expectation.
GH_ORDER = 64

#: The fewest ladder points an order fit takes.
MIN_FIT_POINTS = 3


@functools.lru_cache(maxsize=None)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``hermgauss(order)`` nodes and weights, computed once per
    order and read-only, since every caller shares them."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_hermite_expectation(
    fn: Callable[[np.ndarray], np.ndarray],
    mean: float,
    var: float,
) -> float:
    """E[fn(Z)] for Z ~ N(mean, var) by ``GH_ORDER``-point Gauss-Hermite
    quadrature."""
    check_non_negative("variance", var)
    if var == 0.0:
        return float(fn(np.array([mean]))[0])
    nodes, weights = _hermite_rule(GH_ORDER)
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
    check_positive("lam", lam)
    check_positive("eta", eta)
    check_non_negative("sigma", sigma)
    check_finite("x0", x0)
    check_count("k", k)
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
# Weak-error points and reports.
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


#: One side of a weak error: phi -> (estimate of E phi, its squared
#: standard error).
Side = Callable[[TestFunction], tuple[float, float]]


def _closed_side(mean: float, var: float) -> Side:
    """The Gaussian marginal N(mean, var), read exactly by quadrature."""
    return lambda phi: (gauss_hermite_expectation(phi, mean, var), 0.0)


def _ou_side(lam: float, sigma2: float, x0: float, T: float, eta: float, drift_order: str) -> Side:
    """The limiting OU marginal at T of the linear chain on F = lam x^2 / 2
    with noise variance sigma2 (see ``corrected_rate``)."""
    return _closed_side(*ou_moments(corrected_rate(lam, eta, drift_order), eta * sigma2, x0, T))


def _sampled_side(ends: np.ndarray) -> Side:
    """A Monte Carlo sample of terminal states: the mean of phi and its
    variance over the sample size."""

    def side(phi):
        vals = np.asarray(phi(ends), dtype=float)
        return float(vals.mean()), float(vals.var(ddof=1)) / vals.size

    return side


def _weak_point(eta: float, sgd_side: Side, sde_side: Side) -> WeakErrorPoint:
    """|E phi(x_K) - E phi(X_T)| over ``DEFAULT_SUITE``, with standard errors
    that combine both sides."""
    errors, stderrs = [], []
    for phi in DEFAULT_SUITE:
        (e_sgd, se2_sgd), (e_sde, se2_sde) = sgd_side(phi), sde_side(phi)
        errors.append(abs(e_sgd - e_sde))
        stderrs.append(math.sqrt(se2_sgd + se2_sde))
    i_max = int(np.argmax(errors))
    return WeakErrorPoint(float(eta), tuple(errors), tuple(stderrs), errors[i_max], stderrs[i_max])


def _weak_report(
    points: Sequence[WeakErrorPoint], drift_order: str, method_sgd: str, method_sde: str
) -> WeakErrorReport:
    """The ladder of ``points`` with its order fits.  ``order_fit``'s
    noise-floor filter keeps every point whose standard errors are zero."""
    etas = [p.eta for p in points]

    def slope(i: int) -> float:
        errors, stderrs = [p.errors[i] for p in points], [p.stderrs[i] for p in points]
        try:
            return order_fit(etas, errors, stderrs).slope
        except NumericalError:
            return float("nan")

    fit = order_fit(etas, [p.max_error for p in points], [p.max_stderr for p in points])
    return WeakErrorReport(
        drift_order=drift_order,
        observables=tuple(phi.name for phi in DEFAULT_SUITE),
        points=tuple(points),
        fitted_orders=tuple(slope(i) for i in range(len(DEFAULT_SUITE))),
        fitted_order=fit.slope,
        expected_order=1.0 if drift_order == FIRST_ORDER else 2.0,
        method_sgd=method_sgd,
        method_sde=method_sde,
    )


def weak_error_linear(
    lam: float,
    eta: float,
    sigma: float,
    T: float,
    x0: float,
    drift_order: str = FIRST_ORDER,
) -> WeakErrorPoint:
    """max_phi |E phi(x_K) - E phi(X_T)| over ``DEFAULT_SUITE`` on
    F = lam x^2/2, evaluated exactly.

    T must be an integer multiple of eta so the chain lands on the horizon.
    Both marginals are Gaussian; expectations use Gauss-Hermite quadrature
    (exact for the polynomial observables at any order >= 2).
    """
    check_positive("sigma", sigma)
    k = _horizon_steps(T, eta)
    sgd_side = _closed_side(*sgd_moments_linear(lam, eta, sigma, x0, k))
    return _weak_point(eta, sgd_side, _ou_side(lam, sigma**2, x0, T, eta, drift_order))


def weak_error_ladder_linear(
    lam: float,
    sigma: float,
    T: float,
    x0: float,
    eta_list: Sequence[float],
    drift_order: str = FIRST_ORDER,
) -> WeakErrorReport:
    """Exact weak-error ladder on the linear chain with a fitted order."""
    points = [weak_error_linear(lam, eta, sigma, T, x0, drift_order) for eta in eta_list]
    return _weak_report(points, drift_order, "closed_form", "closed_form")


# ---------------------------------------------------------------------------
# Order fitting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    n_used: int


def order_fit(
    etas: Sequence[float],
    errors: Sequence[float],
    stderrs: Optional[Sequence[float]] = None,
) -> OrderFit:
    """Least-squares slope of log(error) against log(eta).

    Points with non-positive error are dropped, as are points whose Monte
    Carlo standard error exceeds 30% of the measured error (the ladder below
    the noise floor carries no order information).  At least
    ``MIN_FIT_POINTS`` must survive.
    """
    etas = np.asarray(etas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = (errors > 0) & np.isfinite(errors) & (etas > 0)
    if stderrs is not None:
        stderrs = np.asarray(stderrs, dtype=float)
        mask &= stderrs <= 0.3 * errors
    if mask.sum() < MIN_FIT_POINTS:
        raise NumericalError(
            f"only {int(mask.sum())} resolvable ladder points (need {MIN_FIT_POINTS}); "
            "increase the sample size or use larger learning rates"
        )
    log_e = np.log(etas[mask])
    log_err = np.log(errors[mask])
    slope, intercept = np.polyfit(log_e, log_err, 1)
    return OrderFit(slope=float(slope), intercept=float(intercept), n_used=int(mask.sum()))


# ---------------------------------------------------------------------------
# Monte Carlo weak error for general objectives.
# ---------------------------------------------------------------------------

def well_rate(potential: PotentialSpec) -> Optional[float]:
    """The rate lam of a builtin 1-D quadratic well F = lam x^2 / 2, the
    linear chain of the closed forms, else None.

    The family is read by ``potentials.diagonal_quadratic_coefficients``, so
    lam is the coefficient the gradient uses, whatever a spec's name says.
    """
    q = diagonal_quadratic_coefficients(potential)
    if q is None or q.size != 1 or q[0] <= 0:
        return None
    return float(q[0])


def weak_error_mc(
    potential: PotentialSpec,
    oracle: GradientOracle,
    T: float,
    x0,
    eta_list: Sequence[float],
    n_paths: int = 20000,
    drift_order: str = FIRST_ORDER,
    seed: int = 0,
    experiment: str = "weak-mc",
    dt_factor: float = 0.1,
    scatter: Callable[..., list] = streams.in_process,
) -> WeakErrorReport:
    """Monte Carlo weak-error ladder |E phi(x_K) - E phi(X_T)| over
    ``DEFAULT_SUITE`` (1-D).

    The SGD side is always simulated.  The diffusion side is the SDE with
    S = ``oracle.diffusion``.  On the linear Gaussian chain (a builtin
    quadratic well, see ``well_rate``, under a constant S) its expectation
    is evaluated exactly (no discretization, no sampling); otherwise it is an
    Euler-Maruyama ensemble with dt = dt_factor * eta, which evaluates a
    state-dependent S (every mini-batch oracle) once per step on the stack
    of all its paths' states.  Standard
    errors combine both sides and feed the noise-floor filter of the order
    fit.  Both ensembles run through ``scatter`` (see ``streams``), after
    the arguments and every rung's horizon are checked.
    """
    if potential.dim != 1:
        raise ValueError("the Monte Carlo weak-error ladder is one-dimensional")
    check_count("n_paths", n_paths, 2, " for a sample variance")
    check_positive("dt_factor", dt_factor)
    x0 = check_point("x0", x0)
    lam = well_rate(potential)
    exact_sde = lam is not None and not callable(oracle.diffusion)
    steps = [_horizon_steps(T, eta) for eta in eta_list]
    points = []
    for j, (eta, k) in enumerate(zip(eta_list, steps)):
        sgd_cfg = SgdConfig(eta=eta, steps=k, x0=x0, oracle=oracle, seed=seed)
        parts = scatter(sgd_ensemble_chunk, n_paths, sgd_cfg, f"{experiment}:sgd:eta{j}", None)
        sgd_side = _sampled_side(np.concatenate([part.endpoints for part in parts])[:, 0])
        if exact_sde:
            sigma2 = float(oracle.covariance_at(x0)[0, 0])
            sde_side = _ou_side(lam, sigma2, float(x0[0]), T, eta, drift_order)
        else:
            sde_cfg = SdeConfig(
                potential=potential,
                eta=eta,
                dt=dt_factor * eta,
                T=T,
                x0=x0,
                diffusion=oracle.diffusion,
                drift_order=drift_order,
                seed=seed,
            )
            parts = scatter(em_endpoints_chunk, n_paths, sde_cfg, f"{experiment}:sde:eta{j}")
            sde_side = _sampled_side(np.concatenate(parts)[:, 0])
        points.append(_weak_point(eta, sgd_side, sde_side))
    return _weak_report(points, drift_order, "mc", "exact_sampler" if exact_sde else "mc")
