"""Analytic benchmark objectives with gradients, Hessians, and annotated
critical points.

Every builtin family is vectorized over a leading batch axis: ``value`` maps
arrays of shape ``(..., dim)`` to ``(...,)``, ``gradient`` to ``(..., dim)``,
and ``hessian`` to ``(..., dim, dim)``.  The families are smooth and cheap,
so Monte Carlo engines and quadrature oracles can evaluate them freely.

Finite-sum objectives (``F = (1/M) sum_i f_i``) additionally expose the list
of component gradients, which is what mini-batch sampling consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

MINIMIZER = "minimizer"
SADDLE = "saddle"
MAXIMIZER = "maximizer"

#: Gradient norm tolerance required of annotated critical points.
CRITICAL_GRAD_TOL = 1e-10

_BUILTIN_NAMES = (
    "quadratic_well",
    "inverted_quadratic",
    "saddle_2d",
    "double_well_1d",
    "asym_double_well_1d",
    "gaussian_cloud_finite_sum",
)


def classify_stationary(eigenvalues: np.ndarray) -> str:
    """Classify a nondegenerate stationary point from Hessian eigenvalues."""
    w = np.asarray(eigenvalues, dtype=float)
    if np.any(w == 0.0):
        raise ValueError("degenerate stationary point: zero Hessian eigenvalue")
    if np.all(w > 0.0):
        return MINIMIZER
    if np.all(w < 0.0):
        return MAXIMIZER
    return SADDLE


@dataclass(frozen=True)
class CriticalPoint:
    """A stationary point with its type and Hessian spectrum (descending)."""

    location: np.ndarray
    kind: str
    eigenvalues: np.ndarray

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.location, dtype=float))
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        loc.setflags(write=False)
        eig.setflags(write=False)
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "eigenvalues", eig)
        if self.kind not in (MINIMIZER, SADDLE, MAXIMIZER):
            raise ValueError(f"unknown critical point kind {self.kind!r}")
        if np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")


@dataclass(frozen=True)
class PotentialSpec:
    """A smooth objective together with exact derivatives and annotations.

    ``value``, ``gradient`` and ``hessian`` must accept arrays of shape
    ``(..., dim)``.  Annotated critical points are validated at construction:
    the gradient must vanish there (norm <= 1e-10), the Hessian must be
    symmetric, and the recomputed spectrum must match the annotation and its
    classification (minimizers have all eigenvalues positive, maximizers all
    negative, saddles both signs).
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    critical_points: tuple[CriticalPoint, ...] = ()
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "critical_points", tuple(self.critical_points))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        for cp in self.critical_points:
            if cp.location.shape != (self.dim,):
                raise ValueError(
                    f"critical point location shape {cp.location.shape} != ({self.dim},)"
                )
            g = np.asarray(self.gradient(cp.location), dtype=float)
            if np.linalg.norm(g) > CRITICAL_GRAD_TOL:
                raise ValueError(
                    f"annotated critical point {cp.location} has gradient norm "
                    f"{np.linalg.norm(g):.3e} > {CRITICAL_GRAD_TOL}"
                )
            h = np.asarray(self.hessian(cp.location), dtype=float)
            if not np.allclose(h, h.T, atol=1e-12, rtol=0.0):
                raise ValueError("Hessian is not symmetric at an annotated critical point")
            w = np.sort(np.linalg.eigvalsh(h))[::-1]
            if not np.allclose(w, cp.eigenvalues, atol=1e-8, rtol=1e-8):
                raise ValueError(
                    f"annotated eigenvalues {cp.eigenvalues} do not match Hessian "
                    f"spectrum {w} at {cp.location}"
                )
            if classify_stationary(w) != cp.kind:
                raise ValueError(
                    f"critical point at {cp.location} classified "
                    f"{classify_stationary(w)!r}, annotated {cp.kind!r}"
                )

    def __call__(self, x) -> np.ndarray:
        return self.value(x)

    def minimizers(self) -> tuple[CriticalPoint, ...]:
        return tuple(cp for cp in self.critical_points if cp.kind == MINIMIZER)

    def unstable_points(self) -> tuple[CriticalPoint, ...]:
        """Saddles and maximizers (at least one negative Hessian eigenvalue)."""
        return tuple(cp for cp in self.critical_points if cp.kind != MINIMIZER)

    def global_minimizers(self, tol: float = 1e-12) -> tuple[CriticalPoint, ...]:
        """Annotated minimizers attaining the least objective value."""
        mins = self.minimizers()
        if not mins:
            return ()
        values = np.array([float(self.value(cp.location)) for cp in mins])
        best = values.min()
        return tuple(cp for cp, v in zip(mins, values) if v <= best + tol)


@dataclass(frozen=True)
class FiniteSumSpec:
    """A finite-sum objective ``F = (1/M) sum_i f_i`` for mini-batch sampling.

    ``base`` carries the full objective; ``component_gradients`` are the M
    maps ``x -> grad f_i(x)``, which, like ``PotentialSpec.gradient``,
    accept arrays of shape ``(..., dim)``: the SGD engine evaluates a
    component on a stack of (n, dim) points at once.  Both are checked at
    construction on probe points: each component must map the stacked
    probes row by row to its value at each probe, and the components'
    average must reproduce the base gradient.
    """

    base: PotentialSpec
    component_gradients: tuple[Callable[[np.ndarray], np.ndarray], ...]
    M: int

    def __post_init__(self):
        object.__setattr__(self, "component_gradients", tuple(self.component_gradients))
        if self.M != len(self.component_gradients):
            raise ValueError(
                f"M={self.M} does not match {len(self.component_gradients)} components"
            )
        if self.M < 1:
            raise ValueError("a finite sum needs at least one component")
        d = self.base.dim
        probes = [np.zeros(d), 0.5 * np.ones(d), -1.3 * np.ones(d)]
        rng = np.random.default_rng(0)
        probes.append(rng.uniform(-2.0, 2.0, size=d))
        per_probe = [
            [np.asarray(g(x), dtype=float) for x in probes] for g in self.component_gradients
        ]
        stacked = np.array(probes)
        for i, (g, values) in enumerate(zip(self.component_gradients, per_probe)):
            rows = np.asarray(g(stacked), dtype=float)
            if rows.shape != (len(probes), d) or not np.allclose(
                rows, values, atol=1e-12, rtol=1e-12
            ):
                raise ValueError(
                    f"component gradient {i} does not map an (n, {d}) stack of points "
                    "row by row; component gradients must accept (..., dim) arrays"
                )
        for j, x in enumerate(probes):
            mean = np.mean([values[j] for values in per_probe], axis=0)
            if not np.allclose(mean, self.base.gradient(x), atol=1e-12, rtol=1e-12):
                raise ValueError(
                    "component gradients do not average to the base gradient"
                )

    @property
    def dim(self) -> int:
        return self.base.dim


# ---------------------------------------------------------------------------
# Builtin families.  Module-level functions bound with functools.partial keep
# every spec picklable, which the worker pool relies on.
# ---------------------------------------------------------------------------


def _diag_quad_value(coeffs: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 0.5 * np.sum(coeffs * x * x, axis=-1)


def _diag_quad_gradient(coeffs: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return coeffs * x


def _diag_quad_hessian(coeffs: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    h = np.diag(coeffs)
    return np.broadcast_to(h, x.shape[:-1] + h.shape).copy()


def diagonal_quadratic_coefficients(spec: PotentialSpec) -> np.ndarray | None:
    """The coefficients q of a builtin diagonal quadratic F(x) = sum q_i x_i^2 / 2
    (``quadratic_well``, ``inverted_quadratic``, ``saddle_2d``), else None.

    Read from the bound Hessian, so a spec whose gradient was wrapped (to
    count or time its calls) is still recognised, and a hand-built spec
    never is, whatever its gradient.
    """
    hessian = spec.hessian
    if isinstance(hessian, partial) and hessian.func is _diag_quad_hessian:
        return hessian.args[0]
    return None


def _double_well_value(tilt: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)[..., 0]
    return 0.25 * (x * x - 1.0) ** 2 + tilt * x


def _double_well_gradient(tilt: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = x[..., 0]
    return (s * s * s - s + tilt)[..., None]


def _double_well_hessian(tilt: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = x[..., 0]
    return (3.0 * s * s - 1.0)[..., None, None]


def _cloud_value(centers: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    diffs = x[..., None, :] - centers  # (..., M, d)
    return 0.5 * np.mean(np.sum(diffs * diffs, axis=-1), axis=-1)


def _cloud_gradient(mean_center: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x - mean_center


def _cloud_hessian(dim: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()


def _cloud_component_gradient(center: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x - center


def _require_positive(params: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(list(params), dtype=float)
    if arr.size == 0 or np.any(arr <= 0.0):
        raise ValueError(f"{what} requires strictly positive parameters, got {list(params)}")
    return arr


def _diag_quadratic(name: str, coeffs: np.ndarray, kind: str, params) -> PotentialSpec:
    """F(x) = sum q_i x_i^2 / 2 with one critical point, of ``kind``, at 0.
    Every builtin diagonal quadratic is built here, so its three bound
    ``_diag_quad_*`` maps are what ``diagonal_quadratic_coefficients``
    recognises."""
    cp = CriticalPoint(np.zeros(coeffs.size), kind, np.sort(coeffs)[::-1])
    return PotentialSpec(
        name=name,
        dim=coeffs.size,
        value=partial(_diag_quad_value, coeffs),
        gradient=partial(_diag_quad_gradient, coeffs),
        hessian=partial(_diag_quad_hessian, coeffs),
        critical_points=(cp,),
        params=tuple(params),
    )


def _tilted_double_well(tilt: float) -> PotentialSpec:
    """(x^2-1)^2/4 + tilt*x with critical points located by bracketed roots.

    The gradient x^3 - x + tilt is monotone on each interval delimited by
    +-1/sqrt(3), so each bracket holds exactly one root when the wells have
    not merged (|tilt| < 2/(3*sqrt(3))).
    """
    t_merge = 2.0 / (3.0 * np.sqrt(3.0))
    if abs(tilt) >= t_merge - 1e-9:
        raise ValueError(
            f"tilt {tilt} too large: the double well degenerates at |t| = {t_merge:.6f}"
        )

    def fprime(s: float) -> float:
        return s ** 3 - s + tilt

    elbow = 1.0 / np.sqrt(3.0)
    brackets = [(-2.0, -elbow), (-elbow, elbow), (elbow, 2.0)]
    cps = []
    for lo, hi in brackets:
        root = brentq(fprime, lo, hi, xtol=1e-14, rtol=8.9e-16)
        curv = 3.0 * root * root - 1.0
        kind = MINIMIZER if curv > 0 else MAXIMIZER
        cps.append(CriticalPoint(np.array([root]), kind, np.array([curv])))
    return PotentialSpec(
        name="asym_double_well_1d",
        dim=1,
        value=partial(_double_well_value, tilt),
        gradient=partial(_double_well_gradient, tilt),
        hessian=partial(_double_well_hessian, tilt),
        critical_points=tuple(cps),
        params=(tilt,),
    )


def _double_well_exact() -> PotentialSpec:
    cps = (
        CriticalPoint(np.array([-1.0]), MINIMIZER, np.array([2.0])),
        CriticalPoint(np.array([0.0]), MAXIMIZER, np.array([-1.0])),
        CriticalPoint(np.array([1.0]), MINIMIZER, np.array([2.0])),
    )
    return PotentialSpec(
        name="double_well_1d",
        dim=1,
        value=partial(_double_well_value, 0.0),
        gradient=partial(_double_well_gradient, 0.0),
        hessian=partial(_double_well_hessian, 0.0),
        critical_points=cps,
        params=(),
    )


def gaussian_cloud(centers) -> FiniteSumSpec:
    """Finite sum of components f_i(x) = ||x - c_i||^2 / 2.

    The base objective averages the components; its gradient is x - mean(c).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.ndim != 2:
        raise ValueError("centers must be an (M, dim) array")
    m_count, d = centers.shape
    mean_center = centers.mean(axis=0)
    cp = CriticalPoint(mean_center, MINIMIZER, np.ones(d))
    base = PotentialSpec(
        name="gaussian_cloud_finite_sum",
        dim=d,
        value=partial(_cloud_value, centers),
        gradient=partial(_cloud_gradient, mean_center),
        hessian=partial(_cloud_hessian, d),
        critical_points=(cp,),
        params=tuple(centers.ravel()),
    )
    components = tuple(partial(_cloud_component_gradient, c.copy()) for c in centers)
    return FiniteSumSpec(base=base, component_gradients=components, M=m_count)


def builtin(name: str, params: Sequence[float] = (), dim: int = 1):
    """Construct a builtin objective by name.

    ``params`` meaning per family: eigenvalues for ``quadratic_well``,
    curvatures for ``inverted_quadratic``, ``(gamma1, lam)`` for
    ``saddle_2d``, nothing for ``double_well_1d``, the tilt for
    ``asym_double_well_1d`` (default -0.05), and flattened centers for
    ``gaussian_cloud_finite_sum`` (reshaped to ``(M, dim)``).
    """
    params = tuple(float(p) for p in params)
    if name == "quadratic_well":
        lam = _require_positive(params or (1.0,), name)
        return _diag_quadratic(name, lam, MINIMIZER, lam)
    if name == "inverted_quadratic":
        gam = _require_positive(params or (1.0,), name)
        return _diag_quadratic(name, -gam, MAXIMIZER, gam)
    if name == "saddle_2d":
        params = params or (1.0, 1.0)
        if len(params) != 2:
            raise ValueError(f"saddle_2d takes parameters (gamma1, lam), got {list(params)}")
        gamma1, lam = _require_positive(params, name)
        return _diag_quadratic(name, np.array([-gamma1, lam]), SADDLE, params)
    if name == "double_well_1d":
        if params:
            raise ValueError("double_well_1d takes no parameters")
        return _double_well_exact()
    if name == "asym_double_well_1d":
        if len(params) > 1:
            raise ValueError("asym_double_well_1d takes a single tilt parameter")
        tilt = params[0] if params else -0.05
        if tilt == 0.0:
            raise ValueError("asym_double_well_1d requires a nonzero tilt")
        return _tilted_double_well(tilt)
    if name == "gaussian_cloud_finite_sum":
        if not params:
            raise ValueError("gaussian_cloud_finite_sum requires center coordinates")
        if dim < 1 or len(params) % dim != 0:
            raise ValueError(
                f"{len(params)} center coordinates do not fill (M, {dim}) centers"
            )
        centers = np.asarray(params, dtype=float).reshape(-1, dim)
        return gaussian_cloud(centers)
    raise ValueError(f"unknown builtin potential {name!r}; known: {_BUILTIN_NAMES}")
