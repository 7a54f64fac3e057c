"""Analytic benchmark objectives with gradients, Hessians, and annotated
critical points.

Every builtin family is vectorized over a leading batch axis: ``value`` maps
arrays of shape ``(..., dim)`` to ``(...,)``, ``gradient`` to ``(..., dim)``,
and ``hessian`` to ``(..., dim, dim)``.  The families are smooth and cheap,
so Monte Carlo engines and quadrature oracles can evaluate them freely.

Finite-sum objectives (``F = (1/M) sum_i f_i``) additionally expose the
indexed map of component gradients, which is what mini-batch sampling
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import check_count, check_finite, check_point, check_positive

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
        loc = check_point("critical point location", self.location)
        eig = check_point("critical point eigenvalues", self.eigenvalues)
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

    def __post_init__(self):
        object.__setattr__(self, "critical_points", tuple(self.critical_points))
        check_count("dim", self.dim, 1)
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

    def global_minimizers(self) -> tuple[CriticalPoint, ...]:
        """Annotated minimizers within 1e-12 of the least objective value."""
        mins = self.minimizers()
        if not mins:
            return ()
        values = np.array([float(self.value(cp.location)) for cp in mins])
        best = values.min()
        return tuple(cp for cp, v in zip(mins, values) if v <= best + 1e-12)


@dataclass(frozen=True)
class FiniteSumSpec:
    """A finite-sum objective ``F = (1/M) sum_i f_i`` for mini-batch sampling.

    ``base`` carries the full objective; ``component_gradients`` is the one
    map ``g(x, i) = grad f_i(x)`` of points ``x`` of shape ``(..., dim)`` and
    integer indices ``i`` that broadcast against ``x.shape[:-1]``, so one
    call evaluates any stack of (point, component) pairs.  It is checked at
    construction on probe points (``check_stacked_maps``), one index at a
    time and for all M indices in one call, and so is the components'
    average against the base gradient.
    """

    base: PotentialSpec
    component_gradients: Callable[[np.ndarray, np.ndarray], np.ndarray]
    M: int

    def __post_init__(self):
        check_count("M", self.M, 1)
        g, M = self.component_gradients, self.M
        maps = [lambda x, i=i: g(x, i) for i in range(M)]
        probes, values = check_stacked_maps(maps, "component gradient {}", np.zeros(self.base.dim))
        values = np.stack(values, axis=1)  # (probes, M, dim)
        got = np.asarray(g(probes[:, None, :], np.arange(M)), dtype=float)
        if got.shape != values.shape or not np.allclose(got, values, 1e-12, 1e-12, equal_nan=True):
            raise ValueError("component gradients do not map a stack of indices one by one: "
                             "g(x, i) must broadcast i against x.shape[:-1]")
        if not np.allclose(values.mean(axis=1), self.base.gradient(probes), 1e-12, 1e-12):
            raise ValueError("component gradients do not average to the base gradient")

    @property
    def dim(self) -> int:
        return self.base.dim


def check_stacked_maps(fns, what: str, center: np.ndarray, radius: float = 1.0):
    """The probes, ``center`` plus ``radius`` times 0, 0.5, -1.3 and a fixed
    U(-2, 2) draw per axis, and each map's values at them.  Raises
    ``ValueError`` naming map i as ``what.format(i)`` unless it maps the
    (n, d) stack of probes row by row to those values: a map written for
    one point (``x[0]`` taken as a coordinate) would give every row row 0's
    value."""
    d = center.size
    rng = np.random.default_rng(0)
    offsets = np.stack([np.zeros(d), np.full(d, 0.5), np.full(d, -1.3), rng.uniform(-2.0, 2.0, d)])
    probes = center + radius * offsets
    per_map = []
    for i, fn in enumerate(fns):
        values = np.array([np.asarray(fn(x), dtype=float) for x in probes])
        got = np.asarray(fn(probes), dtype=float)
        if got.shape != values.shape or not np.allclose(got, values, 1e-12, 1e-12, equal_nan=True):
            raise ValueError(f"{what.format(i)} does not map a stack of points row by row: "
                             f"it must take (..., d) arrays, d = {d}")
        per_map.append(values)
    return probes, per_map


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
    return _bound_argument(spec, _diag_quad_hessian)


def _bound_argument(spec: PotentialSpec, hessian_fn: Callable):
    """The argument a builtin family bound into the spec's Hessian, if that
    Hessian is ``hessian_fn``'s partial, else None."""
    hessian = spec.hessian
    if isinstance(hessian, partial) and hessian.func is hessian_fn:
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


def double_well_tilt(spec: PotentialSpec) -> float | None:
    """The tilt t of a builtin double well F(x) = (x^2 - 1)^2 / 4 + t x
    (``double_well_1d``, t = 0, and ``asym_double_well_1d``), else None.

    Read from the bound Hessian, as ``diagonal_quadratic_coefficients`` is,
    so a wrapped gradient is still recognised and a hand-built spec never is.
    """
    tilt = _bound_argument(spec, _double_well_hessian)
    return None if tilt is None else float(tilt)


def _cloud_value(centers: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    diffs = x[..., None, :] - centers  # (..., M, d)
    return 0.5 * np.mean(np.sum(diffs * diffs, axis=-1), axis=-1)


def _cloud_gradient(centers: np.ndarray, x, i) -> np.ndarray:
    """x - c_i, component i's gradient, for each (point, index) pair.  The
    base's, x - mean(c), is component 0 of the cloud of the mean centre."""
    x = np.asarray(x, dtype=float)
    return x - centers[i]


def _cloud_hessian(dim: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()


def _diag_quadratic(name: str, coeffs: np.ndarray, kind: str) -> PotentialSpec:
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
    )


def sign_change(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Bisect a bracket across which ``f`` changes sign down to two adjacent
    floats, and return them as ``(lo', hi')`` with f(lo') of f(lo)'s sign and
    f(hi') of f(hi)'s.  A midpoint where ``f`` is exactly zero is returned
    as ``(z, z)``.  ``f`` is evaluated at ``lo`` and at each midpoint
    ``0.5 * (lo + hi)``, never at ``hi``, and its own arithmetic is plain
    IEEE double, so for an ``f`` that is too the ends are the same bits on
    any machine.
    """
    lo, hi = float(lo), float(hi)
    low_negative = f(lo) < 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        f_mid = f(mid)
        if f_mid == 0:
            return mid, mid
        if (f_mid < 0) == low_negative:
            lo = mid
        else:
            hi = mid


def _double_well(name: str, tilt: float) -> PotentialSpec:
    """(x^2-1)^2/4 + tilt*x, with its three critical points.  Both builtin
    double wells are built here, so their bound ``_double_well_*`` maps are
    what ``double_well_tilt`` recognises.

    The gradient x^3 - x + tilt is monotone on each interval delimited by
    +-1/sqrt(3), so each bracket holds exactly one root when the wells have
    not merged (|tilt| < 2/(3*sqrt(3))).  ``sign_change`` bisects the
    gradient, computed as ``_double_well_gradient`` computes it, on each
    bracket, and the critical point is the end of the final pair with the
    smaller |gradient|.  At tilt 0 the middle bracket's first midpoint is
    the exact root 0, and the outer roots come out as -1 and 1, so the
    curvatures 3 x^2 - 1 are 2, -1 and 2 exactly.
    """
    t_merge = 2.0 / (3.0 * np.sqrt(3.0))
    if abs(tilt) >= t_merge - 1e-9:
        raise ValueError(
            f"tilt {tilt} too large: the double well degenerates at |t| = {t_merge:.6f}"
        )
    grad = lambda s: s * s * s - s + tilt
    elbow = 1.0 / np.sqrt(3.0)
    cps = []
    for lo, hi in [(-2.0, -elbow), (-elbow, elbow), (elbow, 2.0)]:
        root = min(sign_change(grad, lo, hi), key=lambda s: abs(grad(s)))
        curv = 3.0 * root * root - 1.0
        kind = MINIMIZER if curv > 0 else MAXIMIZER
        cps.append(CriticalPoint(np.array([root]), kind, np.array([curv])))
    return PotentialSpec(
        name=name,
        dim=1,
        value=partial(_double_well_value, tilt),
        gradient=partial(_double_well_gradient, tilt),
        hessian=partial(_double_well_hessian, tilt),
        critical_points=tuple(cps),
    )


def gaussian_cloud(centers) -> FiniteSumSpec:
    """Finite sum of components f_i(x) = ||x - c_i||^2 / 2.

    The base objective averages the components; its gradient is x - mean(c).
    """
    centers = np.array(centers, dtype=float, ndmin=2)
    if centers.ndim != 2:
        raise ValueError("centers must be an (M, dim) array")
    check_finite("centers", centers)
    m_count, d = centers.shape
    mean_center = centers.mean(axis=0)
    cp = CriticalPoint(mean_center, MINIMIZER, np.ones(d))
    base = PotentialSpec(
        name="gaussian_cloud_finite_sum",
        dim=d,
        value=partial(_cloud_value, centers),
        gradient=partial(_cloud_gradient, mean_center[None], i=0),
        hessian=partial(_cloud_hessian, d),
        critical_points=(cp,),
    )
    return FiniteSumSpec(base, partial(_cloud_gradient, centers), m_count)


def builtin(name: str, params: Sequence[float] = (), dim: int = 1):
    """Construct a builtin objective by name.

    ``params`` meaning per family: eigenvalues for ``quadratic_well``,
    curvatures for ``inverted_quadratic``, ``(gamma1, lam)`` for
    ``saddle_2d``, nothing for ``double_well_1d``, the tilt for
    ``asym_double_well_1d`` (default -0.05), and flattened centers for
    ``gaussian_cloud_finite_sum`` (reshaped to ``(M, dim)``).  Only that
    family reads ``dim``; the others refuse any ``dim`` but 1.
    """
    if dim != 1 and name in _BUILTIN_NAMES and name != "gaussian_cloud_finite_sum":
        raise ValueError(f"{name} takes no dim (only gaussian_cloud_finite_sum does), got {dim}")
    params = tuple(float(p) for p in params)
    if name in ("quadratic_well", "inverted_quadratic", "saddle_2d"):
        params = params or ((1.0, 1.0) if name == "saddle_2d" else (1.0,))
        if name == "saddle_2d" and len(params) != 2:
            raise ValueError(f"saddle_2d takes parameters (gamma1, lam), got {list(params)}")
        q = np.array([check_positive(f"{name} params", p) for p in params])
        if name == "quadratic_well":
            return _diag_quadratic(name, q, MINIMIZER)
        if name == "inverted_quadratic":
            return _diag_quadratic(name, -q, MAXIMIZER)
        return _diag_quadratic(name, np.array([-q[0], q[1]]), SADDLE)
    if name == "double_well_1d":
        if params:
            raise ValueError("double_well_1d takes no parameters")
        return _double_well(name, 0.0)
    if name == "asym_double_well_1d":
        if len(params) > 1:
            raise ValueError("asym_double_well_1d takes a single tilt parameter")
        tilt = check_finite("asym_double_well_1d tilt", params[0] if params else -0.05)
        if tilt == 0.0:
            raise ValueError("asym_double_well_1d requires a nonzero tilt")
        return _double_well(name, tilt)
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
