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

    ``base`` carries the full objective; ``component_gradients`` are the M
    maps ``x -> grad f_i(x)``, which, like ``PotentialSpec.gradient``, take
    stacks of points, ``(..., dim)``.  Both are checked at construction on
    probe points (``check_stacked_maps``), and so is the components' average
    against the base gradient.
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
        check_count("M", self.M, 1)
        probes, values = check_stacked_maps(
            self.component_gradients, "component gradient {}", np.zeros(self.base.dim)
        )
        mean = np.mean(values, axis=0)
        if not np.allclose(mean, self.base.gradient(probes), atol=1e-12, rtol=1e-12):
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


def _cloud_gradient(mean_center: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x - mean_center


def _cloud_hessian(dim: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()


def _cloud_component_gradient(center: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x - center


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


def _brentq(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The root of ``f`` in [lo, hi] by Brent's method (Brent 1973, ch. 4).

    A statement-for-statement port of scipy's C ``brentq``
    (``scipy/optimize/Zeros/brentq.c``) called as ``brentq(f, lo, hi,
    xtol=1e-14, rtol=8.9e-16)``: it evaluates ``f`` at the same Python floats
    and runs the same IEEE double operations in the same order, so it returns
    the same root bit for bit without importing scipy.  A bracket whose ends
    have the same sign raises ``ValueError``, and 100 iterations without
    convergence raise ``RuntimeError``, as ``brentq`` does.  Where C would
    divide by zero (an extrapolation whose secant slopes underflow, which no
    bracket of the tilted well's gradient reaches), Python raises instead.
    """
    xtol, rtol = 1e-14, 8.9e-16
    xpre, xcur = float(lo), float(hi)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # For nonzero values, ``x < 0`` is C's ``signbit(x)``.
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def _double_well(name: str, tilt: float) -> PotentialSpec:
    """(x^2-1)^2/4 + tilt*x, with its three critical points.  Both builtin
    double wells are built here, so their bound ``_double_well_*`` maps are
    what ``double_well_tilt`` recognises.

    At tilt 0 the roots of the gradient x^3 - x + tilt are -1, 0 and 1
    exactly, and so are the curvatures 3 x^2 - 1 there (2, -1 and 2).
    Otherwise the gradient is monotone on each interval delimited by
    +-1/sqrt(3), so each bracket holds exactly one root when the wells have
    not merged (|tilt| < 2/(3*sqrt(3))).  ``_brentq`` finds each root by
    Brent's method (Brent 1973) and returns what scipy's ``brentq`` returns,
    bit for bit, so the critical points, and the annealing start point and
    targets read from them, are those of the scipy-built well.
    """
    t_merge = 2.0 / (3.0 * np.sqrt(3.0))
    if abs(tilt) >= t_merge - 1e-9:
        raise ValueError(
            f"tilt {tilt} too large: the double well degenerates at |t| = {t_merge:.6f}"
        )
    if tilt == 0.0:
        roots = [-1.0, 0.0, 1.0]
    else:
        elbow = 1.0 / np.sqrt(3.0)
        brackets = [(-2.0, -elbow), (-elbow, elbow), (elbow, 2.0)]
        roots = [_brentq(lambda s: s ** 3 - s + tilt, lo, hi) for lo, hi in brackets]
    cps = []
    for root in roots:
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
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
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
        gradient=partial(_cloud_gradient, mean_center),
        hessian=partial(_cloud_hessian, d),
        critical_points=(cp,),
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
