"""Stochastic gradient oracles and their noise covariance laws.

Two oracle kinds are provided.  ``AdditiveGaussianOracle`` returns the exact
gradient plus ``S(x) xi`` with ``S = sqrt(Sigma)``.  ``MinibatchOracle``
averages the gradients of a uniformly sampled batch of components of a
finite-sum objective.

For batches of size m drawn without replacement from M components the
single-step noise covariance is exactly

    Sigma(x) = (1/m - 1/M) * Sigma0(x),
    Sigma0(x) = (1/(M-1)) sum_i (grad F - grad f_i)(grad F - grad f_i)^T,

while sampling with replacement gives (1/m) times the population covariance
(normalized by M instead of M-1).  ``enumerate_covariance`` verifies either
law by brute-force enumeration of all batches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .potentials import FiniteSumSpec, PotentialSpec

WITHOUT_REPLACEMENT = "without_replacement"
WITH_REPLACEMENT = "with_replacement"

#: Enumeration guard: refuse brute force beyond this many batches.
MAX_ENUMERATION = 10**6


def psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-12 * ||Sigma||_F, 0) are clamped to zero; anything
    more negative raises, as does an asymmetric input.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    scale = np.linalg.norm(sigma)
    if np.abs(sigma - sigma.T).max(initial=0.0) > 1e-12 * max(1.0, scale):
        raise ValueError("covariance matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    floor = -1e-12 * scale
    if w.min(initial=0.0) < floor:
        raise ValueError(
            f"covariance is not positive semidefinite: min eigenvalue {w.min():.3e}"
        )
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


@dataclass(frozen=True)
class AdditiveGaussianOracle:
    """Exact gradient plus Gaussian noise with covariance Sigma(x).

    ``covariance`` is either a constant matrix or a map x -> matrix.  The
    matrix square root of a constant covariance is computed once.
    """

    potential: PotentialSpec
    covariance: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]

    @classmethod
    def isotropic(cls, potential: PotentialSpec, sigma: float) -> "AdditiveGaussianOracle":
        """Oracle with constant covariance sigma^2 * I."""
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        return cls(potential, (sigma**2) * np.eye(potential.dim))

    @cached_property
    def diffusion(self) -> Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """The diffusion side S of the oracle: the constant root of a constant
        covariance, else the map ``diffusion_at``.  Every engine reads the
        noise law here and nowhere else."""
        if callable(self.covariance):
            return self.diffusion_at
        return psd_sqrt(self.covariance)

    def covariance_at(self, x) -> np.ndarray:
        if callable(self.covariance):
            return np.atleast_2d(np.asarray(self.covariance(x), dtype=float))
        return np.atleast_2d(np.asarray(self.covariance, dtype=float))

    def diffusion_at(self, x) -> np.ndarray:
        """S(x) = sqrt(Sigma(x))."""
        if callable(self.covariance):
            return psd_sqrt(self.covariance_at(x))
        return self.diffusion

    def sample(self, x, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
        if m is not None:
            raise ValueError("batch size override only applies to mini-batch oracles")
        x = np.asarray(x, dtype=float)
        xi = rng.standard_normal(self.potential.dim)
        return np.asarray(self.potential.gradient(x), dtype=float) + self.diffusion_at(x) @ xi


@dataclass(frozen=True)
class MinibatchOracle:
    """Average gradient over a uniformly sampled batch of components."""

    fs: FiniteSumSpec
    m: int
    mode: str = WITHOUT_REPLACEMENT

    def __post_init__(self):
        if self.mode not in (WITHOUT_REPLACEMENT, WITH_REPLACEMENT):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        _check_batch_size(self.m, self.fs.M)

    @property
    def potential(self) -> PotentialSpec:
        return self.fs.base

    @property
    def diffusion(self) -> Callable[[np.ndarray], np.ndarray]:
        """The diffusion side S of the oracle: the map ``diffusion_at``, since
        a finite sum's noise depends on the state."""
        return self.diffusion_at

    def covariance_at(self, x, m: int | None = None) -> np.ndarray:
        m = self.m if m is None else m
        if self.mode == WITHOUT_REPLACEMENT:
            return minibatch_covariance(self.fs, x, m)
        _check_batch_size(m, self.fs.M, with_replacement=True)
        return population_covariance(self.fs, x) / m

    def diffusion_at(self, x, m: int | None = None) -> np.ndarray:
        return psd_sqrt(self.covariance_at(x, m=m))

    def batch(self, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
        """The component indices of one uniformly drawn batch of size m."""
        m = self.m if m is None else m
        big = self.fs.M
        if self.mode == WITHOUT_REPLACEMENT:
            _check_batch_size(m, big)
            return rng.choice(big, size=m, replace=False)
        _check_batch_size(m, big, with_replacement=True)
        return rng.integers(0, big, size=m)

    def sample(self, x, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        grads = [self.fs.component_gradients[i](x) for i in self.batch(rng, m)]
        return np.mean(grads, axis=0)


GradientOracle = Union[AdditiveGaussianOracle, MinibatchOracle]


def _check_batch_size(m: int, big: int, with_replacement: bool = False) -> None:
    if big < 1:
        raise ValueError(f"need at least one component, got M={big}")
    if m < 1:
        raise ValueError(f"batch size must be >= 1, got m={m}")
    if not with_replacement and m > big:
        raise ValueError(f"batch size m={m} exceeds the number of components M={big}")


def component_gradients(fs: FiniteSumSpec, x) -> np.ndarray:
    """Stacked component gradients, shape (M, dim)."""
    x = np.asarray(x, dtype=float)
    return np.stack([g(x) for g in fs.component_gradients])


def population_covariance(fs: FiniteSumSpec, x) -> np.ndarray:
    """Covariance of a single uniformly drawn component gradient (1/M norm)."""
    grads = component_gradients(fs, x)
    dev = grads - np.asarray(fs.base.gradient(x), dtype=float)
    return (dev.T @ dev) / fs.M


def minibatch_covariance(fs: FiniteSumSpec, x, m: int) -> np.ndarray:
    """Exact noise covariance (1/m - 1/M) Sigma0(x) for sampling without replacement."""
    _check_batch_size(m, fs.M)
    if fs.M < 2:
        raise ValueError("the without-replacement law needs M >= 2 components")
    grads = component_gradients(fs, x)
    dev = grads - np.asarray(fs.base.gradient(x), dtype=float)
    sigma0 = (dev.T @ dev) / (fs.M - 1)
    return (1.0 / m - 1.0 / fs.M) * sigma0


def enumerate_covariance(
    fs: FiniteSumSpec, x, m: int, mode: str = WITHOUT_REPLACEMENT
) -> np.ndarray:
    """Exact batch-mean covariance by enumerating every possible batch.

    Enumerates all C(M, m) subsets (or all M^m ordered tuples when sampling
    with replacement) and returns E[g g^T] - E[g] E[g]^T.  Refuses more than
    ``MAX_ENUMERATION`` batches.
    """
    _check_batch_size(m, fs.M, with_replacement=(mode == WITH_REPLACEMENT))
    if mode == WITHOUT_REPLACEMENT:
        count = math.comb(fs.M, m)
        batches = itertools.combinations(range(fs.M), m)
    elif mode == WITH_REPLACEMENT:
        count = fs.M**m
        batches = itertools.product(range(fs.M), repeat=m)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if count > MAX_ENUMERATION:
        raise ValueError(
            f"enumeration of {count} batches exceeds the {MAX_ENUMERATION} guard"
        )
    grads = component_gradients(fs, x)
    d = grads.shape[1]
    mean = np.zeros(d)
    second = np.zeros((d, d))
    for batch in batches:
        g = grads[list(batch)].mean(axis=0)
        mean += g
        second += np.outer(g, g)
    mean /= count
    second /= count
    return second - np.outer(mean, mean)


@dataclass(frozen=True)
class CovarianceReport:
    """Side-by-side closed-form and enumerated batch covariance."""

    M: int
    m: int
    mode: str
    formula: np.ndarray
    enumerated: np.ndarray
    max_abs_diff: float


def covariance_report(
    fs: FiniteSumSpec, x, m: int, mode: str = WITHOUT_REPLACEMENT
) -> CovarianceReport:
    """Compare the closed-form covariance law against enumeration."""
    if mode == WITHOUT_REPLACEMENT:
        formula = minibatch_covariance(fs, x, m)
    else:
        formula = population_covariance(fs, x) / m
    enumerated = enumerate_covariance(fs, x, m, mode=mode)
    return CovarianceReport(
        M=fs.M,
        m=m,
        mode=mode,
        formula=formula,
        enumerated=enumerated,
        max_abs_diff=float(np.abs(formula - enumerated).max()),
    )
