"""Exception types shared across the package, and the argument checks.

The checks are the package's one copy of each argument rule.  Every public
constructor and entry point calls them on its arguments, before any path
runs; they read arguments, never a path's state, so no drift, noise map or
step calls them (``MinibatchOracle.batch``, which a chain's kernel calls
per draw, checks its batch size).  Each raises a ``ValueError`` that names
the argument and the value it got.
"""

import math
import operator

import numpy as np


class SgdLabError(Exception):
    """Base class for errors raised by sgdlab."""


class ConfigError(SgdLabError):
    """Invalid experiment configuration (unknown key, bad value, missing input)."""


class NumericalError(SgdLabError):
    """A simulation or solver produced a non-finite or unusable state."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def check_positive(name: str, value):
    """``value``, unless it is not in (0, inf): nan is refused too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_non_negative(name: str, value):
    """``value``, unless it is not in [0, inf): nan is refused too."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return value


def check_finite(name: str, values):
    """``values`` (a number or an array of any shape), unless an entry is
    nan or infinite; the error lists the values."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {np.asarray(values, dtype=float).tolist()}")
    return values


def check_point(name: str, x) -> np.ndarray:
    """``x`` as a 1-D float array, unless an entry is nan or infinite."""
    return check_finite(name, np.atleast_1d(np.asarray(x, dtype=float)))


def check_dimension(name: str, x, dim: int):
    """``x``, unless its size is not ``dim``, the dimension of the domain it
    starts in."""
    if np.size(x) != dim:
        raise ValueError(f"{name} has {np.size(x)} coordinates, but the domain has {dim}")
    return x


def check_count(name: str, value, least: int = 0, purpose: str = "") -> int:
    """``value`` as an int, unless it is not an integer or is below
    ``least``: "<name> must be non-negative" for 0, else "<name> must be at
    least <least><purpose>"."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        bound = "non-negative" if least == 0 else f"at least {least}{purpose}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return n


def check_oracle_potential(potential, oracle):
    """``potential``, unless it is not the very object ``oracle`` draws its
    gradients from (``oracle.potential``; a mini-batch oracle's finite sum's
    base): an entry point that runs the chain on one and its diffusion or
    flow on the other would compare two objectives."""
    if potential is not oracle.potential:
        raise ValueError(
            f"potential {potential.name!r} is not the oracle's potential "
            f"{oracle.potential.name!r}: pass oracle.potential"
        )
    return potential
