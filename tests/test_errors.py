"""The argument checks of ``errors.py`` and the entry points that call them."""

import math
import re

import numpy as np
import pytest

from sgdlab import (
    AdditiveGaussianOracle,
    CriticalPoint,
    Domain,
    SdeConfig,
    SgdConfig,
    builtin,
    em_endpoints,
    gaussian_cloud,
    hitting_time_mc,
    run_sgd_ensemble,
)
from sgdlab.errors import (
    check_count, check_dimension, check_finite, check_non_negative, check_point, check_positive,
)

WELL = builtin("quadratic_well")
DOUBLE_WELL = builtin("double_well_1d")
ORACLE = AdditiveGaussianOracle.isotropic(WELL, 1.0)
SDE = dict(potential=WELL, eta=0.1, dt=0.01, T=1.0, x0=[0.5])

#: Inputs each constructor or entry point used to accept (a negative path
#: count as no paths), or to refuse under the name of another rule (a nan
#: curvature as an asymmetric Hessian, a nan tilt as a bracket whose ends
#: have the same sign), with the error that names them.
REFUSED = {
    "quadratic_well-inf": (
        lambda: builtin("quadratic_well", (math.inf,)),
        "quadratic_well params must be positive and finite, got inf",
    ),
    "quadratic_well-nan": (
        lambda: builtin("quadratic_well", (math.nan,)),
        "quadratic_well params must be positive and finite, got nan",
    ),
    "inverted_quadratic-inf": (
        lambda: builtin("inverted_quadratic", (math.inf,)),
        "inverted_quadratic params must be positive and finite, got inf",
    ),
    "saddle_2d-nan": (
        lambda: builtin("saddle_2d", (math.nan, 1.0)),
        "saddle_2d params must be positive and finite, got nan",
    ),
    "asym_double_well_1d-nan": (
        lambda: builtin("asym_double_well_1d", (math.nan,)),
        "asym_double_well_1d tilt must be finite, got nan",
    ),
    "gaussian_cloud-inf": (
        lambda: gaussian_cloud([[0.0], [math.inf]]),
        "centers must be finite, got [[0.0], [inf]]",
    ),
    "SdeConfig-x0": (
        lambda: SdeConfig(**{**SDE, "x0": [math.nan]}),
        "x0 must be finite, got [nan]",
    ),
    "SdeConfig-diffusion": (
        lambda: SdeConfig(**SDE, diffusion=math.nan),
        "diffusion must be finite, got nan",
    ),
    "SgdConfig-x0": (
        lambda: SgdConfig(eta=0.1, steps=3, x0=[math.nan], oracle=ORACLE),
        "x0 must be finite, got [nan]",
    ),
    "AdditiveGaussianOracle-covariance": (
        lambda: AdditiveGaussianOracle(DOUBLE_WELL, [[math.nan]]),
        "covariance must be finite, got [[nan]]",
    ),
    "CriticalPoint-location": (
        lambda: CriticalPoint([math.nan], "minimizer", [1.0]),
        "critical point location must be finite, got [nan]",
    ),
    "hitting_time_mc-n_paths": (
        lambda: hitting_time_mc(SdeConfig(**SDE), Domain.interval(-1.0, 1.0), -1, 1.0),
        "n_paths must be non-negative, got -1",
    ),
    "em_endpoints-n_paths": (
        lambda: em_endpoints(SdeConfig(**SDE), -1),
        "n_paths must be non-negative, got -1",
    ),
    "run_sgd_ensemble-n_paths": (
        lambda: run_sgd_ensemble(SgdConfig(eta=0.1, steps=3, x0=[0.5], oracle=ORACLE), -1),
        "n_paths must be non-negative, got -1",
    ),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_bad_number_is_refused_where_it_enters(case):
    build, message = REFUSED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_each_check_returns_what_it_was_given():
    x = check_point("x", [1, 2])
    assert x.dtype == float and x.tolist() == [1.0, 2.0]
    assert check_point("x", 3.0).shape == (1,)
    assert check_positive("eta", 1) == 1
    assert check_non_negative("sigma", 0.0) == 0.0
    assert check_finite("x0", -2.5) == -2.5
    assert check_count("n_paths", np.int64(3), 2) == 3
    assert check_count("steps", 0) == 0
    assert check_dimension("x0", x, 2) is x


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: check_positive("eta", 0.0), "eta must be positive and finite, got 0.0"),
        (lambda: check_non_negative("gamma", -1), "gamma must be non-negative and finite, got -1"),
        (lambda: check_point("x0", [1.0, -math.inf]), "x0 must be finite, got [1.0, -inf]"),
        (lambda: check_count("seed", -1), "seed must be non-negative, got -1"),
        (
            lambda: check_count("n_paths", 1, 2, " for a sample variance"),
            "n_paths must be at least 2 for a sample variance, got 1",
        ),
        (lambda: check_count("block", 2.0, 1), "block must be an integer, got 2.0"),
        (
            lambda: check_dimension("x0", np.zeros(2), 1),
            "x0 has 2 coordinates, but the domain has 1",
        ),
    ],
    ids=["positive", "non-negative", "point", "count-0", "count-2", "integer", "dimension"],
)
def test_each_check_names_the_argument_and_its_value(check, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check()
