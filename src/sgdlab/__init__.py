"""sgdlab: SGD as a Markov chain, its diffusion limits, and exit-time laws.

A numerical laboratory for studying constant-step stochastic gradient
descent on analytic objectives: exact mini-batch gradient covariances,
weak-order ladders against first- and second-order diffusion
approximations, first-exit asymptotics from minimizers and unstable
points, logarithmic-cooling annealing, and normal deviations around the
gradient flow.  All Monte Carlo is deterministic given (seed, config),
independent of worker count.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError, SgdLabError
from .exit_times import (
    AnnealResult,
    Domain,
    ExitRecord,
    ExitStats,
    ScalingEntry,
    ScalingReport,
    anneal_experiment,
    exit_time_stats,
    flow_exit_time,
    hitting_time_mc,
    kramers_predictor,
    log_mean_exit_bvp_1d,
    mean_exit_bvp_1d,
    minimizer_scaling_fit,
    quasi_potential_isotropic,
    saddle_scaling_fit,
)
from .oracles import (
    AdditiveGaussianOracle,
    CovarianceReport,
    MinibatchOracle,
    component_gradients,
    covariance_report,
    enumerate_covariance,
    minibatch_covariance,
    population_covariance,
    psd_sqrt,
)
from .potentials import (
    CriticalPoint,
    FiniteSumSpec,
    PotentialSpec,
    builtin,
    classify_stationary,
    gaussian_cloud,
)
from .sde import (
    DeviationReport,
    SdeConfig,
    deviation_covariance,
    deviation_empirical,
    em_endpoints,
    flow_knots,
    flow_sup_gap,
    ou_moments,
)
from .sgd import (
    BatchSchedule,
    EnsembleResult,
    SgdConfig,
    Trajectory,
    run_sgd,
    run_sgd_ensemble,
    schedule_m,
)
from .streams import path_streams
from .weak_error import (
    DEFAULT_SUITE,
    OrderFit,
    TestFunction,
    WeakErrorPoint,
    WeakErrorReport,
    gauss_hermite_expectation,
    order_fit,
    sgd_moments_linear,
    weak_error_ladder_linear,
    weak_error_linear,
    weak_error_mc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
