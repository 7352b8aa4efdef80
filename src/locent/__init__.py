"""Local metric entropy, multiscale packing estimation, and minimax-rate
experiments for bounded convex function classes."""

__version__ = "0.1.0"  # defined before the submodules, which import it

from .bodies import (
    ConvexBody,
    DesignDistribution,
    HolderGrid,
    LinearEllipsoid,
    LinearL1,
    MonotoneGrid,
    dist,
    make_body,
    moment_ratio_check,
)
from .entropy import (
    EntropyBudget,
    EntropyProfile,
    exact_local_entropy,
    local_entropy,
)
from .estimator import (
    EstimatorTrace,
    NoiseModel,
    PoolBudget,
    RateConstants,
    RegressionData,
    pairwise_test_psi,
    run_algorithm1,
    stage_schedule,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    TruthSpec,
    check_norm_concentration,
    check_test_error,
    fit_rate_slope,
    run_experiment,
)
from .packing import exhaustive_max_packing, greedy_max_packing
from .rates import (
    RateCertificate,
    certify_lower_bound,
    kolmogorov_index,
    solve_eps_star,
    theoretical_rate,
)
from .widths import WidthEstimate, gaussian_width, sudakov_entropy_bound
