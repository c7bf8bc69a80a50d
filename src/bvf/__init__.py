"""bvf: bivariate Lehmann-family models for dependent competing risks.

A pair of dependent lifetimes is built from three independent shocks sharing
a baseline survival function raised to frailty powers; observing only the
first failure and its cause (with ties as a genuine outcome) yields
competing-risks data this package samples exactly, fits by profile
likelihood, and studies by Monte Carlo. See the README for a tour.
"""

from .baselines import BaselineKind, f0, h0, log_f0, log_s0, s0, s0_inv
from .bvf_model import (
    BvfParams,
    OrderingProbabilities,
    censoring_threshold,
    joint_survival,
    jpdf_ac,
    sample,
    singular_density,
    tie_probability,
)
from .data_model import (
    CompetingRisksData,
    FailureMode,
    from_bivariate,
    load_csv,
    save_csv,
)
from .errors import (
    BvfError,
    DegenerateDataError,
    DomainError,
    EstimationError,
    ParseError,
    ResampleFailureError,
    SelectionError,
    SingularMatrixError,
    ValidationError,
)
from .inference import (
    CiMethod,
    ConfidenceIntervalSet,
    FitResult,
    FitStatus,
    alphas_given_lambda,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    log_likelihood,
    observed_fisher,
    percentile_ranks,
    profile_loglik,
)
from .selection import SelectionResult, aic, select_model
from .simulation import (
    EstimationStudyConfig,
    EstimationStudyReport,
    SelectionStudyConfig,
    SelectionStudyReport,
    relative_metrics,
    run_estimation_study,
    run_selection_study,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BaselineKind",
    "s0",
    "log_s0",
    "f0",
    "log_f0",
    "h0",
    "s0_inv",
    "BvfParams",
    "OrderingProbabilities",
    "joint_survival",
    "jpdf_ac",
    "singular_density",
    "tie_probability",
    "sample",
    "censoring_threshold",
    "FailureMode",
    "CompetingRisksData",
    "from_bivariate",
    "load_csv",
    "save_csv",
    "BvfError",
    "DomainError",
    "ValidationError",
    "ParseError",
    "EstimationError",
    "DegenerateDataError",
    "SingularMatrixError",
    "ResampleFailureError",
    "SelectionError",
    "FitStatus",
    "FitResult",
    "CiMethod",
    "ConfidenceIntervalSet",
    "log_likelihood",
    "alphas_given_lambda",
    "profile_loglik",
    "fit_mle",
    "observed_fisher",
    "asymptotic_ci",
    "bootstrap_ci",
    "percentile_ranks",
    "SelectionResult",
    "aic",
    "select_model",
    "EstimationStudyConfig",
    "EstimationStudyReport",
    "SelectionStudyConfig",
    "SelectionStudyReport",
    "relative_metrics",
    "run_estimation_study",
    "run_selection_study",
]
