"""riskchoice: symbolic, raw-feature, and prospect-theoretic models of
binary risky choice, with a synthetic data generator and a reproducible
experiment pipeline."""

from .cpt import (
    CptFit,
    CptParams,
    choice_prob_array,
    cpt_log_likelihood,
    fit_cpt,
    sample_value_curve,
    sample_weight_curve,
)
from .errors import (
    ConfigError,
    DataParseError,
    EstimationError,
    InputError,
    NumericalError,
    RiskChoiceError,
    UndefinedEffectSizeError,
    UndefinedMetricError,
    UsageError,
)
from .evaluation import EvalMetrics, accuracy, auc, evaluate_predictions, split
from .features import (
    EffectSizeReport,
    cramers_v,
    design_matrix,
    eta_squared,
    select_features,
)
from .glm import FittedLogistic, fit_logistic, log_likelihood, sigmoid
from .pipeline import ExperimentConfig, ExperimentReport, run_experiment
from .scenario import (
    DEFAULT_TRUE_COEFFS,
    GeneratorConfig,
    ScenarioArrays,
    as_arrays,
    generate_dataset,
    read_dataset_csv,
    write_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CptFit",
    "CptParams",
    "choice_prob_array",
    "cpt_log_likelihood",
    "fit_cpt",
    "sample_value_curve",
    "sample_weight_curve",
    "ConfigError",
    "DataParseError",
    "EstimationError",
    "InputError",
    "NumericalError",
    "RiskChoiceError",
    "UndefinedEffectSizeError",
    "UndefinedMetricError",
    "UsageError",
    "EvalMetrics",
    "accuracy",
    "auc",
    "evaluate_predictions",
    "split",
    "EffectSizeReport",
    "cramers_v",
    "design_matrix",
    "eta_squared",
    "select_features",
    "FittedLogistic",
    "fit_logistic",
    "log_likelihood",
    "sigmoid",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "DEFAULT_TRUE_COEFFS",
    "GeneratorConfig",
    "ScenarioArrays",
    "as_arrays",
    "generate_dataset",
    "read_dataset_csv",
    "write_dataset_csv",
]
