"""Differentially private recurrent forecasting for aggregated count series.

The package trains LSTM/GRU forecasters (optionally bidirectional) on
multivariate count time series under two privacy regimes — Gaussian-noise
input perturbation and DP-SGD gradient perturbation — with a Renyi-DP
accountant, a sequential-composition budget ledger, and an evaluation
harness built around a persistence baseline and per-region RMSE/MAE.
"""

from .core import RngStream, finite_diff_grad, gaussian_sample, logsumexp
from .data import (
    DataFormatError,
    MinMaxScaler,
    MobilitySeries,
    WindowedDataset,
    descriptive_stats,
    feature_matrix,
    iqr_clean,
    load_csv,
    make_windows,
    split,
)
from .forecast import (
    InputRelease,
    MetricsReport,
    ModelConfig,
    RunArtifact,
    TrainConfig,
    evaluate_forecast,
    fit_release,
    input_release,
    mae,
    persistence_forecast,
    rmse,
    run_baseline,
    run_gradient_perturbation,
    run_input_perturbation,
    run_nonprivate,
    utility_loss,
)
from .nn import (
    ModelSpec,
    StaleTapeError,
    backward_batch,
    forward_batch,
    init_params,
    load_params,
    save_params,
)
from .optim import (
    AdamState,
    DpSgdConfig,
    NonPrivateConfig,
    TrainLog,
    TrainingDiverged,
    adam_step,
    dp_aggregate,
    global_norm,
    train,
)
from .privacy import (
    DEFAULT_ORDERS,
    BudgetError,
    BudgetLedger,
    MechanismValidityError,
    PrivacyParams,
    PrivacyRecord,
    RdpCurve,
    compute_epsilon,
    delta_budget_check,
    gaussian_sigma,
    ledger_total,
    rdp_curve,
    sanitize_series,
)
from .tune import (
    SearchFailed,
    SearchSpace,
    Trial,
    TuneResult,
    objective_nonprivate,
    objective_private,
    run_search,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BudgetError", "BudgetLedger", "DEFAULT_ORDERS",
    "DataFormatError", "DpSgdConfig", "InputRelease",
    "MechanismValidityError", "MetricsReport", "MinMaxScaler",
    "MobilitySeries", "ModelConfig", "ModelSpec", "NonPrivateConfig",
    "PrivacyParams", "PrivacyRecord", "RdpCurve", "RngStream", "RunArtifact",
    "SearchFailed", "SearchSpace", "StaleTapeError", "TrainConfig", "TrainLog",
    "TrainingDiverged", "Trial", "TuneResult", "WindowedDataset", "adam_step",
    "backward_batch", "compute_epsilon", "delta_budget_check",
    "descriptive_stats", "dp_aggregate", "evaluate_forecast", "feature_matrix",
    "finite_diff_grad", "fit_release", "forward_batch", "gaussian_sample",
    "gaussian_sigma", "global_norm", "init_params", "input_release",
    "iqr_clean", "ledger_total", "load_csv", "load_params", "logsumexp",
    "mae", "make_windows", "objective_nonprivate",
    "objective_private", "persistence_forecast", "rdp_curve", "rmse",
    "run_baseline", "run_gradient_perturbation", "run_input_perturbation",
    "run_nonprivate", "run_search", "sanitize_series", "save_params", "split",
    "train", "utility_loss",
]
