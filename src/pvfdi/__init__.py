"""pvfdi: PV power forecasting models under Gaussian false-data injection.

A numpy-based suite of eight regression models (linear, lasso, Gaussian
process, k-nearest-neighbor, decision tree, gradient-boosted trees,
support vector, and multilayer perceptron), written from first
principles, plus a harness that measures how injecting Gaussian noise
into growing fractions of the test set shifts each model's RMSE.

Typical use:

    from pvfdi import ExperimentConfig, run_noise_sweep, emit_report

    report = run_noise_sweep(ExperimentConfig(seed=42))
    emit_report(report, "out/")
"""

import os
import sys

# one BLAS thread unless the caller set a count or loaded numpy first: GPR
# and MLPR bytes depend on it, and the sweep's pool needs no other thread
if "numpy" not in sys.modules:
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .data import (
    FEATURE_NAMES,
    N_FEATURES,
    POWER_COLUMN,
    TIMESTAMP_COLUMN,
    Dataset,
    SplitConfig,
    load_csv,
    normalize,
    save_csv,
    split,
    synth_generate,
)
from .errors import (
    ConfigError,
    DataError,
    DatasetTooSmall,
    DimensionMismatch,
    EmptyFile,
    EmptySeries,
    InvalidCount,
    InvalidSpec,
    IoError,
    KTooLarge,
    LengthMismatch,
    MetricError,
    MissingColumn,
    ModelError,
    NonFiniteLoss,
    NonNumericCell,
    NotPositiveDefinite,
    PvfdiError,
    UnreadableCsv,
    ZeroBaseline,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    compute_sensitivity,
    emit_report,
    fraction_label,
    run_clean_benchmark,
    run_noise_sweep,
    sensitivity_label,
)
from .metrics import (
    EvaluationSeries,
    MetricTriple,
    mae,
    metric_triple,
    mse,
    percent_change,
    rmse,
)
from .noise import NOISE_TARGETS, NoiseConfig, inject
from .regressors import (
    DEFAULT_KINDS,
    KINDS,
    GBRTModel,
    GPRModel,
    KNNModel,
    LinearModel,
    MLPRModel,
    ModelSpec,
    SVRModel,
    TrainedModel,
    TreeModel,
    default_hyperparameters,
    fit,
    fit_dt,
    fit_gbrt,
    fit_gpr,
    fit_knn,
    fit_lasso,
    fit_lr,
    fit_mlpr,
    fit_svr,
    lasso_lambda_max,
    load_model,
    save_model,
)
from .rng import derive_seed, stream

__all__ = [
    "__version__",
    # data
    "FEATURE_NAMES", "N_FEATURES", "POWER_COLUMN", "TIMESTAMP_COLUMN",
    "Dataset", "SplitConfig", "load_csv", "normalize", "save_csv", "split",
    "synth_generate",
    # errors
    "PvfdiError", "ConfigError", "DataError", "MissingColumn",
    "NonNumericCell", "EmptyFile", "UnreadableCsv", "DatasetTooSmall",
    "InvalidCount", "MetricError", "LengthMismatch", "EmptySeries", "ZeroBaseline",
    "ModelError", "InvalidSpec", "DimensionMismatch", "KTooLarge",
    "NotPositiveDefinite", "NonFiniteLoss", "IoError",
    # metrics
    "EvaluationSeries", "MetricTriple", "rmse", "mse", "mae",
    "metric_triple", "percent_change",
    # models
    "KINDS", "DEFAULT_KINDS", "ModelSpec", "TrainedModel", "fit",
    "default_hyperparameters", "LinearModel", "GPRModel", "KNNModel",
    "TreeModel", "GBRTModel", "SVRModel", "MLPRModel", "fit_lr",
    "fit_lasso", "lasso_lambda_max", "fit_gpr", "fit_knn", "fit_dt",
    "fit_gbrt", "fit_svr", "fit_mlpr", "save_model", "load_model",
    # noise
    "NoiseConfig", "NOISE_TARGETS", "inject",
    # experiment
    "ExperimentConfig", "ExperimentReport", "run_clean_benchmark",
    "run_noise_sweep", "compute_sensitivity", "emit_report", "fraction_label",
    "sensitivity_label",
    # rng
    "stream", "derive_seed",
]
