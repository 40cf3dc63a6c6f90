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
from .errors import PvfdiError
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    compute_sensitivity,
    emit_report,
    run_clean_benchmark,
    run_noise_sweep,
)
from .noise import NoiseConfig, inject
from .regressors import ModelSpec, fit, load_model, save_model

__all__ = [
    "__version__",
    # data
    "FEATURE_NAMES", "N_FEATURES", "POWER_COLUMN", "TIMESTAMP_COLUMN",
    "Dataset", "SplitConfig", "load_csv", "normalize", "save_csv", "split",
    "synth_generate",
    # errors: every other error class is in pvfdi.errors
    "PvfdiError",
    # noise
    "NoiseConfig", "inject",
    # models: per-kind classes and fit routines are in pvfdi.regressors
    "ModelSpec", "fit", "save_model", "load_model",
    # experiment
    "ExperimentConfig", "ExperimentReport", "run_clean_benchmark",
    "run_noise_sweep", "compute_sensitivity", "emit_report",
]
