"""Forecast error metrics: RMSE, MSE, MAE, and relative percentage change.

All three metrics operate on paired actual/forecast series. Sums are
accumulated with numpy's pairwise summation in float64, which keeps them
within 1e-12 relative error of a naive direct-summation reference even
for series tens of thousands of entries long.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, LengthMismatch, ZeroBaseline

__all__ = [
    "EvaluationSeries",
    "MetricTriple",
    "rmse",
    "mse",
    "mae",
    "metric_triple",
    "percent_change",
]


@dataclass(frozen=True)
class EvaluationSeries:
    """Paired actual and predicted values for one model on one test set."""

    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        actual = np.asarray(self.actual, dtype=np.float64)
        predicted = np.asarray(self.predicted, dtype=np.float64)
        if actual.ndim != 1 or predicted.ndim != 1:
            raise LengthMismatch(actual.size, predicted.size)
        if actual.size != predicted.size:
            raise LengthMismatch(actual.size, predicted.size)
        if actual.size == 0:
            raise EmptySeries()
        if not (np.isfinite(actual).all() and np.isfinite(predicted).all()):
            raise ValueError("evaluation series contains non-finite values")
        actual.flags.writeable = False
        predicted.flags.writeable = False
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "predicted", predicted)

    def __reduce__(self):
        # an unpickled copy (a model job's result from a worker process)
        # goes through the same checks and is read-only too
        return (EvaluationSeries, (self.actual, self.predicted))

    def __len__(self) -> int:
        return self.actual.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvaluationSeries):
            return NotImplemented
        return np.array_equal(self.actual, other.actual) and np.array_equal(
            self.predicted, other.predicted
        )


@dataclass(frozen=True)
class MetricTriple:
    """(RMSE, MSE, MAE) for one evaluation series.

    ``rmse == sqrt(mse)`` holds by construction; ``mae <= rmse`` by the
    power-mean inequality.
    """

    rmse: float
    mse: float
    mae: float


def mse(s: EvaluationSeries) -> float:
    """Mean squared error: sum((Y_t - Yhat_t)^2) / n."""
    diff = s.actual - s.predicted
    return float(np.dot(diff, diff) / diff.size)


def rmse(s: EvaluationSeries) -> float:
    """Root mean squared error: sqrt(sum((Y_t - Yhat_t)^2) / n)."""
    return math.sqrt(mse(s))


def mae(s: EvaluationSeries) -> float:
    """Mean absolute error: sum(|Y_t - Yhat_t|) / n."""
    return float(np.sum(np.abs(s.actual - s.predicted)) / len(s))


def metric_triple(s: EvaluationSeries) -> MetricTriple:
    """All three metrics for a series, with rmse = sqrt(mse) exactly."""
    m = mse(s)
    return MetricTriple(rmse=math.sqrt(m), mse=m, mae=mae(s))


def percent_change(baseline: float, value: float) -> float:
    """Relative percentage change from ``baseline`` to ``value``.

    Returns 100 * (value - baseline) / baseline. This is the relative
    form, not a difference of percentage points; it is what turns a
    clean-vs-noisy RMSE pair into a sensitivity figure.
    """
    if not baseline > 0:
        raise ZeroBaseline(baseline)
    return 100.0 * (value - baseline) / baseline
