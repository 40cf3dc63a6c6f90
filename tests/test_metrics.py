import math

import numpy as np
import pytest

from pvfdi.errors import EmptySeries, LengthMismatch, ZeroBaseline
from pvfdi.metrics import (
    EvaluationSeries,
    mae,
    metric_triple,
    mse,
    percent_change,
    rmse,
)


def naive_metrics(actual, predicted):
    """Direct-summation reference: plain Python accumulation in order."""
    sq = 0.0
    ab = 0.0
    for a, p in zip(actual, predicted):
        sq += (a - p) ** 2
        ab += abs(a - p)
    n = len(actual)
    return math.sqrt(sq / n), sq / n, ab / n


def test_hand_computed_values():
    s = EvaluationSeries(np.array([0.0, 4.0]), np.array([1.0, 1.0]))
    assert mse(s) == 5.0
    assert rmse(s) == math.sqrt(5.0)
    assert mae(s) == 2.0


@pytest.mark.parametrize("actual, predicted", [
    (0.0, 1e200),          # each square overflows
    (0.5, 1.2e154),        # each square is finite, their sum is not
    (-1.7e308, 1.7e308),   # the difference itself overflows
])
def test_overflowing_squared_error_raises_without_a_warning(actual, predicted):
    s = EvaluationSeries(np.full(4, actual), np.full(4, predicted))
    for metric in (mse, rmse, metric_triple):
        with pytest.raises(ValueError, match="overflows"):
            metric(s)


def test_squared_errors_summing_just_below_the_float_range_are_kept():
    s = EvaluationSeries(np.zeros(2), np.array([9e153, -9e153]))  # sum 1.62e308
    assert mse(s) == float(np.dot(s.predicted, s.predicted) / 2)
    assert math.isfinite(rmse(s))


def test_perfect_prediction_is_zero():
    s = EvaluationSeries(np.arange(5.0), np.arange(5.0))
    assert rmse(s) == mse(s) == mae(s) == 0.0


def test_matches_naive_oracle_on_random_series(rng):
    for _ in range(50):
        n = int(rng.integers(1, 500))
        actual = rng.normal(0.0, 3.0, n)
        predicted = rng.normal(0.0, 3.0, n)
        s = EvaluationSeries(actual, predicted)
        ref_rmse, ref_mse, ref_mae = naive_metrics(actual, predicted)
        assert rmse(s) == pytest.approx(ref_rmse, rel=1e-12)
        assert mse(s) == pytest.approx(ref_mse, rel=1e-12)
        assert mae(s) == pytest.approx(ref_mae, rel=1e-12)


def test_triple_identities(rng):
    s = EvaluationSeries(rng.normal(size=200), rng.normal(size=200))
    t = metric_triple(s)
    assert t.rmse == math.sqrt(t.mse)
    assert t.mae <= t.rmse  # power-mean inequality
    assert t.rmse == rmse(s) and t.mse == mse(s) and t.mae == mae(s)


def test_series_validation():
    with pytest.raises(LengthMismatch):
        EvaluationSeries(np.zeros(3), np.zeros(4))
    with pytest.raises(LengthMismatch):
        EvaluationSeries(np.zeros((2, 2)), np.zeros(4))
    with pytest.raises(EmptySeries):
        EvaluationSeries(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        EvaluationSeries(np.array([np.nan]), np.array([0.0]))


def test_series_is_immutable_and_comparable():
    s = EvaluationSeries(np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    with pytest.raises(ValueError):
        s.actual[0] = 9.0
    assert s == EvaluationSeries(np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    assert s != EvaluationSeries(np.array([1.0, 2.0]), np.array([1.5, 2.4]))
    assert len(s) == 2


def test_percent_change():
    assert percent_change(100.0, 110.0) == pytest.approx(10.0)
    assert percent_change(0.1034, 0.1036) == pytest.approx(0.19342, abs=1e-4)
    assert percent_change(2.0, 1.0) == -50.0
    with pytest.raises(ZeroBaseline):
        percent_change(0.0, 1.0)
    with pytest.raises(ZeroBaseline):
        percent_change(-1.0, 1.0)
