import numpy as np
import pytest

from pvfdi.regressors import fit_gbrt
from pvfdi.regressors.tree import route
from tests.conftest import leaf_of


def test_single_depth_zero_round_is_mean_plus_scaled_residual_mean(rng):
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = fit_gbrt(X, y, rounds=1, max_depth=0, learning_rate=0.1, reg_lambda=0.0)
    # the stump's leaf holds -mean(grad) = 0 after the base score, so
    # predictions stay at the target mean
    np.testing.assert_allclose(model.predict_batch(X), y.mean(), atol=1e-12)


def test_leaf_weights_match_gradient_statistics(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    lam = 1.3
    model = fit_gbrt(X, y, rounds=3, max_depth=2, learning_rate=0.2, reg_lambda=lam)

    yhat = np.full(40, model.base_score)
    for arrays in model.trees:
        grad = yhat - y
        # group training rows by the leaf each lands in
        members = {}
        for i, row in enumerate(X):
            members.setdefault(leaf_of(arrays, row), []).append(i)
        value = arrays[4]
        for node, rows in members.items():
            expected = -grad[rows].sum() / (len(rows) + lam)
            assert value[node] == pytest.approx(expected, rel=1e-10, abs=1e-12)
        yhat = yhat + model.learning_rate * route(arrays, X)


def test_unit_rate_zero_penalty_interpolates_small_set():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    model = fit_gbrt(
        X, y, rounds=20, learning_rate=1.0, max_depth=None, reg_lambda=0.0, gamma=0.0
    )
    rmse = float(np.sqrt(np.mean((model.predict_batch(X) - y) ** 2)))
    assert rmse < 1e-6


def test_training_loss_never_increases(rng):
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    model = fit_gbrt(X, y, rounds=30)
    history = np.array(model.train_loss_history)
    assert history.size == 31  # base score entry plus one per round
    assert np.all(np.diff(history) <= 1e-12)


def test_large_gamma_prunes_to_stumps(rng):
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    model = fit_gbrt(X, y, rounds=5, gamma=1e9)
    for arrays in model.trees:
        assert arrays[0].size == 1  # a single leaf, no split paid for itself
    np.testing.assert_allclose(model.predict_batch(X), y.mean(), atol=1e-9)


def test_rounds_property_and_history_alignment(rng):
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    model = fit_gbrt(X, y, rounds=7)
    assert model.rounds == 7
    assert len(model.train_loss_history) == 8


def test_refit_is_deterministic(rng):
    X = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    a = fit_gbrt(X, y, rounds=10)
    b = fit_gbrt(X, y, rounds=10)
    queries = rng.normal(size=(20, 5))
    np.testing.assert_array_equal(a.predict_batch(queries), b.predict_batch(queries))
    np.testing.assert_array_equal(a.train_loss_history, b.train_loss_history)


def test_zero_rounds_rejected():
    with pytest.raises(ValueError):
        fit_gbrt(np.zeros((4, 1)), np.zeros(4), rounds=0)
