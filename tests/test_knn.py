import numpy as np
import pytest

from pvfdi.errors import KTooLarge
from pvfdi.regressors import fit_knn


def exhaustive_predict(X_train, y_train, x, k):
    """Full distance scan with stable ordering, no vectorized shortcuts."""
    d2 = [float(np.sum((row - x) ** 2)) for row in X_train]
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))
    return float(np.mean([y_train[i] for i in order[:k]]))


def stable_sort_predict(model, X):
    """The kernel with a full stable argsort per row in place of selection."""
    out = np.empty(X.shape[0])
    train_sq = np.einsum("ij,ij->i", model.X_train, model.X_train)
    for start in range(0, X.shape[0], 256):
        chunk = X[start : start + 256]
        d2 = train_sq - 2.0 * (chunk @ model.X_train.T)
        d2 += np.einsum("ij,ij->i", chunk, chunk)[:, np.newaxis]
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        out[start : start + 256] = model.y_train[nearest].mean(axis=1)
    return out


@pytest.mark.parametrize("grid", [True, False])
def test_selection_matches_stable_sort_oracle(rng, grid):
    # on a coarse grid, with duplicated training rows, boundary ties are
    # common; off it the k nearest are distinct and their order matters
    draw = ((lambda size: rng.integers(0, 3, size=size) * 0.5) if grid
            else (lambda size: rng.normal(size=size)))
    X = draw((40, 2))
    X[20:30] = X[:10]
    y = rng.normal(size=40)
    queries = draw((600, 2))  # three 256-row chunks
    for k in range(1, X.shape[0] + 1):
        model = fit_knn(X, y, k=k)
        got = model.predict_batch(queries)
        assert got.tobytes() == stable_sort_predict(model, queries).tobytes(), k


def test_hand_case_two_neighbours():
    X = np.array([-1.0, 1.0, 4.0])
    y = np.array([0.0, 1.0, 9.0])
    model = fit_knn(X, y, k=2)
    # query 0 is equidistant from -1 and 1, mean of their targets
    assert model.predict(np.array([0.0])) == pytest.approx(0.5, rel=1e-12)


def test_k_equals_n_returns_global_mean(rng):
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    model = fit_knn(X, y, k=15)
    queries = rng.normal(size=(6, 3))
    np.testing.assert_allclose(model.predict_batch(queries), y.mean(), rtol=1e-12)


def test_k_one_recovers_own_target(rng):
    X = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    model = fit_knn(X, y, k=1)
    np.testing.assert_allclose(model.predict_batch(X), y, rtol=1e-12)


def test_duplicate_training_point_ties_resolve_by_index():
    X = np.array([[0.0], [0.0], [3.0]])
    y = np.array([1.0, 5.0, 7.0])
    model = fit_knn(X, y, k=1)
    # rows 0 and 1 are identical; the lower index wins the tie
    assert model.predict(np.array([0.0])) == 1.0


def test_equidistant_ties_resolve_by_index():
    X = np.array([[-2.0], [2.0], [9.0]])
    y = np.array([10.0, 20.0, 30.0])
    model = fit_knn(X, y, k=1)
    assert model.predict(np.array([0.0])) == 10.0


def test_matches_exhaustive_scan(rng):
    for _ in range(25):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = fit_knn(X, y, k=k)
        queries = rng.normal(size=(8, d))
        expected = [exhaustive_predict(X, y, q, k) for q in queries]
        np.testing.assert_allclose(model.predict_batch(queries), expected, rtol=1e-10)


def test_chunked_prediction_consistent(rng):
    # enough queries to span several internal chunks
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_knn(X, y, k=3)
    queries = rng.normal(size=(700, 2))
    whole = model.predict_batch(queries)
    parts = np.concatenate([model.predict_batch(queries[i : i + 50]) for i in range(0, 700, 50)])
    np.testing.assert_array_equal(whole, parts)


def test_k_too_large_raises():
    X = np.zeros((3, 2))
    y = np.zeros(3)
    with pytest.raises(KTooLarge):
        fit_knn(X, y, k=4)


def test_k_below_one_rejected():
    with pytest.raises(ValueError):
        fit_knn(np.zeros((3, 2)), np.zeros(3), k=0)
