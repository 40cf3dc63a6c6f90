import numpy as np
import pytest

from pvfdi.errors import InvalidSpec, KTooLarge
from pvfdi.regressors import KNNModel, fit_knn


def exhaustive_predict(X_train, y_train, x, k):
    """Full distance scan with stable ordering, no vectorized shortcuts."""
    d2 = [float(np.sum((row - x) ** 2)) for row in X_train]
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))
    return float(np.mean([y_train[i] for i in order[:k]]))


def stable_sort_order(X_train, X):
    """Training rows per query in (distance, index) order, NaN last, and
    the distances in that order.

    The kernel's distances, with a full stable argsort per row in place
    of its selection.
    """
    order = np.empty((X.shape[0], X_train.shape[0]), dtype=np.intp)
    ranked = np.empty(order.shape)
    train_sq = np.einsum("ij,ij->i", X_train, X_train)
    for start in range(0, X.shape[0], 256):
        chunk = X[start : start + 256]
        d2 = train_sq - 2.0 * (chunk @ X_train.T)
        d2 += np.einsum("ij,ij->i", chunk, chunk)[:, np.newaxis]
        order[start : start + 256] = np.argsort(d2, axis=1, kind="stable")
        ranked[start : start + 256] = np.take_along_axis(d2, order[start : start + 256], axis=1)
    return order, ranked


def _huge(rng, size):
    """Positive draws near 1e110; every 61st row of the first half is near
    +-1e200.

    Squared norms overflow in those rows, so expanded distances come out
    inf or NaN. A query near 1e110 meets NaN in a few column groups and
    finite distances in the rest. A query near 1e200 meets only NaN, and
    inf from rows near -1e200, so its nearest distances are not finite
    and prediction raises ValueError.
    """
    X = np.abs(rng.normal(size=size)) * 1e110
    X[: size[0] // 2 : 61] *= 1e90
    X[: size[0] // 2 : 122] *= -1.0
    return X


@pytest.mark.parametrize("n_train", [40, 1000, 1013])
@pytest.mark.parametrize("draw", ["grid", "normal", "huge"])
def test_selection_matches_stable_sort_oracle(rng, draw, n_train):
    # on a coarse grid, with duplicated training rows, boundary ties are
    # common; off it the k nearest are distinct and their order matters.
    # 40 rows give fewer than k column groups for k > 2, so every column
    # is a candidate; 1000 and 1013 rows (13 tail columns) go through the
    # group filter. Overflowed distances rank as a stable sort ranks them,
    # and a query whose k nearest are not all finite makes the batch raise
    draw = {
        "grid": lambda size: rng.integers(0, 3, size=size) * 0.5,
        "normal": lambda size: rng.normal(size=size),
        "huge": lambda size: _huge(rng, size),
    }[draw]
    X = draw((n_train, 2))
    X[n_train // 2 : n_train // 2 + 10] = X[:10]
    y = rng.normal(size=n_train)
    queries = draw((600, 2))  # three 256-row chunks
    with np.errstate(over="ignore", invalid="ignore"):
        order, ranked = stable_sort_order(X, queries)
    for k in range(1, 41) if n_train == 40 else (1, 2, 3, 5, 12, 40):
        model = fit_knn(X, y, k=k)
        finite = np.isfinite(ranked[:, :k]).all(axis=1)
        if not finite.all():
            with pytest.raises(ValueError, match="nearest distances overflow"):
                model.predict_batch(queries)
        got = model.predict_batch(queries[finite])
        assert got.tobytes() == y[order[finite, :k]].mean(axis=1).tobytes(), k


def test_hand_case_two_neighbours():
    X = np.array([-1.0, 1.0, 4.0])
    y = np.array([0.0, 1.0, 9.0])
    model = fit_knn(X, y, k=2)
    # query 0 is equidistant from -1 and 1, mean of their targets
    assert model.predict_batch(np.array([[0.0]]))[0] == pytest.approx(0.5, rel=1e-12)


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
    assert model.predict_batch(np.array([[0.0]]))[0] == 1.0


def test_equidistant_ties_resolve_by_index():
    X = np.array([[-2.0], [2.0], [9.0]])
    y = np.array([10.0, 20.0, 30.0])
    model = fit_knn(X, y, k=1)
    assert model.predict_batch(np.array([[0.0]]))[0] == 10.0


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


def test_constructor_checks_k_as_fit_does():
    model = fit_knn(np.eye(3), np.arange(3.0), k=3)
    fields = {"X_train": model.X_train, "y_train": model.y_train}
    with pytest.raises(KTooLarge):
        KNNModel(3, k=4, **fields)
    for bad in (0, 2.5):  # refused, not truncated
        with pytest.raises(InvalidSpec, match="KNN k"):
            KNNModel(3, k=bad, **fields)
