import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvfdi.errors import InvalidSpec, KTooLarge
from pvfdi.regressors import KNNModel, base, fit_knn, knn


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


def budget_for(rows, width):
    """A BLOCK_BYTES that gives blocks of ``rows`` rows at ``width`` training rows."""
    return rows * 8 * base.padded_width(width)


# 600 rows is more than GPR's 512-row chunk
BLOCKS = (2, 3, 7, 64, 600)


@given(n=st.integers(2, 600), k=st.integers(1, 3), grid=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=255, k=2, grid=False, seed=0)
@example(n=300, k=2, grid=True, seed=0)
@settings(max_examples=25, deadline=None)
def test_every_block_size_predicts_the_unblocked_bytes(n, k, grid, seed):
    # on a grid, ties at the selection's tau are common
    rng = np.random.default_rng(seed)
    def draw(size):
        return rng.integers(0, 3, size=size) * 0.5 if grid else rng.normal(size=size)
    model = fit_knn(draw((n, 12)), rng.normal(size=n), k=min(k, n))
    X = draw((700, 12))
    rows = np.sort(rng.choice(700, 300, replace=False))
    with patch.object(base, "BLOCK_BYTES", 1 << 40):
        batch, some = model.predict_batch(X), model.predict_rows(X, rows)
    for blocked in BLOCKS:
        with patch.object(base, "BLOCK_BYTES", budget_for(blocked, n)):
            assert base.block_rows(n) == blocked
            assert model.predict_batch(X).tobytes() == batch.tobytes(), blocked
            assert model.predict_rows(X, rows).tobytes() == some.tobytes(), blocked


def peak_bytes(call, *args):
    """The most bytes ``call(*args)`` held allocated at once, and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_prediction_holds_one_distance_block(rng):
    # 2,000 queries against 8,000 training rows, 64 KB of distances a
    # query. Beyond one block and the output, the bound allows eight float
    # vectors per training and query row
    X_train = rng.normal(size=(8000, 12))
    model = fit_knn(X_train, rng.normal(size=8000), k=2)
    X = rng.normal(size=(2000, 12))
    peak, out = peak_bytes(model.predict_batch, X)
    assert peak < base.BLOCK_BYTES + out.nbytes + 64 * (8000 + 2000)


def test_halving_range_bounds():
    assert base.halves_exactly(np.array([0.0, 2.0**-899, 1.0, 2.0**1000]), np.array([]))
    for bad in (np.nextafter(2.0**-899, 0.0), 5e-324, np.nextafter(2.0**1000, np.inf),
                np.inf, np.nan):
        assert not base.halves_exactly(np.array([1.0, bad]))
        assert not base.halves_exactly(np.ones(3), np.array([bad, 0.0]))


def prediction_or_error(model, X):
    try:
        return model.predict_batch(X).tobytes()
    except ValueError as exc:
        return str(exc)


# squared norms scale by scale**2: 1e-140 and 1e-137 fall below 2**-899,
# 1e151 above 2**1000, and the others inside the range
SCALES = (1.0, 1e-3, 1e-137, 1e-140, 1e149, 1e151)


@given(n=st.integers(1, 300), k=st.integers(1, 4), grid=st.booleans(),
       train_scale=st.sampled_from(SCALES), query_scale=st.sampled_from(SCALES),
       seed=st.integers(0, 2**32 - 1))
@example(n=120, k=2, grid=True, train_scale=1.0, query_scale=1.0, seed=0)
@example(n=120, k=2, grid=False, train_scale=1e-140, query_scale=1.0, seed=0)
@example(n=120, k=2, grid=False, train_scale=1.0, query_scale=1e151, seed=0)
@settings(max_examples=40, deadline=None)
def test_halved_distances_predict_the_unhalved_bytes(n, k, grid, train_scale, query_scale,
                                                     seed):
    # a few rows of each set are scaled, so one call mixes in-range and
    # out-of-range norms; a grid gives ties at the selection's tau
    rng = np.random.default_rng(seed)

    def draw(size, scale):
        X = rng.integers(-2, 3, size=size) * 0.5 if grid else rng.normal(size=size)
        X[::7] *= scale
        return X

    model = fit_knn(draw((n, 3), train_scale), rng.normal(size=n), k=min(k, n))
    X = draw((60, 3), query_scale)
    with patch.object(knn, "halves_exactly", lambda *norms: False):
        expected = prediction_or_error(model, X)
    assert prediction_or_error(model, X) == expected


def test_rows_with_unequal_ties_at_tau_take_the_argpartition_path():
    # 60 training rows form 3 column groups of 20. Query 0 meets group
    # minima 0, 1, 1: a tie at its tau (k = 2), so it keeps 3 groups;
    # query 0.25 keeps 2. Unequal counts select through argpartition
    X_train = np.full((60, 1), 100.0)
    X_train[:3, 0] = (0.0, 1.0, -1.0)
    y = np.arange(60.0)
    X = np.array([[0.0], [0.25]])
    model = fit_knn(X_train, y, k=2)
    with patch.object(knn.np, "argpartition", wraps=np.argpartition) as spy:
        got = model.predict_batch(X)
    assert spy.call_count == 1
    assert got.tolist() == [exhaustive_predict(X_train, y, x, 2) for x in X]
