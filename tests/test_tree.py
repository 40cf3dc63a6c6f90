import numpy as np
import pytest

from pvfdi.regressors import GBRTModel, TreeModel, fit_dt, fit_gbrt
from pvfdi.regressors.tree import route
from tests.conftest import leaf_of


def reference_grow_tree(X, g, reg_lambda=0.0, leaf_sign=1.0, max_depth=None,
                        min_samples_leaf=1, min_split_quality=0.0):
    """Tree growth that stable-sorts every feature at every node.

    The plain form of the split search: rows stay in ascending index
    order, each node sorts each feature's values stably, and features
    are scanned in index order keeping the first strictly better split.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for arr, init in ((feature, -1), (threshold, 0.0), (left, -1),
                          (right, -1), (value, 0.0)):
            arr.append(init)
        return len(feature) - 1

    stack = [(new_node(), np.arange(X.shape[0]), 0)]
    while stack:
        node, indices, depth = stack.pop()
        n = indices.size
        g_node = g[indices]
        total = g_node.sum()
        found = None
        if ((max_depth is None or depth < max_depth) and np.any(g_node != g_node[0])
                and n >= 2 * min_samples_leaf and n >= 2):
            best = (-np.inf, -1, np.inf)
            for j in range(X.shape[1]):
                order = np.argsort(X[indices, j], kind="stable")
                v = X[indices, j][order]
                left_g = np.cumsum(g_node[order])[:-1]
                left_n = np.arange(1, n)
                cuts = 0.5 * (v[:-1] + v[1:])
                valid = (v[:-1] < v[1:]) & (cuts < v[1:])
                valid &= (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
                if not valid.any():
                    continue
                right_g = total - left_g
                quality = (left_g * left_g / (left_n + reg_lambda)
                           + right_g * right_g / ((n - left_n) + reg_lambda)
                           - total * total / (n + reg_lambda))
                quality[~valid] = -np.inf
                pos = int(np.argmax(quality))
                if quality[pos] > best[0]:
                    best = (float(quality[pos]), j, float(cuts[pos]))
            if best[1] >= 0:
                found = best
        if found is None or found[0] <= min_split_quality:
            value[node] = float(leaf_sign * total / (n + reg_lambda))
            continue
        _, j, t = found
        mask = X[indices, j] <= t
        feature[node], threshold[node] = j, t
        left[node], right[node] = new_node(), new_node()
        stack.append((right[node], indices[~mask], depth + 1))
        stack.append((left[node], indices[mask], depth + 1))
    return (np.asarray(feature, dtype=np.intp), np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp),
            np.asarray(value, dtype=np.float64))


def assert_same_tree(arrays, expected):
    for got, want in zip(arrays, expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def tie_heavy(rng, n, d, binary):
    """Grid features, duplicated rows and a duplicated column.

    Values repeat within each feature, and the last column equals the
    first, so their best splits tie and the lower feature index must win.
    Binary targets also make equal gains at different thresholds of one
    feature, where the lower threshold must win.
    """
    X = rng.integers(0, 4, size=(n, d)) * 0.25
    X[n // 2 :: 3] = X[: len(X[n // 2 :: 3])]
    X[:, -1] = X[:, 0]
    y = rng.integers(0, 2, size=n).astype(float) if binary else rng.normal(size=n)
    return X, y


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [0, 1, 3, None])
def test_dt_matches_per_node_sort_reference(rng, max_depth, min_samples_leaf):
    for n, d, binary in ((12, 2, True), (60, 3, True), (150, 5, False)):
        X, y = tie_heavy(rng, n, d, binary)
        model = fit_dt(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        expected = reference_grow_tree(X, y, max_depth=max_depth,
                                       min_samples_leaf=min_samples_leaf)
        assert_same_tree(model.arrays, expected)


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
@pytest.mark.parametrize("max_depth", [0, 1, 3, None])
@pytest.mark.parametrize("binary", [True, False])
def test_gbrt_matches_per_node_sort_reference(rng, max_depth, min_samples_leaf, binary):
    X, y = tie_heavy(rng, 120, 4, binary)
    hp = dict(learning_rate=0.3, reg_lambda=0.7, gamma=0.01)
    model = fit_gbrt(X, y, rounds=6, max_depth=max_depth,
                     min_samples_leaf=min_samples_leaf, **hp)
    yhat = np.full(y.shape[0], float(y.mean()))
    history = [float(np.mean((yhat - y) ** 2))]
    for arrays in model.trees:
        expected = reference_grow_tree(
            X, yhat - y, reg_lambda=hp["reg_lambda"], leaf_sign=-1.0,
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            min_split_quality=2.0 * hp["gamma"])
        assert_same_tree(arrays, expected)
        yhat += hp["learning_rate"] * route(expected, X)
        history.append(float(np.mean((yhat - y) ** 2)))
    assert tuple(model.train_loss_history) == tuple(history)


def training_sse(model, X, y) -> float:
    """Sum of squared residuals of ``model`` on its own training rows."""
    return float(np.sum((y - model.predict_batch(X)) ** 2))


def best_root_split_sse(X, y):
    """Enumerate every (feature, midpoint) split and return the lowest SSE."""
    n = X.shape[0]
    best = float(np.sum((y - y.mean()) ** 2))
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for a, b in zip(values[:-1], values[1:]):
            threshold = (a + b) / 2.0
            left = X[:, j] <= threshold
            if not left.any() or left.all():
                continue
            sse = sum(float(np.sum((y[m] - y[m].mean()) ** 2)) for m in (left, ~left))
            best = min(best, sse)
    return best


def test_constant_targets_single_leaf(rng):
    X = rng.normal(size=(12, 3))
    y = np.full(12, 4.25)
    model = fit_dt(X, y, min_samples_leaf=1)
    assert model.n_nodes == 1
    np.testing.assert_array_equal(model.predict_batch(X), 4.25)


def test_two_points_fit_exactly():
    X = np.array([[0.0], [1.0]])
    y = np.array([3.0, 7.0])
    model = fit_dt(X, y, min_samples_leaf=1)
    np.testing.assert_array_equal(model.predict_batch(X), y)
    assert training_sse(model, X, y) == 0.0


def test_four_point_root_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_dt(X, y, max_depth=1, min_samples_leaf=1)
    # the only zero-SSE root split is between 1 and 2
    assert model.arrays[1][0] == pytest.approx(1.5)
    assert training_sse(model, X, y) == pytest.approx(0.0, abs=1e-15)


def test_equal_gains_pick_lowest_feature_then_threshold():
    # splitting off either end row gains the same; so does either column
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    model = fit_dt(X, y, max_depth=1, min_samples_leaf=1)
    assert (model.arrays[0][0], model.arrays[1][0]) == (0, 0.5)
    assert_same_tree(model.arrays, reference_grow_tree(X, y, max_depth=1))


def test_depth_one_matches_enumerated_best_split(rng):
    for _ in range(40):
        n = int(rng.integers(4, 17))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = fit_dt(X, y, max_depth=1, min_samples_leaf=1)
        assert training_sse(model, X, y) == pytest.approx(best_root_split_sse(X, y), abs=1e-9)


def test_deeper_trees_never_fit_worse(rng):
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    sses = [
        training_sse(fit_dt(X, y, max_depth=depth, min_samples_leaf=1), X, y)
        for depth in (0, 1, 2, 4, 8, None)
    ]
    for shallow, deep in zip(sses[:-1], sses[1:]):
        assert deep <= shallow + 1e-9


def test_unbounded_depth_interpolates_distinct_rows(rng):
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    model = fit_dt(X, y, min_samples_leaf=1)
    np.testing.assert_allclose(model.predict_batch(X), y, atol=1e-12)


def test_min_samples_leaf_floors_leaf_sizes(rng):
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    model = fit_dt(X, y, min_samples_leaf=7)
    counts = {}
    for row in X:
        node = leaf_of(model.arrays, row)
        counts[node] = counts.get(node, 0) + 1
    assert min(counts.values()) >= 7


def test_depth_zero_is_mean_stump(rng):
    X = rng.normal(size=(9, 2))
    y = rng.normal(size=9)
    model = fit_dt(X, y, max_depth=0)
    assert model.n_nodes == 1
    np.testing.assert_allclose(model.predict_batch(X), y.mean(), rtol=1e-12)


def test_refit_is_deterministic(rng):
    X = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    a = fit_dt(X, y, max_depth=4)
    b = fit_dt(X, y, max_depth=4)
    queries = rng.normal(size=(20, 5))
    np.testing.assert_array_equal(a.predict_batch(queries), b.predict_batch(queries))


def test_negative_min_samples_leaf_rejected():
    with pytest.raises(ValueError):
        fit_dt(np.zeros((4, 1)), np.zeros(4), min_samples_leaf=0)


def test_cyclic_tree_is_refused_at_construction(rng):
    # routing a row through node 0 would return to node 0 forever
    X = rng.normal(size=(40, 3))
    y = X[:, 0] + rng.normal(size=40)
    feature, threshold, left, right, value = fit_dt(X, y, max_depth=2).arrays
    looped = (feature, threshold, np.concatenate(([0], left[1:])), right, value)
    with pytest.raises(ValueError, match="node 0"):
        TreeModel(3, max_depth=2, min_samples_leaf=5, arrays=looped)
    booster = fit_gbrt(X, y, rounds=2, max_depth=2)
    with pytest.raises(ValueError, match="node 0"):
        GBRTModel(3, base_score=booster.base_score, learning_rate=0.1, reg_lambda=1.0,
                  gamma=0.0, train_loss_history=booster.train_loss_history,
                  trees=(booster.trees[0], looped))
