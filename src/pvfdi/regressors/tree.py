"""Regression trees: plain CART and the gradient-statistics variant.

Both tree kinds share one split search. For per-sample statistics g with
unit curvature per sample, the score of a node holding index set S is
score(S) = G^2 / (|S| + reg_lambda) with G = sum(g[S]), and a split's
quality is score(L) + score(R) - score(parent). With g = y and
reg_lambda = 0 this is exactly the SSE reduction CART maximizes; with g
equal to boosting gradients it is (twice) the second-order gain. Leaves
predict sign * G / (|S| + reg_lambda): +1 recovers the CART mean target,
-1 the boosting leaf weight.

Determinism: candidate thresholds are midpoints of adjacent distinct
sorted values; ties pick the lowest feature index, then the lowest
threshold.
"""

import numpy as np

from .base import AT_LEAST_ONE, ModelKind, TrainedModel

__all__ = ["TreeModel", "fit_dt", "grow_tree", "best_split"]


def best_split(X, g, indices, reg_lambda=0.0, min_samples_leaf=1):
    """Best axis-aligned split of the rows in ``indices``.

    Returns (quality, feature, threshold) where quality is
    score(L) + score(R) - score(parent), or None when no candidate
    satisfies the leaf-size floor or separates distinct values.
    """
    indices = np.asarray(indices, dtype=np.intp)
    n = indices.size
    if n < 2 * min_samples_leaf or n < 2:
        return None
    g_node = g[indices]
    total = g_node.sum()
    parent_score = total * total / (n + reg_lambda)

    best_quality = -np.inf
    best_feature = -1
    best_threshold = np.inf
    for j in range(X.shape[1]):
        values = X[indices, j]
        order = np.argsort(values, kind="stable")
        v = values[order]
        gs = g_node[order]
        left_g = np.cumsum(gs)[:-1]
        left_n = np.arange(1, n)

        thresholds = 0.5 * (v[:-1] + v[1:])
        valid = (v[:-1] < v[1:]) & (thresholds < v[1:])
        if min_samples_leaf > 1:
            valid &= (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
        if not valid.any():
            continue

        right_g = total - left_g
        quality = (
            left_g * left_g / (left_n + reg_lambda)
            + right_g * right_g / ((n - left_n) + reg_lambda)
            - parent_score
        )
        quality[~valid] = -np.inf
        pos = int(np.argmax(quality))  # first max -> lowest threshold
        if quality[pos] > best_quality:
            best_quality = float(quality[pos])
            best_feature = j
            best_threshold = float(thresholds[pos])

    if best_feature < 0:
        return None
    return best_quality, best_feature, best_threshold


def grow_tree(
    X,
    g,
    reg_lambda=0.0,
    leaf_sign=1.0,
    max_depth=None,
    min_samples_leaf=1,
    min_split_quality=0.0,
):
    """Greedy tree growth over gradient statistics.

    A node splits only when the best split's quality strictly exceeds
    ``min_split_quality`` (boosting passes 2*gamma there). Returns flat
    parallel arrays (feature, threshold, left, right, value); feature -1
    marks a leaf. Samples with x <= threshold go left.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0], dtype=np.intp), 0)]
    while stack:
        node, indices, depth = stack.pop()
        g_node = g[indices]
        total = g_node.sum()
        leaf_value = leaf_sign * total / (indices.size + reg_lambda)

        can_split = (max_depth is None or depth < max_depth) and np.any(
            g_node != g_node[0]
        )
        found = (
            best_split(X, g, indices, reg_lambda, min_samples_leaf)
            if can_split
            else None
        )
        if found is None or found[0] <= min_split_quality:
            value[node] = float(leaf_value)
            continue

        _, j, t = found
        mask = X[indices, j] <= t
        feature[node] = j
        threshold[node] = t
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], indices[~mask], depth + 1))
        stack.append((left[node], indices[mask], depth + 1))

    return (
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray(value, dtype=np.float64),
    )


def route(arrays, X):
    """Leaf value reached by each row of X."""
    feature, threshold, left, right, value = arrays
    idx = np.zeros(X.shape[0], dtype=np.intp)
    active = feature[idx] >= 0
    while active.any():
        rows = np.flatnonzero(active)
        nodes = idx[rows]
        go_left = X[rows, feature[nodes]] <= threshold[nodes]
        idx[rows[go_left]] = left[nodes[go_left]]
        idx[rows[~go_left]] = right[nodes[~go_left]]
        active = feature[idx] >= 0
    return value[idx]


class TreeModel(TrainedModel):
    """CART regression tree stored as flat parallel arrays."""

    kind = "DT"

    def __init__(self, arrays, n_features, max_depth=None, min_samples_leaf=1):
        super().__init__(n_features)
        self.feature, self.threshold, self.left, self.right, self.value = (
            np.asarray(a) for a in arrays
        )
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    @property
    def arrays(self):
        return (self.feature, self.threshold, self.left, self.right, self.value)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def _predict_batch(self, X):
        return route(self.arrays, X)

    def training_sse(self, X, y) -> float:
        pred = self.predict_batch(X)
        return float(np.sum((y - pred) ** 2))


def fit_dt(X, y, max_depth=None, min_samples_leaf=5) -> TreeModel:
    """CART regression tree minimizing weighted child variance.

    Growth stops at ``max_depth`` (None = unlimited), when a child would
    drop below ``min_samples_leaf`` samples, or when the node's targets
    have zero variance. Leaves predict the node's mean target.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, np.newaxis]
    DT.check(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    arrays = grow_tree(
        X,
        y,
        reg_lambda=0.0,
        leaf_sign=1.0,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )
    return TreeModel(arrays, X.shape[1], max_depth, min_samples_leaf)


DT = ModelKind(
    "DT",
    defaults={"max_depth": None, "min_samples_leaf": 5},
    rules={"max_depth": (lambda v: v is None or v >= 0, "must be None or >= 0"),
           "min_samples_leaf": AT_LEAST_ONE},
    fit=lambda X, y, hp, seed: fit_dt(X, y, **hp),
    # the file stores an unlimited max_depth as -1
    schema=(("int", "max_depth"), ("int", "min_samples_leaf"), ("tree", "arrays")),
    load=lambda fields, n_features: TreeModel(
        fields["arrays"], n_features,
        None if fields["max_depth"] < 0 else fields["max_depth"],
        fields["min_samples_leaf"]),
    dump=lambda model: {
        "max_depth": -1 if model.max_depth is None else model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "arrays": model.arrays,
    },
)
