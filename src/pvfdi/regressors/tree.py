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

from .base import AT_LEAST_ONE, DEPTH, TrainedModel, require_finite

__all__ = ["TreeModel", "fit_dt", "grow_tree", "presort"]


def presort(X):
    """Column blocks for ``grow_tree``: each feature's rows and values sorted.

    Returns (order, values), both (n_features, n_samples): row ``j`` of
    ``order`` lists the sample indices by (X[:, j], index) and row ``j``
    of ``values`` the matching feature values. Computed once per fit.
    """
    X = np.asarray(X, dtype=np.float64)
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    return order, np.take_along_axis(X.T, order, axis=1)


def grow_tree(
    columns,
    g,
    reg_lambda=0.0,
    leaf_sign=1.0,
    max_depth=None,
    min_samples_leaf=1,
    min_split_quality=0.0,
    leaf_of=None,
):
    """Greedy tree growth over gradient statistics.

    ``columns`` is ``presort(X)``. Each node keeps its rows in ascending
    index order plus its slice of every sorted column, so candidate splits
    of all features are scored at once without sorting; a split partitions
    the blocks stably, which keeps each column in (value, index) order. A
    node splits only when the best split's quality strictly exceeds
    ``min_split_quality`` (boosting passes 2*gamma there). Returns flat
    parallel arrays (feature, threshold, left, right, value); feature -1
    marks a leaf. Samples with x <= threshold go left. When given, the
    n_samples intp array ``leaf_of`` receives each sample's leaf: the
    node ``route`` walks its row to.

    A node scores only the cuts that leave ``min_samples_leaf`` rows on
    both sides, in place, dividing by slices of two per-fit denominator
    vectors. A child that cannot split (at ``max_depth``, or with fewer
    than 2 * ``min_samples_leaf`` rows) gets no column blocks. A cut
    t = (v_p + v_p+1) / 2 is valid when v_p <= t < v_p+1, so the left
    rows are the first p + 1 of the winning column, found without a
    compare pass. Rounding is monotone, so t >= v_p unless the sum
    overflows to -inf, which takes a value at or below -2**1023; only
    then is the lower test run. t < v_p+1 fails for equal neighbours,
    whose t is their value, and for a sum that overflows to +inf.
    """
    order, values = columns
    g = np.asarray(g, dtype=np.float64)
    min_samples_leaf = max(min_samples_leaf, 1)  # a side of a cut holds a row
    n_features, n_samples = order.shape
    goes_left = np.zeros(n_samples, dtype=bool)
    # the split gain's denominators, left_n + reg_lambda over left_n = 1, 2, ...
    # and (n - left_n) + reg_lambda, whose tail serves a node of n rows
    left_den = np.arange(1, n_samples) + reg_lambda
    right_den = np.ascontiguousarray(left_den[::-1])
    # v_p + v_p+1 overflows to -inf only where a column reaches -2**1023
    full_tests = bool((values[:, :1] <= -(2.0**1023)).any())
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def splits(n, depth):
        """Whether a node of n rows at ``depth`` may be split at all."""
        return (max_depth is None or depth < max_depth) and n >= 2 * min_samples_leaf

    root = new_node()
    stack = [(root, np.arange(n_samples, dtype=np.intp), order, values, 0)]
    while stack:
        node, rows, order, values, depth = stack.pop()
        n = rows.size
        g_node = g[rows]
        total = g_node.sum()  # ascending rows: pairwise summation order matters

        quality = -np.inf
        if splits(n, depth) and (g_node != g_node[0]).any():
            # cut p puts sorted entries 0..p left; both sides need
            # min_samples_leaf rows, so p runs over [lo, hi)
            lo, hi = min_samples_leaf - 1, n - min_samples_leaf
            left_g = g.take(order[:, :hi])
            left_g.cumsum(axis=1, out=left_g)
            left_g = left_g[:, lo:]
            right_g = np.subtract(total, left_g)
            upper = values[:, lo + 1 : hi + 1]
            cuts = np.add(values[:, lo:hi], upper)
            cuts *= 0.5
            gains = left_g
            gains *= left_g
            gains /= left_den[lo:hi]
            right_g *= right_g
            right_g /= right_den[n_samples - n + lo : n_samples - n + hi]
            gains += right_g
            gains -= total * total / (n + reg_lambda)
            # a valid cut lies in [v_p, v_p+1), so both sides hold rows; a
            # cut below v_p is one whose sum overflowed to -inf
            invalid = np.greater_equal(cuts, upper)
            if full_tests:
                invalid |= cuts < values[:, lo:hi]
            gains[invalid] = -np.inf
            best = gains.max(axis=1)
            j = int(best.argmax())  # first max -> lowest feature index
            quality = float(best[j])
            if quality != quality:  # argmax stops at a NaN, which never compares as better
                best[np.isnan(best)] = -np.inf
                j = int(best.argmax())
                quality = float(best[j])
        if not quality > min_split_quality:
            value[node] = float(leaf_sign * total / (n + reg_lambda))
            if leaf_of is not None:
                leaf_of[rows] = node
            continue

        p = int(gains[j].argmax())  # first max -> lowest threshold
        t = float(cuts[j, p])
        left_rows = order[j, : lo + p + 1]  # t in [v_p, v_p+1): entries 0..p are <= t
        goes_left[left_rows] = True
        row_mask = goes_left[rows]
        feature[node] = j
        threshold[node] = t
        left[node] = new_node()
        right[node] = new_node()
        # a child that cannot split becomes a leaf, which reads no column block
        blocks = [(None, None), (None, None)]
        sides = [splits(n - left_rows.size, depth + 1), splits(left_rows.size, depth + 1)]
        if any(sides):
            mask = goes_left[order].ravel()
            for side, wanted in enumerate(sides):
                if wanted:
                    # the flat positions, then two gathers: a boolean index
                    # of the 2-D blocks took four times as long
                    at = (mask if side else ~mask).nonzero()[0]
                    blocks[side] = (order.take(at).reshape(n_features, -1),
                                    values.take(at).reshape(n_features, -1))
        goes_left[rows] = False
        stack.append((right[node], rows.compress(~row_mask), *blocks[0], depth + 1))
        stack.append((left[node], rows.compress(row_mask), *blocks[1], depth + 1))

    return (
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray(value, dtype=np.float64),
    )


def check_tree(arrays, n_features):
    """Raise ValueError unless the tree ``arrays`` route every row to a finite leaf.

    Each split reads a feature below ``n_features`` and numbers both
    children after itself, as grow_tree does, so a walk cannot loop.
    """
    feature, threshold, left, right, value = arrays
    n = feature.size
    if n == 0 or any(a.size != n for a in arrays):
        raise ValueError("tree arrays must be non-empty and of equal length")
    node = np.arange(n)
    valid = np.where(
        feature >= 0,
        (feature < n_features) & (node < left) & (left < n) & (node < right) & (right < n),
        (feature == -1) & (left == -1) & (right == -1),
    )
    if not valid.all():
        raise ValueError(f"tree node {int(np.argmin(valid))} is malformed")
    require_finite(threshold=threshold, value=value)


def route(arrays, X):
    """Leaf value reached by each row of X; ``check_tree`` must accept ``arrays``."""
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
    """CART regression tree stored as flat parallel arrays.

    ``arrays`` holds the tree's ``TREE_PARTS``. ``max_depth`` is the
    fit's depth limit, None when unlimited.
    """

    kind = "DT"
    schema = (("depth", "max_depth"), ("int", "min_samples_leaf"), ("tree", "arrays"))
    rules = {"max_depth": DEPTH, "min_samples_leaf": AT_LEAST_ONE}
    rowwise = True  # each row walks the tree alone

    def _check_fields(self):
        check_tree(self.arrays, self._n_features)

    @property
    def n_nodes(self) -> int:
        return self.arrays[0].size

    def _predict_batch(self, X):
        return route(self.arrays, X)


@TreeModel.fitting
def fit_dt(X, y, max_depth=None, min_samples_leaf=5) -> TreeModel:
    """CART regression tree minimizing weighted child variance.

    Growth stops at ``max_depth`` (None = unlimited), when a child would
    drop below ``min_samples_leaf`` samples, or when the node's targets
    have zero variance. Leaves predict the node's mean target.
    """
    arrays = grow_tree(
        presort(X),
        y,
        reg_lambda=0.0,
        leaf_sign=1.0,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )
    return TreeModel(X.shape[1], max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                     arrays=arrays)
