"""K-nearest-neighbor regression: brute-force Euclidean search.

Fitting stores the training set. Prediction averages the targets of the
k nearest training points, taken in (distance, training index) order:
equal distances resolve to the lower training index, and a NaN distance
(expanded distances can overflow at extreme feature values) ranks last.
That is the first k of a stable sort of the query's distance row, so
results are fully deterministic; a query whose k nearest distances are
not all finite raises ValueError.

The k nearest are found by a filter, then a sort of the few columns it
keeps. With G = _GROUP, the n columns of a distance row form m = n // G
groups of G strided columns (group j holds columns j, j + m, ...,
j + (G - 1)m) and n mod G tail columns. Let g_j be the minimum of group
j's non-NaN distances and tau the k-th smallest g_j (NaN last).

- The k groups with the smallest minima hold k distinct columns at
  distance <= tau, so the k-th smallest distance d_k is <= tau too.
- Each of the k nearest then lies at a distance d <= d_k <= tau, in a
  group with g_j <= d <= tau.
- So the groups with g_j <= tau, with the tail, hold the k nearest. If
  tau is NaN (fewer than k groups hold a non-NaN distance), every group
  is taken.

A chunk takes the same number w of groups in every row: those with the
w smallest minima (NaN last), where w is the most groups any of its
rows has at or below its tau (all of them if tau is NaN). That is a
superset of each row's needed groups, and extra columns change nothing:
gathered in ascending training index, the columns are ordered by a
stable sort exactly as they are within the whole row, so its first k
are the same k in the same order. Below k * G training rows there are
fewer than k groups, and every column is a tail column.

Queries go through in chunks of ``base.block_rows(n)`` rows, whose
distance block fits the L2-sized ``base.BLOCK_BYTES``. A row's distance
is x + r, where x = |b|^2 - 2 a.b and r = |a|^2, and only g_j and the
gathered columns get the + r. Rounded addition of a finite r is
monotone and keeps NaN, so the minimum of x + r over a group is its
minimum of x, plus r, and g_j keeps its bits. A query with r = inf
has no finite distance, so its chunk raises ValueError either way.
"""

import numpy as np

from ..errors import KTooLarge
from .base import (AT_LEAST_ONE, TrainedModel, block_rows, padded_width, require_finite,
                   row_products)

__all__ = ["KNNModel", "fit_knn"]

_GROUP = 20  # columns per group of the selection filter


class KNNModel(TrainedModel):
    kind = "KNN"
    schema = (("int", "k"), ("array", "y_train"), ("matrix", "X_train"))
    rules = {"k": AT_LEAST_ONE}
    rowwise = True  # a row's distances and selection involve no other row

    def _check_fields(self):
        if self.y_train.shape != self.X_train.shape[:1]:
            raise ValueError("y_train needs one target per training row")
        if self.k > self.y_train.size:
            raise KTooLarge(self.k, self.y_train.size)
        require_finite(X_train=self.X_train, y_train=self.y_train)
        return self.X_train.shape[1]

    def _predict_batch(self, X):
        out = np.empty(X.shape[0])
        k = self.k
        X_train = self.X_train
        n = X_train.shape[0]
        m = n // _GROUP if n >= k * _GROUP else 0  # tau needs k groups
        lanes = m * np.arange(_GROUP)[:, np.newaxis]  # group j's columns: j + lanes
        tail = np.arange(m * _GROUP, n)
        train_sq = np.einsum("ij,ij->i", X_train, X_train)
        query_sq = np.einsum("ij,ij->i", X, X)[:, np.newaxis]
        # one distance block per call, shared by its chunks; a local, so
        # predict stays reentrant
        step = block_rows(n)
        block = np.empty((max(min(step, X.shape[0]), 2), padded_width(n)))
        for start in range(0, X.shape[0], step):
            chunk = X[start : start + step]
            # the bits of train_sq - 2.0 * (chunk @ X_train.T): scaling by
            # -2 is exact, and a + (-b) == a - b; the query's squared norm
            # is added to the group minima and the gathered columns only
            d2 = row_products(chunk, X_train, block)
            d2 *= -2.0
            d2 += train_sq
            chunk_sq = query_sq[start : start + step]
            cols = np.broadcast_to(tail, (d2.shape[0], tail.size))
            if m:
                gm = np.fmin.reduce(d2[:, : m * _GROUP].reshape(-1, _GROUP, m), axis=1)
                gm += chunk_sq
                order = np.argpartition(gm, k - 1, axis=1)
                tau = np.take_along_axis(gm, order[:, k - 1 : k], axis=1)
                width = np.count_nonzero(~(gm > tau), axis=1).max()
                if width > k:  # a row with ties at its tau, or a NaN tau
                    order = np.argpartition(gm, width - 1, axis=1)
                groups = np.sort(order[:, :width], axis=1)
                grouped = (groups[:, np.newaxis, :] + lanes).reshape(-1, _GROUP * width)
                cols = np.concatenate((grouped, cols), axis=1)
            # mean sums in order, so order the k by (distance, index)
            gathered = np.take_along_axis(d2, cols, axis=1)
            gathered += chunk_sq
            pick = np.argsort(gathered, axis=1, kind="stable")[:, :k]
            if not np.isfinite(np.take_along_axis(gathered, pick, axis=1)).all():
                raise ValueError("a query's nearest distances overflow the float range")
            nearest = np.take_along_axis(cols, pick, axis=1)
            out[start : start + step] = self.y_train[nearest].mean(axis=1)
        return out


@KNNModel.fitting
def fit_knn(X, y, k: int = 2) -> KNNModel:
    return KNNModel(X.shape[1], X_train=X, y_train=y, k=k)
