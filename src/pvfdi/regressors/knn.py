"""K-nearest-neighbor regression: brute-force Euclidean search.

Fitting stores the training set. Prediction averages the targets of the
k nearest training points; equal distances resolve to the lower training
index, so results are fully deterministic. The k nearest are found by
partial selection; only rows tied at the k-th distance pay for a sort.
"""

import numpy as np

from ..errors import KTooLarge
from .base import AT_LEAST_ONE, ModelKind, TrainedModel, require_finite

__all__ = ["KNNModel", "fit_knn"]

_CHUNK_ROWS = 256  # bounds the (chunk x n_train) distance block


class KNNModel(TrainedModel):
    kind = "KNN"
    rowwise = True  # a row's distances and selection involve no other row

    def __init__(self, X_train, y_train, k):
        X_train = np.array(X_train, dtype=np.float64)
        y_train = np.array(y_train, dtype=np.float64)
        if y_train.shape != X_train.shape[:1]:
            raise ValueError("y_train needs one target per training row")
        require_finite(X_train=X_train, y_train=y_train)
        super().__init__(X_train.shape[1])
        X_train.flags.writeable = False
        y_train.flags.writeable = False
        self.X_train = X_train
        self.y_train = y_train
        self.k = int(k)

    def _predict_batch(self, X):
        out = np.empty(X.shape[0])
        k = self.k
        X_train = self.X_train
        train_sq = np.einsum("ij,ij->i", X_train, X_train)
        # one distance block per call, shared by its chunks; a local, so
        # predict stays reentrant
        block = np.empty((min(_CHUNK_ROWS, X.shape[0]), X_train.shape[0]))
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            d2 = block[: chunk.shape[0]]
            # the bits of train_sq - 2.0 * (chunk @ X_train.T): scaling by
            # -2 is exact, and a + (-b) == a - b
            np.matmul(chunk, X_train.T, out=d2)
            d2 *= -2.0
            d2 += train_sq
            d2 += np.einsum("ij,ij->i", chunk, chunk)[:, np.newaxis]
            nearest = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
            kth = np.take_along_axis(d2, nearest, axis=1).max(axis=1)
            # a row with other than k distances <= its k-th has a tie at the
            # boundary (or NaNs): re-select it by a stable sort, so ties fall
            # to the lower training index
            redo = np.flatnonzero(np.count_nonzero(d2 <= kth[:, np.newaxis], axis=1) != k)
            nearest[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, :k]
            # mean sums in order, so order the k by (distance, index)
            within = np.argsort(np.take_along_axis(d2, nearest, axis=1), axis=1, kind="stable")
            nearest = np.take_along_axis(nearest, within, axis=1)
            out[start : start + _CHUNK_ROWS] = self.y_train[nearest].mean(axis=1)
        return out


def fit_knn(X, y, k: int = 2) -> KNNModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, np.newaxis]
    KNN.check(k=k)
    if k > X.shape[0]:
        raise KTooLarge(k, X.shape[0])
    return KNNModel(X, y, k)


KNN = ModelKind(
    "KNN",
    defaults={"k": 2},
    rules={"k": AT_LEAST_ONE},
    fit=lambda X, y, hp, seed: fit_knn(X, y, **hp),
    schema=(("int", "k"), ("array", "y_train"), ("matrix", "X_train")),
    load=lambda fields, n_features: KNNModel(**fields),
)
