"""Uniform predict contract and registry entry shared by every model kind."""

from dataclasses import dataclass
from inspect import signature
from numbers import Integral
from typing import Callable

import numpy as np

from ..errors import DimensionMismatch, InvalidSpec

# (predicate, requirement) pairs shared by the kinds' range rules
POSITIVE = (lambda v: v > 0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")


def is_count(v) -> bool:
    """True for an integer type other than bool, as count hyperparameters need.

    A float such as ``k = 2.5`` is refused rather than truncated, so the
    fitted model and the recorded provenance agree.
    """
    return isinstance(v, Integral) and not isinstance(v, bool)


AT_LEAST_ONE = (lambda v: is_count(v) and v >= 1, "must be an integer >= 1")
DEPTH = (lambda v: is_count(v) and v >= 0, "must be an integer >= 0")


def require_finite(**values):
    """Raise ValueError for the first named value holding a NaN or infinity.

    Model constructors pass what prediction reads, so a model file with
    such a value fails to load instead of predicting NaN.
    """
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} contains non-finite values")


def as_design(X, y):
    """Training (X, y) as float arrays, a 1-D X as one column; ValueError if unusable."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, np.newaxis]
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y disagree on sample count")
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    return X, y


def row_products(A, B, out) -> np.ndarray:
    """``A @ B.T`` written into ``out[:len(A)]``, which is returned.

    numpy sends a one-row product to BLAS gemv, which rounds differently
    from the gemm that every longer A goes through. So a one-row A runs
    as two copies of its row, and a row's result does not depend on how
    many rows share its A. ``out`` needs at least two rows.
    """
    n = A.shape[0]
    if n == 1:
        A = np.concatenate((A, A))
    np.matmul(A, B.T, out=out[: A.shape[0]])
    return out[:n]


class TrainedModel:
    """A fitted model exposing deterministic batch prediction.

    Subclasses set ``kind`` and implement ``_predict_batch`` over a
    validated (n, d) array. Instances are immutable after fit; predict is
    reentrant. ``width``, when a subclass passes it, is the feature count
    its fields hold; a ValueError is raised unless it equals
    ``n_features``.

    ``predict_rows(X, rows)`` equals ``predict_batch(X)[rows]``, bit for
    bit, for ascending row indices ``rows``; the noise sweep calls it
    with the rows an injection changed. ``rowwise`` is True when a row's
    prediction does not depend on the other rows of its batch, bit for
    bit: ``predict_batch(X[rows])`` equals ``predict_batch(X)[rows]`` for
    every row subset, so ``predict_rows`` predicts ``X[rows]`` alone.
    Kinds whose batch goes through a BLAS matrix-vector product leave it
    False, because such kernels round the trailing rows of a batch
    differently depending on the batch length; ``predict_rows`` then
    predicts all of X, unless the kind overrides it with a cheaper path
    that keeps the contract.
    """

    kind = "?"
    rowwise = False

    def __init__(self, n_features: int, width: int | None = None):
        self._n_features = int(n_features)
        if width is not None and width != self._n_features:
            raise ValueError(f"declares {self._n_features} features, its fields hold {width}")

    @property
    def training_feature_count(self) -> int:
        return self._n_features

    def predict_batch(self, X) -> np.ndarray:
        """Model outputs for an (n, d) array of feature vectors; never clamped to [0, 1]."""
        return np.asarray(self._predict_batch(self._checked(X)), dtype=np.float64)

    def predict_rows(self, X, rows) -> np.ndarray:
        """``predict_batch(X)[rows]``, bit for bit, for ascending row indices ``rows``."""
        if self.rowwise:
            return self.predict_batch(np.asarray(X)[rows])
        return self.predict_batch(X)[rows]

    def _checked(self, X) -> np.ndarray:
        """X as a float (n, d) array; DimensionMismatch or ValueError if unusable."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise DimensionMismatch(self._n_features, X.shape[-1] if X.ndim else 0)
        if not np.isfinite(X).all():
            raise ValueError("feature vector contains non-finite values")
        return X

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ModelKind:
    """Everything the suite knows about one model kind, declared once.

    ``fit`` is the kind's fitting routine, called as ``fit(X, y, **hp)``
    plus ``seed=`` when it takes one; its keyword parameters with
    defaults, ``seed`` aside, are the kind's hyperparameters.
    ``rules`` maps a hyperparameter to a (predicate, requirement) pair.
    ``schema`` lists the model file's (tag, name) fields in file order;
    each name is a keyword of ``model``'s constructor, which also takes
    ``n_features``, and an attribute of its instances. The class's
    ``kind`` is the entry's name.
    """

    fit: Callable
    rules: dict
    schema: tuple
    model: type

    @property
    def name(self) -> str:
        return self.model.kind

    @property
    def defaults(self) -> dict:
        """Every accepted hyperparameter mapped to its default, in signature order."""
        return {name: p.default for name, p in signature(self.fit).parameters.items()
                if p.default is not p.empty and name != "seed"}

    def check(self, **hp):
        """Raise InvalidSpec for the first given hyperparameter out of range."""
        for key, (ok, requirement) in self.rules.items():
            if key in hp and not ok(hp[key]):
                raise InvalidSpec(f"{self.name} {key} {requirement}")
