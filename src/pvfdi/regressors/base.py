"""Uniform predict contract and registry entry shared by every model kind."""

from dataclasses import dataclass
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


class TrainedModel:
    """A fitted model exposing deterministic single- and batch-prediction.

    Subclasses set ``kind`` and implement ``_predict_batch`` over a
    validated (n, d) array. Instances are immutable after fit; predict is
    reentrant.

    ``rowwise`` is True when a row's prediction does not depend on the
    other rows of its batch, bit for bit: ``predict_batch(X[rows])``
    equals ``predict_batch(X)[rows]`` for every row subset. The noise
    sweep then re-predicts only the injected rows. Kinds whose batch
    goes through a BLAS matrix-vector product leave it False, because
    such kernels round the trailing rows of a batch differently
    depending on the batch length.
    """

    kind = "?"
    rowwise = False

    def __init__(self, n_features: int):
        self._n_features = int(n_features)

    @property
    def training_feature_count(self) -> int:
        return self._n_features

    def predict(self, x) -> float:
        """Model output for one feature vector; never clamped to [0, 1]."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n_features,):
            raise DimensionMismatch(self._n_features, x.size)
        if not np.isfinite(x).all():
            raise ValueError("feature vector contains non-finite values")
        return float(self._predict_batch(x[np.newaxis, :])[0])

    def predict_batch(self, X) -> np.ndarray:
        """Vectorized predict over an (n, d) array of feature vectors."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise DimensionMismatch(self._n_features, X.shape[-1] if X.ndim else 0)
        if not np.isfinite(X).all():
            raise ValueError("feature vector contains non-finite values")
        return np.asarray(self._predict_batch(X), dtype=np.float64)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ModelKind:
    """Everything the suite knows about one model kind, declared once.

    ``defaults`` maps every accepted hyperparameter to its default and
    ``rules`` maps a hyperparameter to a (predicate, requirement) pair.
    ``fit`` adapts the kind's fitting routine to (X, y, hp, seed).
    ``schema`` lists the model file's (tag, name) fields in file order;
    ``load`` rebuilds a model from those fields and the declared feature
    count, and ``dump``, when set, supplies the field values in place of
    the model attributes of the same names.
    """

    name: str
    defaults: dict
    rules: dict
    fit: Callable
    schema: tuple
    load: Callable
    dump: Callable | None = None

    def check(self, **hp):
        """Raise InvalidSpec for the first given hyperparameter out of range."""
        for key, (ok, requirement) in self.rules.items():
            if key in hp and not ok(hp[key]):
                raise InvalidSpec(f"{self.name} {key} {requirement}")
