"""The model class every kind subclasses: its file fields, rules, fit and predict contract."""

from inspect import signature
from numbers import Integral

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
AT_LEAST_ZERO = (lambda v: is_count(v) and v >= 0, "must be an integer >= 0")
# a tree depth limit; None grows without one
DEPTH = (lambda v: v is None or is_count(v) and v >= 0, "must be None or an integer >= 0")


def require_finite(**values):
    """Raise ValueError for the first named value holding a NaN or infinity.

    Model field checks pass what prediction reads, so a model file with
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


# A flat tree's five parallel arrays, in file order; feature -1 marks a leaf
TREE_PARTS = (("iarray", "feature"), ("array", "threshold"),
              ("iarray", "left"), ("iarray", "right"), ("array", "value"))


def _frozen(values, dtype=np.float64):
    values = np.array(values, dtype=dtype)
    values.flags.writeable = False
    return values


def _tree(arrays):
    return tuple(_STORE[tag](part) for (tag, _), part in zip(TREE_PARTS, arrays))


# a schema tag's stored form: the type its file field has, arrays read-only;
# a "depth" is a tree depth limit, None for none (the file writes -1)
_STORE = {"int": int, "float": float, "depth": lambda v: None if v is None else int(v),
          "array": _frozen, "matrix": _frozen,
          "iarray": lambda values: _frozen(values, np.intp), "tree": _tree,
          "trees": lambda trees: tuple(map(_tree, trees))}


class TrainedModel:
    """A model kind: its fitting routine and rules, and a fitted model of it.

    Subclasses set ``kind``, list the model file's (tag, name) fields in
    file order as ``schema``, map hyperparameters to (predicate,
    requirement) pairs as ``rules``, set ``fit`` to their fitting routine
    and implement ``_predict_batch`` over a validated (n, d) array.
    ``fit(X, y, **hp)``, plus ``seed=`` when it takes one, checks the
    rules; its keyword defaults, ``seed`` aside, are ``defaults()``.

    The constructor takes exactly the schema's names plus ``n_features``
    (TypeError otherwise) and stores each field in its tag's ``_STORE``
    form, so instances are immutable and a reloaded copy holds the same
    types. Each field a rule names must pass it (InvalidSpec), and
    ``_check_fields`` raises ValueError or a ModelError for fields
    prediction cannot use and returns the feature count they hold, or
    None; that count must equal ``n_features``. Predict is reentrant.

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
    schema = ()
    rules = {}
    rowwise = False

    def __init__(self, n_features: int, **fields):
        names = [name for _, name in self.schema]
        if fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                            f"not {sorted(fields)}")
        self._n_features = int(n_features)
        self.check(**fields)  # before storing, so a count of 2.5 is refused, not truncated
        for tag, name in self.schema:
            setattr(self, name, _STORE[tag](fields[name]))
        width = self._check_fields()
        if width is not None and width != self._n_features:
            raise ValueError(f"declares {self._n_features} features, its fields hold {width}")

    @classmethod
    def defaults(cls) -> dict:
        """Every accepted hyperparameter mapped to its default, in signature order."""
        return {name: p.default for name, p in signature(cls.fit).parameters.items()
                if p.default is not p.empty and name != "seed"}

    @classmethod
    def check(cls, **hp):
        """Raise InvalidSpec for the first given hyperparameter out of range."""
        for key, (ok, requirement) in cls.rules.items():
            if key in hp and not ok(hp[key]):
                raise InvalidSpec(f"{cls.kind} {key} {requirement}")

    def _check_fields(self) -> int | None:
        return None

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

