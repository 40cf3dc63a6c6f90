"""The model class every kind subclasses: its file fields, rules, fit and predict contract."""

import math
from functools import wraps
from inspect import signature
from numbers import Integral

import numpy as np

from ..errors import DimensionMismatch, InvalidSpec

# (predicate, requirement) pairs shared by the kinds' range rules
POSITIVE = (lambda v: v > 0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
# a rate, scale, penalty or variance the arithmetic uses, where inf overflows
FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
FINITE_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and >= 0")


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


def padded_width(n: int) -> int:
    """``n`` rounded up to a multiple of 8: the width every product of a row
    block with a weight or training matrix is built at, because on OpenBLAS
    0.3.31 a gemm row's bits then do not depend on how many rows share its A."""
    return -(-n // 8) * 8


# Bytes of one row block of a product with a training or weight matrix
# (KNN's distances, GPR's kernels, MLPR's hidden layer), so that the block
# stays in a core's L2 cache through its elementwise passes instead of
# streaming through memory once per pass. On a Xeon with 2 MB of L2 a core,
# KNN's and GPR's jobs ran fastest at 1.5 MB of the 0.25-16 MB tried;
# every budget gives the same bits.
BLOCK_BYTES = 3 << 19


def block_rows(width: int) -> int:
    """Rows per block of a product ``width`` columns wide: as many as
    BLOCK_BYTES holds at ``padded_width(width)`` doubles a row, at least two."""
    return max(2, BLOCK_BYTES // (8 * padded_width(width)))


def row_slices(n: int, width: int) -> list:
    """The fewest consecutive slices of ``n`` rows with at most
    ``block_rows(width)`` rows each, balanced to within one row.

    No slice has fewer than two rows unless ``n`` is 1 (numpy sends a
    one-row product to BLAS gemv, which rounds unlike gemm), so at two rows
    a block an odd ``n`` gets one three-row slice. ``n == 0`` gives none.
    """
    if not n:
        return []
    k = max(1, min(-(-n // block_rows(width)), n // 2))
    bounds = [i * n // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def row_blocks(A, B):
    """Yield ``(rows, A[rows] @ B.T)`` over ``row_slices(len(A), len(B))``.

    Each block is built at ``padded_width(len(B))`` columns, B padded with
    zero rows once, and a lone row runs as two copies of itself, so a row's
    bits do not depend on which rows share its block. The blocks are views
    of one scratch array, each overwritten by the next.
    """
    slices, width = row_slices(len(A), len(B)), len(B)
    if width % 8:
        B = np.concatenate((B, np.zeros_like(B, shape=(padded_width(width) - width, B.shape[1]))))
    scratch = np.empty((max(2, -(-len(A) // max(len(slices), 1))), B.shape[0]))
    for rows in slices:
        part = A[rows] if len(A) > 1 else np.concatenate((A, A))
        np.matmul(part, B.T, out=scratch[: len(part)])
        yield rows, scratch[: rows.stop - rows.start, :width]


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
    requirement) pairs as ``rules``, bind their fitting routine with the
    ``@Class.fitting`` decorator and implement ``_predict_batch`` over a
    validated (n, d) array. ``fit(X, y, **hp)``, plus ``seed=`` when the
    routine takes one, passes the routine a checked design and rules;
    the routine's keyword defaults, ``seed`` aside, are ``defaults()``.

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
    def fitting(cls, routine):
        """Decorator binding ``routine(X, y, **hp)`` as this kind's ``fit``.

        ``fit`` runs ``as_design`` on X and y and ``check`` on the given
        hyperparameters first; it keeps the routine's signature for ``defaults()``.
        """
        @wraps(routine)
        def fit(X, y, **hp):
            X, y = as_design(X, y)
            cls.check(**hp)
            return routine(X, y, **hp)

        cls.fit = staticmethod(fit)
        return fit

    @classmethod
    def defaults(cls) -> dict:
        """Every accepted hyperparameter mapped to its default, in signature order."""
        return {name: p.default for name, p in signature(cls.fit).parameters.items()
                if p.default is not p.empty and name != "seed"}

    @classmethod
    def check(cls, **hp):
        """Raise InvalidSpec for the first given hyperparameter out of range."""
        for key, (ok, requirement) in cls.rules.items():
            if key not in hp:
                continue
            try:
                passed = ok(hp[key])
            except TypeError:  # a config's `none` where the rule needs a number
                passed = False
            if not passed:
                raise InvalidSpec(f"{cls.kind} {key} {requirement}")

    def _check_fields(self) -> int | None:
        return None

    @property
    def training_feature_count(self) -> int:
        return self._n_features

    def predict_batch(self, X) -> np.ndarray:
        """Model outputs for an (n, d) array of feature vectors; never clamped to [0, 1]."""
        with np.errstate(over="ignore", invalid="ignore"):  # callers check the outputs
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

