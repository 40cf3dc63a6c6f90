"""Exact Gaussian-process regression with an RBF kernel.

The posterior mean is computed by a single Cholesky solve,
alpha = (K + noise_variance*I)^-1 y, so training is cubic in the number
of points. Above ``max_points`` a seeded uniform subsample keeps the
factorization tractable; the predictor is then exact on that subset.

Every kernel matrix is built one block of ``base.block_rows`` rows at a
time, so each block stays in L2 through its six elementwise passes. The
training kernel goes straight into a Fortran-ordered array, which
``cho_factor`` factors in place. Prediction keeps its 512-row chunks:
a row's position in its chunk fixes the bits of its product with alpha.
"""

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from ..errors import NotPositiveDefinite
from ..rng import stream
from .base import (AT_LEAST_ONE, FINITE_NON_NEGATIVE, FINITE_POSITIVE, TrainedModel,
                   block_rows, padded_width, require_finite, row_products)

__all__ = ["GPRModel", "fit_gpr", "rbf_kernel"]

# escalation ladder tried after the bare matrix fails to factor
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

_CHUNK_ROWS = 512  # rows per product with alpha; fixes each row's bits


def _rbf_into(A, B, length_scale, out):
    """rbf_kernel(A, B, length_scale), built in place in ``out[:len(A)]``.

    ``out`` is ``row_products``' scratch for A and B. Of A, a row's
    bits depend on that row alone, so a chunk's rows can be built apart
    from the others.
    """
    # the bits of exp((|a|^2 - 2 a.b + |b|^2) / (-2 l^2)), the max taken
    # before the division: scaling by -2 is exact, and x + (-y) == x - y
    K = row_products(A, B, out)
    K *= -2.0
    K += np.einsum("ij,ij->i", A, A)[:, np.newaxis]
    K += np.einsum("ij,ij->i", B, B)
    np.maximum(K, 0.0, out=K)
    K /= -2.0 * length_scale**2
    return np.exp(K, out=K)


def _rbf_fill(A, B, length_scale, out, at=None):
    """rbf_kernel(A, B, length_scale) written into ``out``, of either memory
    order: A's row i into row ``at[i]``, or row i when ``at`` is None.

    It is built ``block_rows(len(B))`` rows at a time in one scratch block.
    """
    step = block_rows(len(B))
    scratch = np.empty((max(min(step, len(A)), 2), padded_width(len(B))))
    for start in range(0, len(A), step):
        stop = min(start + step, len(A))
        out[slice(start, stop) if at is None else at[start:stop]] = _rbf_into(
            A[start:stop], B, length_scale, scratch)
    return out


def rbf_kernel(A, B, length_scale):
    """Unit-variance RBF kernel matrix exp(-||a - b||^2 / (2 l^2))."""
    return _rbf_fill(A, B, length_scale, np.empty((len(A), len(B))))


class GPRModel(TrainedModel):
    kind = "GPR"
    schema = (("float", "length_scale"), ("float", "noise_variance"),
              ("float", "jitter"), ("int", "subsampled"), ("array", "alpha"),
              ("matrix", "X_train"))
    rules = {"length_scale": FINITE_POSITIVE,
             "noise_variance": FINITE_NON_NEGATIVE,
             "max_points": AT_LEAST_ONE}

    def _check_fields(self):
        if self.alpha.shape != self.X_train.shape[:1]:
            raise ValueError("alpha needs one weight per training row")
        require_finite(X_train=self.X_train, alpha=self.alpha, length_scale=self.length_scale)
        return self.X_train.shape[1]

    def _predict_batch(self, X):
        return self.predict_rows(X, np.arange(X.shape[0]))

    def predict_rows(self, X, rows):
        """predict_batch(X)[rows], building kernel rows for ``rows`` only.

        ``predict_batch`` runs this over every row, so both share one loop.
        A row keeps its position in its chunk, and the product with alpha
        runs over the whole chunk: a gemv output depends on its own row
        and its position, not on the values in the other rows, so those
        may hold whatever an earlier chunk left there.
        """
        rows = np.asarray(rows, dtype=np.intp)
        X = np.asarray(X)
        Q = self._checked(X[rows])
        n = X.shape[0]
        out = np.empty(rows.size)
        block = np.zeros((max(min(_CHUNK_ROWS, n), 2), len(self.X_train)))
        edges = np.searchsorted(rows, range(0, n + _CHUNK_ROWS, _CHUNK_ROWS))
        with np.errstate(over="ignore", invalid="ignore"):  # as in predict_batch
            for start, lo, hi in zip(range(0, n, _CHUNK_ROWS), edges, edges[1:]):
                if lo == hi:
                    continue
                at = rows[lo:hi] - start
                _rbf_fill(Q[lo:hi], self.X_train, self.length_scale, block, at)
                out[lo:hi] = (block[: min(_CHUNK_ROWS, n - start)] @ self.alpha)[at]
        return out


@GPRModel.fitting
def fit_gpr(X, y, length_scale: float = 1.0, noise_variance: float = 0.01,
            max_points: int = 2000, seed: int = 0) -> GPRModel:
    """Fit the exact GP posterior mean.

    When the training set exceeds ``max_points`` a uniform subsample drawn
    from the ``seed``-keyed stream replaces it. Raises NotPositiveDefinite
    if the kernel matrix cannot be factored even at the largest jitter.
    """
    subsampled = X.shape[0] > max_points
    if subsampled:
        keep = stream(seed, "gpr-subset").permutation(X.shape[0])[:max_points]
        keep.sort()
        X = X[keep]
        y = y[keep]

    # in LAPACK's memory order, so cho_factor factors it in place; a failed
    # factorization leaves it overwritten, so each retry builds it again
    # and writes back the diagonal, whose running sums keep their own vector
    K = np.empty((X.shape[0], X.shape[0]), order="F")
    diagonal = _rbf_fill(X, X, length_scale, K).diagonal() + noise_variance
    last = 0.0
    for jitter in (0.0,) + _JITTERS:
        diagonal += jitter - last
        last = jitter
        if jitter:
            _rbf_fill(X, X, length_scale, K)
        np.fill_diagonal(K, diagonal)
        try:
            factor = cho_factor(K, lower=True, overwrite_a=True)
        except LinAlgError:
            continue
        alpha = cho_solve(factor, y)
        return GPRModel(X.shape[1], X_train=X, alpha=alpha, length_scale=length_scale,
                        noise_variance=noise_variance, jitter=jitter, subsampled=subsampled)
    raise NotPositiveDefinite(_JITTERS[-1])
