"""Exact Gaussian-process regression with an RBF kernel.

The posterior mean is computed by a single Cholesky solve,
alpha = (K + noise_variance*I)^-1 y, so training is cubic in the number
of points. Above ``max_points`` a seeded uniform subsample keeps the
factorization tractable; the predictor is then exact on that subset.

Every kernel matrix is built block by block over ``base.row_blocks``,
so each block stays in L2 through its elementwise passes: five where
``base.halves_exactly`` accepts the call's squared norms and l^2 <=
2**1000 (|a|^2/2 - a.b, + |b|^2/2, max with 0, / -l^2, exp), else six
(* -2, + |a|^2, + |b|^2, max with 0, / -2 l^2, exp). Both give the same
bits: the halved sum is the unhalved one halved, exactly, its max with 0
too, and the divisor halves with it, so each quotient is the same real
number rounded once. The bound on l^2 keeps -2 l^2 from overflowing.
The training kernel goes straight into a Fortran-ordered array, which LAPACK's
``dpotrf`` factors in place and ``dpotrs`` solves against. Prediction keeps
its 512-row chunks: a row's position in its chunk fixes the bits of its
product with alpha.

Both routines come from the OpenBLAS that scipy's wheel vendors, the very
library ``scipy.linalg`` calls, so the bytes are scipy's. It is found beside
the scipy package, as ``scipy.libs/libscipy_openblas*.so`` exporting
``scipy_dpotrf_`` and ``scipy_dpotrs_``, loaded through ``ctypes`` without
importing scipy, which spares every command the 0.2 s import of
``scipy.linalg``. Where no such library is found (a conda, macOS or Windows
build of scipy), ``scipy.linalg.lapack``'s ``dpotrf`` and ``dpotrs`` serve
instead. Either is bound on the first factorization, not at import, so a
command or a sweep's parent process that fits no GPR maps no second
OpenBLAS beside numpy's.
"""

import ctypes
import functools
import importlib.util
from pathlib import Path

import numpy as np

from ..errors import NotPositiveDefinite
from ..rng import stream
from .base import (AT_LEAST_ONE, CHUNK_ROWS, FINITE_NON_NEGATIVE, FINITE_POSITIVE,
                   TrainedModel, halves_exactly, require_finite, row_blocks)

__all__ = ["GPRModel", "fit_gpr", "rbf_kernel"]

# escalation ladder tried after the bare matrix fails to factor
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _lapack_info(routine, info):
    """LAPACK's ``info``, a ValueError when it flags an illegal argument."""
    if info < 0:
        raise ValueError(f"LAPACK {routine} rejected its argument {-info}")
    return info


def _openblas_lapack():
    """(_potrf, _potrs) over scipy's vendored OpenBLAS, or None where its
    wheel ships none with the LP64 symbols."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = Path(spec.submodule_search_locations[0]).parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, "scipy_dpotrf_") and hasattr(lib, "scipy_dpotrs_"):
            break
    else:
        return None
    dpotrf, dpotrs = lib.scipy_dpotrf_, lib.scipy_dpotrs_
    integer = ctypes.POINTER(ctypes.c_int)
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
    columns = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    # Fortran arguments by reference; the trailing size_t is the hidden
    # length of the character argument UPLO
    dpotrf.argtypes = [ctypes.c_char_p, integer, matrix, integer, integer, ctypes.c_size_t]
    dpotrs.argtypes = [ctypes.c_char_p, integer, integer, matrix, integer,
                       columns, integer, integer, ctypes.c_size_t]
    dpotrf.restype = dpotrs.restype = None

    def potrf(K):
        n, info = ctypes.c_int(len(K)), ctypes.c_int()
        dpotrf(b"L", n, K, n, info, 1)
        return _lapack_info("dpotrf", info.value)

    def potrs(K, y):
        # each column of y is a right-hand side, as scipy's dpotrs takes it
        x = np.array(y, dtype=np.float64, order="F")
        n, info = ctypes.c_int(len(K)), ctypes.c_int()
        dpotrs(b"L", n, ctypes.c_int(x.size // len(K)), K, n, x, n, info, 1)
        _lapack_info("dpotrs", info.value)
        return x

    return potrf, potrs


def _scipy_lapack():
    """(_potrf, _potrs) over ``scipy.linalg.lapack``, as ``cho_factor`` and
    ``cho_solve`` call it."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    def potrf(K):
        return _lapack_info("dpotrf", dpotrf(K, lower=1, clean=0, overwrite_a=1)[1])

    def potrs(K, y):
        x, info = dpotrs(K, y, lower=1)
        _lapack_info("dpotrs", info)
        return x

    return potrf, potrs


@functools.cache
def _lapack():
    """(_potrf, _potrs) of the first binding found: the vendored OpenBLAS,
    else ``scipy.linalg.lapack``."""
    return _openblas_lapack() or _scipy_lapack()


def _potrf(K):
    """Factor the Fortran-ordered K in place into its lower triangle; LAPACK's
    info, positive when K is not positive definite."""
    return _lapack()[0](K)


def _potrs(K, y):
    """Solve with _potrf's factor of K into a fresh copy of y, whose rows are K's."""
    return _lapack()[1](K, y)


def _rbf_fill(A, B, length_scale, out, at=None):
    """rbf_kernel(A, B, length_scale) written into ``out``, of either memory
    order: A's row i into row ``at[i]``, or row i when ``at`` is None.

    Of A, a row's bits depend on that row alone, so a chunk's rows can be
    built apart from the others.
    """
    A_sq = np.einsum("ij,ij->i", A, A)[:, np.newaxis]
    B_sq = np.einsum("ij,ij->i", B, B)
    # the bits of exp((|a|^2 - 2 a.b + |b|^2) / (-2 l^2)), the max taken
    # before the division: at half scale where the module docstring says,
    # else scaling by -2 is exact and x + (-y) == x - y
    halved = halves_exactly(A_sq, B_sq) and length_scale**2 <= 2.0**1000
    if halved:
        A_sq, B_sq = A_sq / 2.0, B_sq / 2.0
    divisor = -(length_scale**2) if halved else -2.0 * length_scale**2
    for rows, K in row_blocks(A, B):
        if halved:
            np.subtract(A_sq[rows], K, out=K)
        else:
            K *= -2.0
            K += A_sq[rows]
        K += B_sq
        np.maximum(K, 0.0, out=K)
        K /= divisor
        out[rows if at is None else at[rows]] = np.exp(K, out=K)
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
        block = np.zeros((min(CHUNK_ROWS, n), len(self.X_train)))
        edges = np.searchsorted(rows, range(0, n + CHUNK_ROWS, CHUNK_ROWS))
        with np.errstate(over="ignore", invalid="ignore"):  # as in predict_batch
            for start, lo, hi in zip(range(0, n, CHUNK_ROWS), edges, edges[1:]):
                if lo == hi:
                    continue
                at = rows[lo:hi] - start
                _rbf_fill(Q[lo:hi], self.X_train, self.length_scale, block, at)
                out[lo:hi] = (block[: min(CHUNK_ROWS, n - start)] @ self.alpha)[at]
        return out


@GPRModel.fitting
def fit_gpr(X, y, length_scale: float = 1.0, noise_variance: float = 0.01,
            max_points: int = 2000, seed: int = 0) -> GPRModel:
    """Fit the exact GP posterior mean.

    When the training set exceeds ``max_points`` a uniform subsample drawn
    from the ``seed``-keyed stream replaces it. Raises NotPositiveDefinite
    if the kernel matrix cannot be factored even at the largest jitter, and
    ValueError for a NaN or infinity in X or y.
    """
    require_finite(X=X, y=y)
    subsampled = X.shape[0] > max_points
    if subsampled:
        keep = stream(seed, "gpr-subset").permutation(X.shape[0])[:max_points]
        keep.sort()
        X = X[keep]
        y = y[keep]

    # in LAPACK's memory order, so _potrf factors it in place; a failed
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
        if _potrf(K):
            continue
        alpha = _potrs(K, y)
        return GPRModel(X.shape[1], X_train=X, alpha=alpha, length_scale=length_scale,
                        noise_variance=noise_variance, jitter=jitter, subsampled=subsampled)
    raise NotPositiveDefinite(_JITTERS[-1])
