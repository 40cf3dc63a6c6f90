"""Exact Gaussian-process regression with an RBF kernel.

The posterior mean is computed by a single Cholesky solve,
alpha = (K + noise_variance*I)^-1 y, so training is cubic in the number
of points. Above ``max_points`` a seeded uniform subsample keeps the
factorization tractable; the predictor is then exact on that subset.
"""

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from ..errors import NotPositiveDefinite
from ..rng import stream
from .base import (AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, ModelKind, TrainedModel, as_design,
                   require_finite)

__all__ = ["GPRModel", "fit_gpr", "rbf_kernel"]

# escalation ladder tried after the bare matrix fails to factor
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

_CHUNK_ROWS = 512


def _sq_dists(A, B):
    d2 = np.einsum("ij,ij->i", A, A)[:, np.newaxis] - 2.0 * (A @ B.T)
    d2 += np.einsum("ij,ij->i", B, B)[np.newaxis, :]
    return np.maximum(d2, 0.0)


def rbf_kernel(A, B, length_scale):
    """Unit-variance RBF kernel matrix exp(-||a - b||^2 / (2 l^2))."""
    return np.exp(_sq_dists(A, B) / (-2.0 * length_scale**2))


class GPRModel(TrainedModel):
    kind = "GPR"

    def __init__(self, X_train, alpha, length_scale, noise_variance, jitter,
                 subsampled):
        X_train = np.array(X_train, dtype=np.float64)
        alpha = np.array(alpha, dtype=np.float64)
        if alpha.shape != X_train.shape[:1]:
            raise ValueError("alpha needs one weight per training row")
        require_finite(X_train=X_train, alpha=alpha, length_scale=length_scale)
        super().__init__(X_train.shape[1])
        X_train.flags.writeable = False
        alpha.flags.writeable = False
        self.X_train = X_train
        self.alpha = alpha
        self.length_scale = float(length_scale)
        self.noise_variance = float(noise_variance)
        self.jitter = float(jitter)
        self.subsampled = bool(subsampled)

    def _predict_batch(self, X):
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            k_star = rbf_kernel(chunk, self.X_train, self.length_scale)
            out[start : start + _CHUNK_ROWS] = k_star @ self.alpha
        return out


def fit_gpr(X, y, length_scale: float = 1.0, noise_variance: float = 0.01,
            max_points: int = 2000, seed: int = 0) -> GPRModel:
    """Fit the exact GP posterior mean.

    When the training set exceeds ``max_points`` a uniform subsample drawn
    from the ``seed``-keyed stream replaces it. Raises NotPositiveDefinite
    if the kernel matrix cannot be factored even at the largest jitter.
    """
    X, y = as_design(X, y)
    GPR.check(length_scale=length_scale, noise_variance=noise_variance)

    subsampled = X.shape[0] > max_points
    if subsampled:
        keep = stream(seed, "gpr-subset").permutation(X.shape[0])[:max_points]
        keep.sort()
        X = X[keep]
        y = y[keep]

    K = rbf_kernel(X, X, length_scale)
    K[np.diag_indices_from(K)] += noise_variance

    diag = np.diag_indices_from(K)
    last = 0.0
    for jitter in (0.0,) + _JITTERS:
        K[diag] += jitter - last
        last = jitter
        try:
            factor = cho_factor(K, lower=True)
        except LinAlgError:
            continue
        alpha = cho_solve(factor, y)
        return GPRModel(X, alpha, length_scale, noise_variance, jitter, subsampled)
    raise NotPositiveDefinite(_JITTERS[-1])


GPR = ModelKind(
    "GPR",
    defaults={"length_scale": 1.0, "noise_variance": 0.01, "max_points": 2000},
    rules={"length_scale": POSITIVE, "noise_variance": NON_NEGATIVE,
           "max_points": AT_LEAST_ONE},
    fit=lambda X, y, hp, seed: fit_gpr(X, y, seed=seed, **hp),
    schema=(("float", "length_scale"), ("float", "noise_variance"),
            ("float", "jitter"), ("int", "subsampled"), ("array", "alpha"),
            ("matrix", "X_train")),
    load=lambda fields, n_features: GPRModel(**fields),
)
