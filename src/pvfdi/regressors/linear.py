"""Linear models: ordinary least squares and L1-penalized least squares.

Both produce a LinearModel (coefficients plus unpenalized bias), the lasso
its LassoModel subclass, which differs only in ``kind``. OLS is
solved by SVD (rank-revealing, minimum-norm on rank-deficient designs);
the lasso by cyclic coordinate descent with soft-thresholding on the
objective (1/2n)||y - X theta - theta0||^2 + lambda * ||theta||_1.
"""

import numpy as np

from .base import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, TrainedModel, as_design, require_finite

__all__ = ["LinearModel", "LassoModel", "fit_lr", "fit_lasso", "lasso_lambda_max"]


class LinearModel(TrainedModel):
    kind = "LR"
    schema = (("float", "bias"), ("array", "coefficients"))

    def _check_fields(self):
        require_finite(coefficients=self.coefficients, bias=self.bias)
        return self.coefficients.size

    def _predict_batch(self, X):
        return X @ self.coefficients + self.bias


class LassoModel(LinearModel):
    kind = "LASSO"
    rules = {"lam": NON_NEGATIVE, "tol": POSITIVE, "max_sweeps": AT_LEAST_ONE}


def fit_lr(X, y) -> LinearModel:
    """Ordinary least squares with intercept.

    Features and targets are centered, the coefficient vector is the
    minimum-norm least-squares solution of the centered system, and the
    bias absorbs the means. On a single sample this degenerates to
    bias = y, coefficients = 0.
    """
    X, y = as_design(X, y)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    coef, *_ = np.linalg.lstsq(X - x_mean, y - y_mean, rcond=None)
    return LinearModel(X.shape[1], coefficients=coef, bias=y_mean - x_mean @ coef)


LinearModel.fit = staticmethod(fit_lr)


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_lambda_max(X, y) -> float:
    """Smallest penalty for which the lasso solution is all zeros."""
    X, y = as_design(X, y)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    return float(np.max(np.abs(Xc.T @ yc)) / n)


def fit_lasso(X, y, lam: float = 0.01, tol: float = 1e-8,
              max_sweeps: int = 10_000) -> LassoModel:
    """L1-penalized least squares by cyclic coordinate descent.

    Stops when the largest coefficient change in a full sweep falls
    below ``tol`` or after ``max_sweeps`` sweeps. The bias is left
    unpenalized (handled by centering). With lam=0 this reduces to
    coordinate-descent least squares.
    """
    LassoModel.check(lam=lam, tol=tol, max_sweeps=max_sweeps)
    X, y = as_design(X, y)
    n, d = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean

    col_sq = np.einsum("ij,ij->j", Xc, Xc) / n  # (1/n) ||x_j||^2
    theta = np.zeros(d)
    residual = yc.copy()

    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue  # constant column carries no signal
            old = theta[j]
            rho = (Xc[:, j] @ residual) / n + col_sq[j] * old
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != old:
                residual += Xc[:, j] * (old - new)
                theta[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            break

    return LassoModel(d, coefficients=theta, bias=y_mean - x_mean @ theta)


LassoModel.fit = staticmethod(fit_lasso)
