"""Epsilon-insensitive support vector regression via SMO.

The dual is posed over 2n variables z = (alpha; alpha*) with signs
s = (+1...; -1...), linear term p = (eps - y; eps + y) and Hessian
Q[u,v] = s_u s_v K(u mod n, v mod n), minimizing 1/2 z'Qz + p'z subject
to 0 <= z <= C and s'z = 0. Pairs are picked by maximal violation for i
and a second-order gain rule for j; the stop test is the maximal KKT
violation Gmax + Gmax2 dropping below tol.

Hitting max_iterations is not an error: the best iterate is returned
with ``converged`` False so callers can decide what to do with it. A cap
of 0 returns the starting iterate.
"""

from collections import OrderedDict

import numpy as np

from .base import (AT_LEAST_ZERO, NON_NEGATIVE, POSITIVE, TrainedModel, as_design,
                   require_finite)

__all__ = ["SVRModel", "fit_svr", "kkt_violation"]

_TAU = 1e-12  # floor for non-positive curvature, as in standard SMO solvers

_CHUNK_ROWS = 512


def _rbf_rows(A, X, X_sq, gamma):
    d2 = np.einsum("ij,ij->i", A, A)[:, np.newaxis] - 2.0 * (A @ X.T) + X_sq
    return np.exp(-gamma * np.maximum(d2, 0.0))


class _RowCache:
    """LRU cache of kernel rows K(base, :) over the training set."""

    def __init__(self, X, gamma, cache_mb):
        self.X = X
        self.X_sq = np.einsum("ij,ij->i", X, X)
        self.gamma = gamma
        n = X.shape[0]
        self.max_rows = max(2, int(cache_mb * 2**20 / (8 * n)))
        self.full = None
        if n <= self.max_rows:
            self.full = _rbf_rows(X, X, self.X_sq, gamma)
        self._rows = OrderedDict()

    def row(self, base):
        if self.full is not None:
            return self.full[base]
        got = self._rows.get(base)
        if got is not None:
            self._rows.move_to_end(base)
            return got
        got = _rbf_rows(self.X[base : base + 1], self.X, self.X_sq,
                        self.gamma)[0]
        if len(self._rows) >= self.max_rows:
            self._rows.popitem(last=False)
        self._rows[base] = got
        return got


class SVRModel(TrainedModel):
    kind = "SVR"
    schema = (("float", "bias"), ("float", "gamma"), ("float", "C"),
              ("float", "epsilon"), ("int", "converged"), ("int", "iterations"),
              ("float", "kkt_violation"), ("float", "dual_objective"),
              ("array", "sv_coef"), ("matrix", "sv_X"))
    rules = {"C": POSITIVE, "epsilon": NON_NEGATIVE,
             "gamma": (lambda v: v is None or v > 0, "must be positive or None"),
             "tol": POSITIVE, "max_iterations": AT_LEAST_ZERO}

    def _check_fields(self):
        if self.sv_coef.shape != self.sv_X.shape[:1]:
            raise ValueError("sv_coef needs one weight per support vector")
        # kkt_violation and dual_objective may be infinite (no SMO step yet)
        require_finite(sv_X=self.sv_X, sv_coef=self.sv_coef, bias=self.bias, gamma=self.gamma)
        return self.sv_X.shape[1]

    @property
    def n_support(self):
        return self.sv_X.shape[0]

    def _predict_batch(self, X):
        out = np.empty(X.shape[0])
        if self.n_support == 0:
            out.fill(self.bias)
            return out
        sv_sq = np.einsum("ij,ij->i", self.sv_X, self.sv_X)
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start : start + _CHUNK_ROWS]
            k = _rbf_rows(chunk, self.sv_X, sv_sq, self.gamma)
            out[start : start + _CHUNK_ROWS] = k @ self.sv_coef + self.bias
        return out


def _select_pair(G, s, lower, upper, cache, n, tol):
    """Return (i, j, violation); i or j of -1 signals optimality."""
    up_val = np.where((s > 0) & ~upper | (s < 0) & ~lower, -s * G, -np.inf)
    i = int(np.argmax(up_val))
    gmax = up_val[i]
    in_low = (s > 0) & ~lower | (s < 0) & ~upper
    low_val = np.where(in_low, s * G, -np.inf)
    gmax2 = low_val.max()
    violation = gmax + gmax2
    if not np.isfinite(violation) or violation < tol:
        return -1, -1, violation

    k_i = cache.row(i % n)
    k2 = np.concatenate((k_i, k_i))
    # kernel diagonal is 1 for RBF
    quad = np.maximum(2.0 - 2.0 * k2, _TAU)
    grad_diff = gmax + s * G
    gain = np.where(in_low & (grad_diff > 0),
                    -(grad_diff * grad_diff) / quad, np.inf)
    j = int(np.argmin(gain))
    if not np.isfinite(gain[j]):
        return -1, -1, violation
    return i, j, violation


def _take_step(z, G, s, i, j, C, cache, n):
    """One pairwise update, clipped to the box; mirrors the classic solver."""
    k_i = cache.row(i % n)
    k_j = cache.row(j % n)
    kij = k_i[j % n]
    quad = max(2.0 - 2.0 * kij, _TAU)
    old_i, old_j = z[i], z[j]

    if s[i] != s[j]:
        delta = (-G[i] - G[j]) / quad
        diff = old_i - old_j
        z[i] = old_i + delta
        z[j] = old_j + delta
        if diff > 0:
            if z[j] < 0:
                z[j] = 0.0
                z[i] = diff
        else:
            if z[i] < 0:
                z[i] = 0.0
                z[j] = -diff
        if diff > 0:
            if z[i] > C:
                z[i] = C
                z[j] = C - diff
        else:
            if z[j] > C:
                z[j] = C
                z[i] = C + diff
    else:
        delta = (G[i] - G[j]) / quad
        total = old_i + old_j
        z[i] = old_i - delta
        z[j] = old_j + delta
        if total > C:
            if z[i] > C:
                z[i] = C
                z[j] = total - C
        else:
            if z[j] < 0:
                z[j] = 0.0
                z[i] = total
        if total > C:
            if z[j] > C:
                z[j] = C
                z[i] = total - C
        else:
            if z[i] < 0:
                z[i] = 0.0
                z[j] = total

    d_i = z[i] - old_i
    d_j = z[j] - old_j
    G += (s[i] * d_i) * (s * np.concatenate((k_i, k_i)))
    G += (s[j] * d_j) * (s * np.concatenate((k_j, k_j)))


def kkt_violation(X, y, z, C, epsilon, gamma) -> float:
    """Maximal KKT violation of dual iterate ``z``, recomputed from scratch.

    Independent of any solver state: rebuilds the gradient from the
    kernel and returns Gmax + Gmax2 (negative infinity when one side has
    no movable variable).
    """
    X = np.asarray(X, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = X.shape[0]
    s = np.concatenate((np.ones(n), -np.ones(n)))
    p = np.concatenate((epsilon - y, epsilon + y))
    X_sq = np.einsum("ij,ij->i", X, X)
    K = _rbf_rows(X, X, X_sq, gamma)
    beta = z[:n] - z[n:]
    G = s * np.tile(K @ beta, 2) + p
    lower, upper = z <= 0.0, z >= C
    up_val = np.where((s > 0) & ~upper | (s < 0) & ~lower, -s * G, -np.inf)
    low_val = np.where((s > 0) & ~lower | (s < 0) & ~upper, s * G, -np.inf)
    return float(up_val.max() + low_val.max())


def _bias(G, s, z, C):
    """Average s*G over free vectors, else the feasible-interval midpoint."""
    free = (z > 0.0) & (z < C)
    if free.any():
        rho = float((s[free] * G[free]).mean())
        return -rho
    yg = s * G
    upper_cap = np.where((z >= C) & (s < 0) | (z <= 0.0) & (s > 0), yg, np.inf)
    lower_cap = np.where((z >= C) & (s > 0) | (z <= 0.0) & (s < 0), yg, -np.inf)
    return -(upper_cap.min() + lower_cap.max()) / 2.0


def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1,
            gamma: float | None = None, tol: float = 1e-3,
            max_iterations: int = 200_000, cache_mb: float = 128.0) -> SVRModel:
    """Train an RBF-kernel SVR; gamma defaults to 1/n_features."""
    X, y = as_design(X, y)
    SVRModel.check(C=C, epsilon=epsilon, gamma=gamma, tol=tol, max_iterations=max_iterations)
    n = X.shape[0]
    if gamma is None:
        gamma = 1.0 / X.shape[1]

    s = np.concatenate((np.ones(n), -np.ones(n)))
    p = np.concatenate((epsilon - y, epsilon + y))
    z = np.zeros(2 * n)
    G = p.copy()
    cache = _RowCache(X, gamma, cache_mb)

    converged = False
    violation = np.inf
    it = 0
    while it < max_iterations:
        i, j, violation = _select_pair(G, s, z <= 0.0, z >= C, cache, n, tol)
        if i < 0:
            converged = True
            break
        _take_step(z, G, s, i, j, C, cache, n)
        it += 1

    beta = z[:n] - z[n:]
    bias = _bias(G, s, z, C)
    keep = beta != 0.0
    model = SVRModel(X.shape[1], sv_X=X[keep], sv_coef=beta[keep], bias=bias, gamma=gamma,
                     C=C, epsilon=epsilon, converged=converged, iterations=it,
                     kkt_violation=violation, dual_objective=-0.5 * float(z @ (G + p)))
    model._dual_z = z  # full (alpha; alpha*) iterate, for KKT auditing
    return model


SVRModel.fit = staticmethod(fit_svr)
