"""Epsilon-insensitive support vector regression via SMO.

The dual is posed over 2n variables z = (alpha; alpha*) with signs
s = (+1...; -1...), linear term p = (eps - y; eps + y) and Hessian
Q[u,v] = s_u s_v K(u mod n, v mod n), minimizing 1/2 z'Qz + p'z subject
to 0 <= z <= C and s'z = 0. Pairs are picked by maximal violation for i
and a second-order gain rule for j; the stop test is the maximal KKT
violation Gmax + Gmax2 dropping below tol.

The solver keeps F = s * G and updates each half of it with K's n-entry
row. For s = +-1, s * (G + c * (s * k)) equals s * G + c * k bit for bit,
as negation is exact and round-to-nearest symmetric.

The up and low sets are held as two gates, arrays of infinities that a
step updates at i and j only, so each selection runs about nine unmasked
passes over 2n entries: np.maximum and argmin pick i, np.minimum and max
give Gmax2, and four passes and an argmax pick j (see ``_select_pair``).
Each pick is the one the masked rule makes, ties included.

As in LIBSVM, kernel rows are computed on demand, each alone, into one
LRU cache that ``cache_mb`` bounds; each entry holds a row and its
``quad`` vector, so it counts 16 bytes per training row. A row computed
again after an eviction has the same bytes, so ``cache_mb`` limits memory
and never the model.

Hitting max_iterations is not an error: the best iterate is returned
with ``converged`` False so callers can decide what to do with it. A cap
of 0 returns the starting iterate.
"""

import math
from functools import lru_cache

import numpy as np

from .base import (AT_LEAST_ZERO, CHUNK_ROWS, FINITE_POSITIVE, NON_NEGATIVE, POSITIVE,
                   TrainedModel, require_finite)

__all__ = ["SVRModel", "fit_svr"]

_TAU = 1e-12  # floor for non-positive curvature, as in standard SMO solvers


def _rbf_rows(A, X, X_sq, gamma):
    d2 = np.einsum("ij,ij->i", A, A)[:, np.newaxis] - 2.0 * (A @ X.T) + X_sq
    return np.exp(-gamma * np.maximum(d2, 0.0))


def _row_cache(X, gamma, cache_mb):
    """``row(b)``: (K(b, :), its ``quad``), from an LRU of ``cache_mb`` that
    holds >= 2 rows.

    A row's ``quad`` is max(K(b, b) + K(v, v) - 2 K(b, v), _TAU) over every
    v: the curvature along the pair (b, v). The RBF diagonal is 1, and one
    n-entry vector serves both halves of the dual.
    """
    X_sq = np.einsum("ij,ij->i", X, X)

    @lru_cache(maxsize=max(2, int(cache_mb * 2**20 / (16 * X.shape[0]))))
    def row(b):
        k = _rbf_rows(X[b : b + 1], X, X_sq, gamma)[0]
        return k, np.maximum(2.0 - 2.0 * k, _TAU)

    return row


class SVRModel(TrainedModel):
    kind = "SVR"
    schema = (("float", "bias"), ("float", "gamma"), ("float", "C"),
              ("float", "epsilon"), ("int", "converged"), ("int", "iterations"),
              ("float", "kkt_violation"), ("float", "dual_objective"),
              ("array", "sv_coef"), ("matrix", "sv_X"))
    rules = {"C": FINITE_POSITIVE, "epsilon": NON_NEGATIVE,
             "gamma": (lambda v: v is None or 0 < v < math.inf,
                       "must be positive and finite, or None"),
             "tol": POSITIVE, "max_iterations": AT_LEAST_ZERO,
             "cache_mb": FINITE_POSITIVE}

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
        for start in range(0, X.shape[0], CHUNK_ROWS):
            chunk = X[start : start + CHUNK_ROWS]
            k = _rbf_rows(chunk, self.sv_X, sv_sq, self.gamma)
            out[start : start + CHUNK_ROWS] = k @ self.sv_coef + self.bias
        return out


def _gates(z, C, n):
    """(up_gate, low_gate) of the iterate ``z``: -inf on the up set, +inf on
    the low set, and the other infinity elsewhere.

    Variable t is in the up set when z[t] can move so that s[t] * z[t]
    grows (z < C for s = +1, z > 0 for s = -1), and in the low set when it
    can move the other way.
    """
    above, below = z > 0.0, z < C
    up = np.concatenate((below[:n], above[n:]))
    low = np.concatenate((above[:n], below[n:]))
    return np.where(up, -np.inf, np.inf), np.where(low, np.inf, -np.inf)


def _set_gates(up_gate, low_gate, z, C, n, t):
    """Refresh entry t of both gates after a step moved z[t]."""
    above, below = z[t] > 0.0, z[t] < C
    if t >= n:
        above, below = below, above
    up_gate[t] = -np.inf if below else np.inf
    low_gate[t] = np.inf if above else -np.inf


def _select_pair(F, up_gate, low_gate, row, n, tol):
    """Return (i, j, violation); i or j of -1 signals optimality.

    max(F, up_gate) is F on the up set and +inf off it, so its first
    minimum is i, the first maximum of -F there. min(F, low_gate) is F on
    the low set and -inf off it, where gmax + F then fails the gain test.
    j is the first maximum of the ratio (gmax + F)^2 / quad over the low
    set where gmax + F > 0: the negated gain of the classic rule, whose
    first minimum it is. Signed by gmax + F, every other entry is <= 0
    while those ratios are >= 0, so a positive maximum is that pick; when
    none is positive (no candidate, or every ratio underflows to 0) a
    masked pass decides.
    """
    up = np.maximum(F, up_gate)
    i = int(np.argmin(up))
    gmax = -up[i]
    grad_diff = np.minimum(F, low_gate, out=up)
    gmax2 = grad_diff.max()
    violation = gmax + gmax2
    if not np.isfinite(violation) or violation < tol:
        return -1, -1, violation

    grad_diff += gmax
    ratio = np.multiply(grad_diff, grad_diff)
    halves = ratio.reshape(2, n)
    halves /= row(i % n)[1]
    np.copysign(ratio, grad_diff, out=ratio)
    j = int(np.argmax(ratio))
    if not ratio[j] > 0.0:  # no positive ratio: ties at zero need the mask
        ratio = np.where(grad_diff > 0, np.abs(ratio), -np.inf)
        j = int(np.argmax(ratio))
    if not np.isfinite(ratio[j]):
        return -1, -1, violation
    return i, j, violation


def _take_step(z, F, s, i, j, C, row, n):
    """One pairwise update, clipped to the box; mirrors the classic solver."""
    k_i, quad = row(i % n)
    k_j = row(j % n)[0]
    quad = quad[j % n]
    old_i, old_j = z[i], z[j]
    G_i, G_j = s[i] * F[i], s[j] * F[j]

    if s[i] != s[j]:
        delta = (-G_i - G_j) / quad
        diff = old_i - old_j
        z[i] = old_i + delta
        z[j] = old_j + delta
        if diff > 0:
            if z[j] < 0:
                z[j] = 0.0
                z[i] = diff
            if z[i] > C:
                z[i] = C
                z[j] = C - diff
        else:
            if z[i] < 0:
                z[i] = 0.0
                z[j] = -diff
            if z[j] > C:
                z[j] = C
                z[i] = C + diff
    else:
        delta = (G_i - G_j) / quad
        total = old_i + old_j
        z[i] = old_i - delta
        z[j] = old_j + delta
        if total > C:
            if z[i] > C:
                z[i] = C
                z[j] = total - C
            if z[j] > C:
                z[j] = C
                z[i] = total - C
        else:
            if z[j] < 0:
                z[j] = 0.0
                z[i] = total
            if z[i] < 0:
                z[i] = 0.0
                z[j] = total

    d_i = z[i] - old_i
    d_j = z[j] - old_j
    halves = F.reshape(2, n)
    halves += (s[i] * d_i) * k_i
    halves += (s[j] * d_j) * k_j


def _bias(F, s, z, C):
    """Average F over free vectors, else the feasible-interval midpoint."""
    free = (z > 0.0) & (z < C)
    if free.any():
        return -float(F[free].mean())
    upper_cap = np.where((z >= C) & (s < 0) | (z <= 0.0) & (s > 0), F, np.inf)
    lower_cap = np.where((z >= C) & (s > 0) | (z <= 0.0) & (s < 0), F, -np.inf)
    return -(upper_cap.min() + lower_cap.max()) / 2.0


def _smo(X, y, C, epsilon, gamma, tol, max_iterations, cache_mb):
    """(z, fields): the dual iterate, and the SVRModel fields that SMO decides."""
    n = X.shape[0]
    s = np.concatenate((np.ones(n), -np.ones(n)))
    p = np.concatenate((epsilon - y, epsilon + y))
    z = np.zeros(2 * n)
    F = s * p
    row = _row_cache(X, gamma, cache_mb)

    up_gate, low_gate = _gates(z, C, n)

    converged = False
    violation = np.inf
    it = 0
    while it < max_iterations:
        i, j, violation = _select_pair(F, up_gate, low_gate, row, n, tol)
        if i < 0:
            converged = True
            break
        _take_step(z, F, s, i, j, C, row, n)
        _set_gates(up_gate, low_gate, z, C, n, i)
        _set_gates(up_gate, low_gate, z, C, n, j)
        it += 1
    return z, dict(bias=_bias(F, s, z, C), dual_objective=-0.5 * float(z @ (s * F + p)),
                   iterations=it, converged=converged, kkt_violation=violation)


@SVRModel.fitting
def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1,
            gamma: float | None = None, tol: float = 1e-3,
            max_iterations: int = 200_000, cache_mb: float = 128.0) -> SVRModel:
    """Train an RBF-kernel SVR; gamma defaults to 1/n_features; ``cache_mb`` bounds memory only."""
    n = X.shape[0]
    if gamma is None:
        gamma = 1.0 / X.shape[1]
    z, fields = _smo(X, y, C, epsilon, gamma, tol, max_iterations, cache_mb)
    beta = z[:n] - z[n:]
    keep = beta != 0.0
    return SVRModel(X.shape[1], sv_X=X[keep], sv_coef=beta[keep], gamma=gamma, C=C,
                    epsilon=epsilon, **fields)
