"""Reference computations that the tests check the regressors against.

Each is rebuilt from the package's own kernels (SVR's ``_rbf_rows``,
``_bias`` and ``_smo``, MLPR's ``_hidden``, ``_forward_loss`` and
``_gradient`` over one whole chunk, GPR's ``rbf_kernel``), so the tests
audit a fit without the package keeping anything for them. SVR's
``reference_smo`` keeps the solver loop that selects pairs through
data-dependent masks, which the package's gated loop must match bit for bit.
"""

import numpy as np

from pvfdi.regressors.base import CHUNK_ROWS, as_design, padded_width
from pvfdi.regressors.gpr import rbf_kernel
from pvfdi.regressors.mlp import _forward_loss, _gradient, _hidden
from pvfdi.regressors.svr import _TAU, SVRModel, _bias, _rbf_rows, _smo


def _svr_hyperparameters(X, hyperparameters):
    hp = {**SVRModel.defaults(), **hyperparameters}
    if hp["gamma"] is None:
        hp["gamma"] = 1.0 / X.shape[1]
    return hp


def dual_iterate(X, y, **hyperparameters):
    """The (alpha; alpha*) iterate that ``fit_svr(X, y, **hyperparameters)`` ends on."""
    return _smo(X, y, **_svr_hyperparameters(X, hyperparameters))[0]


def _masked_select_pair(F, s, lower, upper, row, n, tol):
    """Return (i, j, violation); i or j of -1 signals optimality."""
    up_val = np.where((s > 0) & ~upper | (s < 0) & ~lower, -F, -np.inf)
    i = int(np.argmax(up_val))
    gmax = up_val[i]
    in_low = (s > 0) & ~lower | (s < 0) & ~upper
    low_val = np.where(in_low, F, -np.inf)
    gmax2 = low_val.max()
    violation = gmax + gmax2
    if not np.isfinite(violation) or violation < tol:
        return -1, -1, violation

    # kernel diagonal is 1 for RBF; one quad entry serves both halves
    quad = np.maximum(2.0 - 2.0 * row(i % n), _TAU)
    grad_diff = (gmax + F).reshape(2, n)
    gain = np.where(in_low.reshape(2, n) & (grad_diff > 0),
                    -(grad_diff * grad_diff) / quad, np.inf)
    j = int(np.argmin(gain))
    if not np.isfinite(gain.flat[j]):
        return -1, -1, violation
    return i, j, violation


def _reference_step(z, F, s, i, j, C, row, n):
    """One pairwise update, clipped to the box; mirrors the classic solver."""
    k_i, k_j = row(i % n), row(j % n)
    quad = max(2.0 - 2.0 * k_i[j % n], _TAU)
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


def reference_smo(X, y, **hyperparameters):
    """(z, fields) as ``svr._smo`` returns them, from the loop that rebuilds the
    up and low sets from ``z`` with boolean masks at every step and computes
    each kernel row afresh."""
    hp = _svr_hyperparameters(X, hyperparameters)
    C, epsilon, gamma = hp["C"], hp["epsilon"], hp["gamma"]
    n = X.shape[0]
    s = np.concatenate((np.ones(n), -np.ones(n)))
    p = np.concatenate((epsilon - y, epsilon + y))
    z = np.zeros(2 * n)
    F = s * p
    X_sq = np.einsum("ij,ij->i", X, X)

    def row(b):
        return _rbf_rows(X[b : b + 1], X, X_sq, gamma)[0]

    converged = False
    violation = np.inf
    it = 0
    while it < hp["max_iterations"]:
        i, j, violation = _masked_select_pair(F, s, z <= 0.0, z >= C, row, n, hp["tol"])
        if i < 0:
            converged = True
            break
        _reference_step(z, F, s, i, j, C, row, n)
        it += 1
    return z, dict(bias=_bias(F, s, z, C), dual_objective=-0.5 * float(z @ (s * F + p)),
                   iterations=it, converged=converged, kkt_violation=violation)


def reference_svr(X, y, **hyperparameters):
    """The SVRModel ``fit_svr`` builds, from ``reference_smo``'s iterate."""
    X, y = as_design(X, y)
    hp = _svr_hyperparameters(X, hyperparameters)
    z, fields = reference_smo(X, y, **hyperparameters)
    n = X.shape[0]
    beta = z[:n] - z[n:]
    keep = beta != 0.0
    return SVRModel(X.shape[1], sv_X=X[keep], sv_coef=beta[keep], gamma=hp["gamma"],
                    C=hp["C"], epsilon=hp["epsilon"], **fields)


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


# MLPR's kernels over every row at once
WHOLE = (slice(None),)


def mlp_loss(params, X, y):
    """Mean squared error of the net on (X, y), its outputs computed as predict does."""
    hidden = np.shape(params[0])[1]
    a1 = np.empty((X.shape[0], padded_width(hidden)))
    _hidden(params, X, a1)
    r = a1[:, :hidden] @ params[2] + params[3] - y
    return float(r @ r) / X.shape[0]


def loss_and_gradient(params, X, y):
    """Loss plus its gradient in the same (W1, b1, W2, b2) layout, as a fit computes them."""
    hidden = np.shape(params[0])[1]
    shape = (X.shape[0], padded_width(hidden))
    a1, d = np.empty(shape), np.empty(shape)
    r, loss = _forward_loss(params, X, y, a1, WHOLE, d)
    return loss, _gradient(X, a1, r, d, WHOLE, hidden)


def gpr_chunked_mean(model, X):
    """A GPR model's posterior mean over X, one chunk of rows after another.

    Each chunk's kernel block and its product with alpha are built over
    that chunk's rows alone: the plain loop that GPR's position-keeping
    ``predict_rows`` loop must match when it predicts every row.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], CHUNK_ROWS):
        chunk = X[start : start + CHUNK_ROWS]
        k_star = rbf_kernel(chunk, model.X_train, model.length_scale)
        out[start : start + CHUNK_ROWS] = k_star @ model.alpha
    return out


def lasso_lambda_max(X, y) -> float:
    """Smallest penalty for which the lasso solution is all zeros."""
    X, y = as_design(X, y)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    return float(np.max(np.abs(Xc.T @ yc)) / n)
