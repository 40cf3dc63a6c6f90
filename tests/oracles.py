"""Reference computations that the tests check the regressors against.

Each is rebuilt from the package's own kernels (SVR's ``_rbf_rows`` and
``_smo``, MLPR's ``_hidden``, ``_forward_loss`` and ``_gradient`` over one
whole chunk, GPR's ``rbf_kernel``), so the tests audit a fit without the
package keeping anything for them.
"""

import numpy as np

from pvfdi.regressors.base import CHUNK_ROWS, as_design, padded_width
from pvfdi.regressors.gpr import rbf_kernel
from pvfdi.regressors.mlp import _forward_loss, _gradient, _hidden
from pvfdi.regressors.svr import SVRModel, _rbf_rows, _smo


def dual_iterate(X, y, **hyperparameters):
    """The (alpha; alpha*) iterate that ``fit_svr(X, y, **hyperparameters)`` ends on."""
    hp = {**SVRModel.defaults(), **hyperparameters}
    if hp["gamma"] is None:
        hp["gamma"] = 1.0 / X.shape[1]
    return _smo(X, y, **hp)[0]


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
