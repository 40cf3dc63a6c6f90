"""Single-hidden-layer perceptron regressor trained by full-batch Adam.

Architecture is input -> hidden (ReLU) -> linear output, squared loss.
``mlp_loss`` and ``loss_and_gradient`` are module-level and operate on a
plain (W1, b1, W2, b2) tuple so the backward pass can be checked against
finite differences without touching a trained model.

Training runs every epoch in two (n, hidden) float64 buffers allocated
once per fit: ``a1`` holds the hidden activations, built in place as
``X @ W1``, ``+= b1``, ReLU, and ``d`` the hidden-layer delta. Both give
the bits of the textbook form (fresh ``z1 = X @ W1 + b1``, an outer product
and a ``z1 <= 0`` mask), so weights, loss history and predictions are
unchanged:

- ``a1 > 0`` equals ``z1 > 0`` for every non-NaN ``z1``. A NaN makes the
  loss NaN, and the fit raises NonFiniteLoss before computing the
  gradient.
- ``d`` is the 0/1 mask times ``W2`` times ``d_out``. An active entry is
  ``1.0 * W2[j] * d_out[i]``, exactly ``d_out[i] * W2[j]`` since
  multiplication by 1.0 is exact and IEEE multiplication commutes. A
  masked entry is a zero of either sign, and ``d += 0.0`` turns -0.0
  into the +0.0 the mask used to store. (An active product that is
  itself exactly zero, which needs ``r[i] == 0`` or ``W2[j] == 0``,
  becomes +0.0 too. That can at most flip the sign of a zero gradient
  entry, and Adam takes the same step for a zero of either sign.)
- ``X.T @ d`` and ``d.sum(axis=0)`` see the same C-ordered layout as
  before, so BLAS and numpy sum in the same order. Splitting the rows
  into chunks would change that order.
"""

import numpy as np

from ..errors import NonFiniteLoss
from ..rng import stream
from .base import AT_LEAST_ONE, POSITIVE, TrainedModel, as_design, require_finite

__all__ = ["MLPRModel", "fit_mlpr", "init_params", "mlp_loss",
           "loss_and_gradient"]


def init_params(n_features, hidden, seed):
    """He-uniform weights, zero biases; draw order is W1 then W2."""
    rng = stream(seed, "mlp-init")
    lim1 = np.sqrt(6.0 / n_features)
    W1 = rng.uniform(-lim1, lim1, size=(n_features, hidden))
    b1 = np.zeros(hidden)
    lim2 = np.sqrt(6.0 / hidden)
    W2 = rng.uniform(-lim2, lim2, size=hidden)
    b2 = 0.0
    return W1, b1, W2, b2


def _forward(params, X, a1=None):
    """Hidden activations and outputs; ``a1`` is (n, hidden) scratch space.

    The ReLU layer is built in place, so no pre-activation array is kept.
    """
    W1, b1, W2, b2 = params
    if a1 is None:
        a1 = np.empty((X.shape[0], W1.shape[1]))
    np.matmul(X, W1, out=a1)
    a1 += b1
    np.maximum(a1, 0.0, out=a1)
    return a1, a1 @ W2 + b2


def mlp_loss(params, X, y):
    """Mean squared error of the net on (X, y)."""
    _, yhat = _forward(params, X)
    r = yhat - y
    return float(r @ r) / X.shape[0]


def _forward_loss(params, X, y, a1):
    """(residuals, loss), leaving the hidden activations in ``a1``.

    A diverged net overflows here, and its loss then reads inf or NaN,
    which a fit raises on before any backward pass; the forward pass's
    floating-point warnings would only repeat that.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = _forward(params, X, a1)[1] - y
        loss = float(r @ r) / X.shape[0]
    return r, loss


def _gradient(params, X, a1, r, d):
    """Gradient from ``_forward_loss``'s ``a1`` and residuals; ``d`` is scratch."""
    W2 = params[2]
    d_out = (2.0 / X.shape[0]) * r
    gW2 = a1.T @ d_out
    gb2 = float(d_out.sum())
    # d = mask * W2 * d_out; see the module docstring for why the bits match
    np.greater(a1, 0.0, out=d)
    d *= W2
    d *= d_out[:, np.newaxis]
    d += 0.0
    gW1 = X.T @ d
    gb1 = d.sum(axis=0)
    return gW1, gb1, gW2, gb2


def _loss_and_gradient(params, X, y, a1, d):
    """``loss_and_gradient`` writing into two (n, hidden) buffers."""
    r, loss = _forward_loss(params, X, y, a1)
    return loss, _gradient(params, X, a1, r, d)


def loss_and_gradient(params, X, y):
    """Loss plus its gradient in the same (W1, b1, W2, b2) layout."""
    shape = (X.shape[0], np.shape(params[0])[1])
    return _loss_and_gradient(params, X, y, np.empty(shape), np.empty(shape))


class MLPRModel(TrainedModel):
    kind = "MLPR"
    schema = (("float", "b2"), ("int", "stopped_early"), ("array", "loss_history"),
              ("array", "b1"), ("array", "W2"), ("matrix", "W1"))
    rules = {"hidden": AT_LEAST_ONE, "learning_rate": POSITIVE,
             "max_epochs": AT_LEAST_ONE, "tol": POSITIVE, "patience": AT_LEAST_ONE}

    def _check_fields(self):
        W1 = self.W1
        if W1.ndim != 2 or self.b1.shape != W1.shape[1:] or self.W2.shape != W1.shape[1:]:
            raise ValueError("W1, b1 and W2 disagree on the hidden width")
        require_finite(W1=W1, b1=self.b1, W2=self.W2, b2=self.b2)
        return W1.shape[0]

    @property
    def params(self):
        return self.W1, self.b1, self.W2, self.b2

    @property
    def epochs_run(self):
        return len(self.loss_history)

    def _predict_batch(self, X):
        return _forward(self.params, X)[1]


def fit_mlpr(X, y, hidden: int = 100, learning_rate: float = 1e-3,
             max_epochs: int = 500, tol: float = 1e-8, patience: int = 10,
             seed: int = 0) -> MLPRModel:
    """Train with Adam (beta1 0.9, beta2 0.999, eps 1e-8) on the full batch.

    Stops early once the loss has moved by less than ``tol`` between
    consecutive epochs for ``patience`` epochs in a row, i.e. when
    training has stalled. A transient loss rise (full-batch Adam
    momentum overshoots early on) does not trigger the stop. Raises
    NonFiniteLoss if the loss leaves the reals (divergence).
    """
    X, y = as_design(X, y)
    MLPRModel.check(hidden=hidden, learning_rate=learning_rate, max_epochs=max_epochs, tol=tol,
                    patience=patience)
    params = init_params(X.shape[1], hidden, seed)

    a1 = np.empty((X.shape[0], hidden))
    d = np.empty_like(a1)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
    v = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]

    history = []
    previous = np.inf
    streak = 0
    stopped_early = False
    for epoch in range(max_epochs):
        r, loss = _forward_loss(params, X, y, a1)
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch)
        grads = _gradient(params, X, a1, r, d)
        history.append(loss)
        if abs(previous - loss) < tol:
            streak += 1
            if streak >= patience:
                stopped_early = True
                break
        else:
            streak = 0
        previous = loss

        t = epoch + 1
        scale = learning_rate * np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        new = []
        for idx, (p, g) in enumerate(zip(params, grads)):
            m[idx] = beta1 * m[idx] + (1.0 - beta1) * g
            v[idx] = beta2 * v[idx] + (1.0 - beta2) * np.square(g)
            step = scale * m[idx] / (np.sqrt(v[idx]) + eps)
            new.append(p - step)
        params = (new[0], new[1], new[2], float(new[3]))

    W1, b1, W2, b2 = params
    return MLPRModel(X.shape[1], W1=W1, b1=b1, W2=W2, b2=b2, loss_history=history,
                     stopped_early=stopped_early)


MLPRModel.fit = staticmethod(fit_mlpr)
