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
  loss NaN, and the fit raises NonFiniteLoss before using the gradient.
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
from .base import AT_LEAST_ONE, POSITIVE, ModelKind, TrainedModel, as_design, require_finite

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


def _loss_and_gradient(params, X, y, a1, d):
    """``loss_and_gradient`` writing into two (n, hidden) buffers."""
    W2 = params[2]
    n = X.shape[0]
    a1, yhat = _forward(params, X, a1)
    r = yhat - y
    d_out = (2.0 / n) * r
    gW2 = a1.T @ d_out
    gb2 = float(d_out.sum())
    # d = mask * W2 * d_out; see the module docstring for why the bits match
    np.greater(a1, 0.0, out=d)
    d *= W2
    d *= d_out[:, np.newaxis]
    d += 0.0
    gW1 = X.T @ d
    gb1 = d.sum(axis=0)
    return float(r @ r) / n, (gW1, gb1, gW2, gb2)


def loss_and_gradient(params, X, y):
    """Loss plus its gradient in the same (W1, b1, W2, b2) layout."""
    shape = (X.shape[0], np.shape(params[0])[1])
    return _loss_and_gradient(params, X, y, np.empty(shape), np.empty(shape))


class MLPRModel(TrainedModel):
    kind = "MLPR"

    def __init__(self, params, loss_history, stopped_early):
        W1, b1, W2, b2 = params
        super().__init__(W1.shape[0])
        W1 = np.array(W1)
        b1 = np.array(b1)
        W2 = np.array(W2)
        if W1.ndim != 2 or b1.shape != W1.shape[1:] or W2.shape != W1.shape[1:]:
            raise ValueError("W1, b1 and W2 disagree on the hidden width")
        require_finite(W1=W1, b1=b1, W2=W2, b2=b2)
        for a in (W1, b1, W2):
            a.flags.writeable = False
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, float(b2)
        self.loss_history = tuple(loss_history)
        self.stopped_early = bool(stopped_early)

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
        loss, grads = _loss_and_gradient(params, X, y, a1, d)
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch)
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

    return MLPRModel(params, history, stopped_early)


MLPR = ModelKind(
    "MLPR",
    defaults={"hidden": 100, "learning_rate": 1e-3, "max_epochs": 500,
              "tol": 1e-8, "patience": 10},
    rules={"hidden": AT_LEAST_ONE, "learning_rate": POSITIVE,
           "max_epochs": AT_LEAST_ONE, "tol": POSITIVE, "patience": AT_LEAST_ONE},
    fit=lambda X, y, hp, seed: fit_mlpr(X, y, seed=seed, **hp),
    schema=(("float", "b2"), ("int", "stopped_early"), ("array", "loss_history"),
            ("array", "b1"), ("array", "W2"), ("matrix", "W1")),
    load=lambda fields, n_features: MLPRModel(
        (fields["W1"], fields["b1"], fields["W2"], fields["b2"]),
        fields["loss_history"].tolist(), fields["stopped_early"]),
)
