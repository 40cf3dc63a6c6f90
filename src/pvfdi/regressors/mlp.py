"""Single-hidden-layer perceptron regressor trained by full-batch Adam.

Architecture is input -> hidden (ReLU) -> linear output, squared loss.
Each kernel acts on a plain (W1, b1, W2, b2) tuple and has one mode:
``_hidden`` builds the hidden activations in place in an (n, width)
buffer ``a1``, one row chunk after another, as ``X[c] @ W1``, ``+= b1``,
ReLU. Given a second such buffer ``d``, it leaves there the delta's
first two passes (the 0/1 mask, ``*= W2``), which ``_gradient`` finishes
(``*= d_out``, ``+= 0.0``). Prediction passes one whole chunk; a fit
allocates both buffers once.

Both buffers are ``base.padded_width(hidden)`` columns wide, and
``_hidden`` pads W1, b1 and W2 with zero columns to that width, so a row
of ``X[c] @ W1`` has the same bits however many rows share the product.
The bias, ReLU and delta passes run over whole padded rows, and the
padding columns stay +0.0 through them; everything else reads the first
``hidden`` columns. The textbook form (fresh ``z1 = X @ W1 + b1``, an
outer product and a ``z1 <= 0`` mask), held in rows padded the same way,
has the same bits:

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
- The output gemv, ``gW2``, ``gW1`` and ``d.sum(axis=0)`` read the same
  rows through the same leading dimension. That matters: at widths 1 to
  3, or for a strided vector, OpenBLAS sums a matrix-vector product in
  another order than it does over a contiguous (n, hidden) array.

A fit passes the chunks of ``base.row_slices(n, hidden)``, whose rows
of ``X[c] @ W1`` fit the L2-sized ``base.BLOCK_BYTES``, so the bias, the
ReLU and the delta's first two passes find them still in cache. Those
passes are elementwise, a chunk's rows of the padded product have the
whole product's bits, and no chunk has fewer than two rows (numpy sends
a one-row product to gemv), so chunks change no bit.

Every reduction runs whole: the output gemv, the loss, ``gW2 = a1.T @
d_out``, ``gW1 = X.T @ d``, ``d.sum(axis=0)``, ``d_out.sum()`` and Adam.
Splitting a reduction changes the order it sums in; splitting the hidden
units instead made ``gW2`` differ in every one of 40 random shapes and
``gW1`` in 3 to 5 of them.
"""

import numpy as np

from ..errors import NonFiniteLoss
from ..rng import stream
from .base import (AT_LEAST_ONE, FINITE_POSITIVE, POSITIVE, TrainedModel, padded_width,
                   require_finite, row_slices)

__all__ = ["MLPRModel", "fit_mlpr", "init_params"]


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


def _widened(values, width):
    """``values`` with zero columns appended up to ``width`` columns."""
    out = np.zeros(np.shape(values)[:-1] + (width,))
    out[..., : np.shape(values)[-1]] = values
    return out


def _hidden(params, X, a1, chunks=(slice(None),), d=None):
    """ReLU(X @ W1 + b1) in ``a1``, one row slice of ``chunks`` after another.

    W1, b1 and W2 get zero columns up to ``a1``'s width, so each pass runs
    over whole rows. Given ``d``, each chunk also leaves ``mask * W2`` on
    its rows there while they are in cache; ``_gradient`` finishes the delta.
    """
    W1, b1, W2 = (_widened(p, a1.shape[1]) for p in params[:3])
    for rows in chunks:
        block = a1[rows]
        np.matmul(X[rows], W1, out=block)
        block += b1
        np.maximum(block, 0.0, out=block)
        if d is not None:
            mask = d[rows]
            np.greater(block, 0.0, out=mask)
            mask *= W2


def _forward_loss(params, X, y, a1, chunks, d):
    """(residuals, loss), leaving the activations in ``a1`` and ``mask * W2`` in ``d``.

    A diverged net overflows here, and its loss then reads inf or NaN,
    which a fit raises on before any backward pass; the forward pass's
    floating-point warnings would only repeat that.
    """
    W2, b2 = params[2:]
    with np.errstate(over="ignore", invalid="ignore"):
        _hidden(params, X, a1, chunks, d)
        r = a1[:, : len(W2)] @ W2 + b2 - y
        loss = float(r @ r) / X.shape[0]
    return r, loss


def _gradient(X, a1, r, d, chunks, hidden):
    """Gradient from ``_forward_loss``'s ``a1``, ``d`` and residuals over the same ``chunks``."""
    d_out = (2.0 / X.shape[0]) * r
    gW2 = a1[:, :hidden].T @ d_out
    gb2 = float(d_out.sum())
    # d = mask * W2 * d_out; see the module docstring for why the bits match
    for rows in chunks:
        block = d[rows]
        block *= d_out[rows, np.newaxis]
        block += 0.0
    gW1 = X.T @ d[:, :hidden]
    gb1 = d[:, :hidden].sum(axis=0)
    return gW1, gb1, gW2, gb2


class MLPRModel(TrainedModel):
    kind = "MLPR"
    schema = (("float", "b2"), ("int", "stopped_early"), ("array", "loss_history"),
              ("array", "b1"), ("array", "W2"), ("matrix", "W1"))
    rules = {"hidden": AT_LEAST_ONE, "learning_rate": FINITE_POSITIVE,
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
        a1 = np.empty((X.shape[0], padded_width(self.W2.size)))
        _hidden(self.params, X, a1)
        return a1[:, : self.W2.size] @ self.W2 + self.b2


@MLPRModel.fitting
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
    params = init_params(X.shape[1], hidden, seed)

    a1 = np.empty((X.shape[0], padded_width(hidden)))
    d = np.empty_like(a1)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
    v = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]

    history = []
    previous = np.inf
    streak = 0
    stopped_early = False
    chunks = row_slices(len(X), hidden)
    for epoch in range(max_epochs):
        r, loss = _forward_loss(params, X, y, a1, chunks, d)
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch)
        grads = _gradient(X, a1, r, d, chunks, hidden)
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
