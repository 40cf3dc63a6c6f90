import warnings

import numpy as np
import pytest

from pvfdi.errors import NonFiniteLoss
from pvfdi.regressors import base, fit_mlpr, mlp
from pvfdi.regressors.base import padded_width
from pvfdi.regressors.mlp import MLPRModel, _forward_loss, _gradient, init_params
from tests.oracles import WHOLE, loss_and_gradient, mlp_loss


def finite_difference_gradient(params, X, y, h=1e-5):
    """Central differences over every parameter entry."""
    grads = []
    for idx in range(4):
        p = [np.array(a, dtype=np.float64, ndmin=1) for a in params]
        g = np.zeros_like(p[idx], dtype=np.float64)
        flat = p[idx].reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + h
            up = mlp_loss(tuple(p), X, y)
            flat[k] = keep - h
            down = mlp_loss(tuple(p), X, y)
            flat[k] = keep
            gflat[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def test_backprop_matches_finite_differences():
    master = np.random.default_rng(99)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(7, 12))
        y = rng.normal(size=7)
        params = init_params(12, 5, seed=seed)
        # nudge params off initialization so no ReLU sits exactly at zero
        params = tuple(
            np.asarray(a, dtype=np.float64) + 0.01 * master.normal(size=np.shape(a))
            for a in params
        )
        params = (params[0], params[1], params[2], float(params[3]))
        loss, analytic = loss_and_gradient(params, X, y)
        assert loss == pytest.approx(mlp_loss(params, X, y), rel=1e-12)
        numeric = finite_difference_gradient(params, X, y)
        for a, f in zip(analytic, numeric):
            a = np.atleast_1d(np.asarray(a, dtype=np.float64))
            scale = np.maximum(np.abs(f), 1e-6)
            assert np.max(np.abs(a - f.reshape(a.shape)) / scale) < 1e-4


def test_zero_weights_output_is_b2():
    W1 = np.zeros((12, 5))
    b1 = np.zeros(5)
    W2 = np.zeros(5)
    X = np.random.default_rng(0).normal(size=(6, 12))
    model = MLPRModel(12, W1=W1, b1=b1, W2=W2, b2=1.75, loss_history=[], stopped_early=False)

    np.testing.assert_array_equal(model.predict_batch(X), 1.75)


def test_constant_targets_converge_and_stop_early(rng):
    X = rng.normal(size=(50, 12))
    y = np.full(50, 0.4)
    # tol loose enough to catch the Adam bounce at the loss floor
    model = fit_mlpr(X, y, hidden=8, learning_rate=1e-2, max_epochs=500, tol=1e-6)
    rmse = float(np.sqrt(np.mean((model.predict_batch(X) - y) ** 2)))
    assert rmse < 2e-2
    assert model.stopped_early
    assert model.epochs_run < 500


def test_one_small_step_reduces_loss(rng):
    X = rng.normal(size=(30, 12))
    y = rng.normal(size=30)
    model = fit_mlpr(X, y, hidden=6, learning_rate=1e-5, max_epochs=1, seed=4)
    assert model.epochs_run == 1
    # history holds the pre-step loss; the updated params must beat it
    assert model.loss_history[0] == pytest.approx(
        mlp_loss(init_params(12, 6, seed=4), X, y), rel=1e-12
    )
    assert mlp_loss(model.params, X, y) < model.loss_history[0]


def test_non_finite_loss_raises(rng):
    # inputs large enough to overflow the squared-residual sum
    X = rng.normal(size=(20, 12)) * 1e160
    y = rng.normal(size=20)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
        fit_mlpr(X, y, hidden=6, learning_rate=1e-3, max_epochs=200, seed=0)


def test_divergence_prints_no_numpy_warnings(rng):
    # the loss is checked before the backward pass, and the forward
    # pass's overflow is expected there
    X = rng.normal(size=(40, 12))
    y = rng.normal(size=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLoss):
            fit_mlpr(X, y, hidden=6, learning_rate=1e300, max_epochs=50, seed=0)


def test_seed_controls_initialization_and_fit(rng):
    X = rng.normal(size=(40, 12))
    y = rng.normal(size=40)
    a = fit_mlpr(X, y, hidden=6, max_epochs=30, seed=5)
    b = fit_mlpr(X, y, hidden=6, max_epochs=30, seed=5)
    c = fit_mlpr(X, y, hidden=6, max_epochs=30, seed=6)
    np.testing.assert_array_equal(a.W1, b.W1)
    np.testing.assert_array_equal(a.predict_batch(X), b.predict_batch(X))
    assert not np.array_equal(a.W1, c.W1)


def test_initialization_bounds_and_shapes():
    W1, b1, W2, b2 = init_params(12, 100, seed=0)
    assert W1.shape == (12, 100) and b1.shape == (100,) and W2.shape == (100,)
    assert b2 == 0.0
    assert np.all(b1 == 0.0)
    lim1 = np.sqrt(6.0 / 12)
    lim2 = np.sqrt(6.0 / 100)
    assert np.all(np.abs(W1) <= lim1) and np.all(np.abs(W2) <= lim2)


def test_learns_linear_map_better_than_mean(rng):
    X = rng.normal(size=(200, 12))
    w = rng.normal(size=12)
    y = X @ w
    model = fit_mlpr(X, y, hidden=32, learning_rate=3e-3, max_epochs=500, seed=1)
    rmse = float(np.sqrt(np.mean((model.predict_batch(X) - y) ** 2)))
    assert rmse < 0.5 * float(np.std(y))


# --- oracle: the unfused kernel the in-place one must match bit for bit ------

def padded_product(X, W1):
    """``X @ W1`` as the model defines it: built with zero columns appended to
    W1 up to a multiple of 8, then cut back to W1's width."""
    hidden = W1.shape[1]
    W1_padded = np.zeros((W1.shape[0], -(-hidden // 8) * 8))
    W1_padded[:, :hidden] = W1
    return (X @ W1_padded)[:, :hidden]


def in_padded_rows(M):
    """M's values in rows padded to a multiple of 8 columns, as the model's
    buffers hold them; BLAS sums a matrix-vector product in another order
    at some leading dimensions (a width of 1 to 3, or a strided vector)."""
    width = M.shape[1]
    rows = np.zeros((M.shape[0], -(-width // 8) * 8))
    rows[:, :width] = M
    return rows[:, :width]


def reference_backward(params, X, y):
    """Fresh pre-activations, np.outer and a boolean mask on every call.

    Returns the loss, the gradient and the hidden-layer delta ``d_z1``.
    """
    W1, b1, W2, b2 = params
    n = X.shape[0]
    z1 = padded_product(X, W1) + b1
    a1 = in_padded_rows(np.maximum(z1, 0.0))
    r = a1 @ W2 + b2 - y
    d_out = (2.0 / n) * r
    gW2 = a1.T @ d_out
    gb2 = float(d_out.sum())
    d_z1 = np.outer(d_out, W2)
    d_z1[z1 <= 0.0] = 0.0
    d_z1 = in_padded_rows(d_z1)
    gW1 = X.T @ d_z1
    gb1 = d_z1.sum(axis=0)
    return float(r @ r) / n, (gW1, gb1, gW2, gb2), d_z1


def reference_loss_and_gradient(params, X, y):
    return reference_backward(params, X, y)[:2]


def reference_fit(X, y, hidden, learning_rate=1e-3, max_epochs=500, tol=1e-8,
                  patience=10, seed=0):
    """fit_mlpr's Adam loop over the reference kernel: (params, history, stopped)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, np.newaxis]
    params = init_params(X.shape[1], hidden, seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
    v = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
    history, previous, streak = [], np.inf, 0
    for epoch in range(max_epochs):
        loss, grads = reference_loss_and_gradient(params, X, y)
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch)
        history.append(loss)
        if abs(previous - loss) < tol:
            streak += 1
            if streak >= patience:
                return params, history, True
        else:
            streak = 0
        previous = loss
        t = epoch + 1
        scale = learning_rate * np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        new = []
        for idx, (p, g) in enumerate(zip(params, grads)):
            m[idx] = beta1 * m[idx] + (1.0 - beta1) * g
            v[idx] = beta2 * v[idx] + (1.0 - beta2) * np.square(g)
            new.append(p - scale * m[idx] / (np.sqrt(v[idx]) + eps))
        params = (new[0], new[1], new[2], float(new[3]))
    return params, history, False


def as_bytes(values):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in values]


def assert_same_gradient(params, X, y):
    loss, grads = loss_and_gradient(params, X, y)
    ref_loss, ref_grads = reference_loss_and_gradient(params, X, y)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert as_bytes(grads) == as_bytes(ref_grads)
    assert np.float64(mlp_loss(params, X, y)).tobytes() == np.float64(ref_loss).tobytes()


def assert_same_fit(X, y, **kw):
    model = fit_mlpr(X, y, **kw)
    params, history, stopped = reference_fit(X, y, **kw)
    assert as_bytes(model.params) == as_bytes(params)
    assert np.array(model.loss_history).tobytes() == np.array(history).tobytes()
    assert model.stopped_early == stopped
    return model


def dead_unit_case():
    """Unit 0 is off on every row, W2[0] > 0 and every d_out < 0.

    So every masked entry 0.0 * W2[0] * d_out[i] is -0.0 until the
    kernel adds +0.0; the old kernel stored +0.0 there.
    """
    rng = np.random.default_rng(21)
    X = rng.normal(size=(9, 4))
    W1, b1, W2, b2 = init_params(4, 3, seed=2)
    b1 = b1.copy()
    b1[0] = -100.0
    W2 = np.abs(W2)
    return (W1, b1, W2, b2), X, np.full(9, 50.0)


@pytest.mark.parametrize("n,d,hidden", [(1, 12, 1), (1, 3, 5), (7, 12, 1),
                                        (40, 12, 6), (300, 5, 17)])
def test_gradient_matches_unfused_reference_bitwise(n, d, hidden):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        params = init_params(d, hidden, seed=seed)
        params = (params[0], params[1] + 0.3 * rng.normal(size=hidden), params[2], 0.1)
        assert_same_gradient(params, X, y)


@pytest.mark.parametrize("hidden", [1, 7, 100])
@pytest.mark.parametrize("n", [1, 2, 9, 513])
def test_predict_is_the_textbook_forward_pass_bitwise(n, hidden):
    rng = np.random.default_rng(n * 1000 + hidden)
    W1, b1, W2, _ = init_params(12, hidden, seed=hidden)
    b1 = 0.3 * rng.normal(size=hidden)
    model = MLPRModel(12, W1=W1, b1=b1, W2=W2, b2=0.1, loss_history=[], stopped_early=0)
    X = rng.normal(size=(n, 12))
    got = model.predict_batch(X).tobytes()
    assert got == (np.maximum(padded_product(X, W1) + b1, 0.0) @ W2 + 0.1).tobytes()
    if hidden > 1 and n > 1:
        # here the padded product has the unpadded one's bits too
        assert got == (np.maximum(X @ W1 + b1, 0.0) @ W2 + 0.1).tobytes()


def test_dead_unit_gradient_is_positive_zero_like_the_reference():
    params, X, y = dead_unit_case()
    assert_same_gradient(params, X, y)
    _, (gW1, gb1, _, _) = loss_and_gradient(params, X, y)
    assert gb1[0] == 0.0 and not np.signbit(gb1[0])
    assert not np.signbit(gW1[:, 0]).any()


def test_backward_buffer_holds_the_reference_delta():
    # the reductions over d start from +0.0 and hide a -0.0 entry, so
    # check the buffer itself against the reference d_z1
    rng = np.random.default_rng(8)
    random_case = (init_params(5, 7, seed=8), rng.normal(size=(30, 5)), rng.normal(size=30))
    for params, X, y in (dead_unit_case(), random_case):
        hidden = params[0].shape[1]
        a1 = np.empty((X.shape[0], padded_width(hidden)))
        d = np.empty_like(a1)
        r, _ = _forward_loss(params, X, y, a1, WHOLE, d)
        _gradient(X, a1, r, d, WHOLE, hidden)
        d_z1 = reference_backward(params, X, y)[2]
        assert (d_z1 == 0.0).any()
        assert d[:, :hidden].tobytes() == d_z1.tobytes()
        # the padding columns hold +0.0 in both buffers
        padding = np.concatenate((a1[:, hidden:], d[:, hidden:]))
        assert padding.tobytes() == np.zeros(padding.shape).tobytes()


def test_dead_unit_fit_matches_reference():
    _, X, y = dead_unit_case()
    # the fit draws its own weights; after the first step unit 0 is off
    # on every row while W2[0] > 0 and every d_out < 0
    assert_same_fit(X, y, hidden=3, learning_rate=0.5, max_epochs=60, seed=2)


@pytest.mark.parametrize("n,hidden", [(1, 1), (1, 4), (9, 1), (64, 10)])
def test_fit_matches_unfused_reference_bitwise(n, hidden):
    rng = np.random.default_rng(n * 100 + hidden)
    X = rng.normal(size=(n, 12))
    y = rng.normal(size=n)
    model = assert_same_fit(X, y, hidden=hidden, learning_rate=1e-2, max_epochs=80, seed=3)
    assert model.epochs_run == 80


def test_one_dimensional_input_matches_reference():
    rng = np.random.default_rng(5)
    x = rng.normal(size=50)
    y = np.sin(2.0 * x)
    assert_same_gradient(init_params(1, 6, seed=1), x[:, np.newaxis], y)
    model = assert_same_fit(x, y, hidden=6, learning_rate=1e-2, max_epochs=120, seed=1)
    assert model.training_feature_count == 1


def test_early_stop_matches_reference(rng):
    X = rng.normal(size=(50, 12))
    y = np.full(50, 0.4)
    model = assert_same_fit(X, y, hidden=8, learning_rate=1e-2, max_epochs=500, tol=1e-6)
    assert model.stopped_early and model.epochs_run < 500


def test_divergence_raises_at_the_reference_epoch(rng):
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    kw = dict(hidden=4, learning_rate=1e77, max_epochs=50, seed=1)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss) as got:
            fit_mlpr(X, y, **kw)
        with pytest.raises(NonFiniteLoss) as want:
            reference_fit(X, y, **kw)
    # epoch 0 is finite, so one Adam step ran on the fused gradient
    assert got.value.epoch == want.value.epoch == 1


def test_nan_pre_activation_gives_nan_loss():
    # the ReLU keeps a NaN pre-activation, so the loss is NaN and a fit
    # stops before the gradient is used
    X = np.random.default_rng(4).normal(size=(5, 2))
    params = (np.ones((2, 3)), np.array([0.0, np.nan, 0.0]), np.ones(3), 0.0)
    assert np.isnan(loss_and_gradient(params, X, np.zeros(5))[0])
    assert np.isnan(mlp_loss(params, X, np.zeros(5)))
    X[2, 1] = np.nan
    with pytest.raises(NonFiniteLoss) as got:
        fit_mlpr(X, np.zeros(5), hidden=3, max_epochs=5)
    assert got.value.epoch == 0


# --- the hidden layer in row chunks: no bit moves ----------------------------

def budget_for(rows, hidden):
    """A BLOCK_BYTES that gives blocks of ``rows`` rows at ``hidden`` units."""
    return rows * 8 * padded_width(hidden)


def chunked(monkeypatch, rows=None, hidden=None):
    """Record the chunks fits build their hidden layer in; with ``rows``,
    fits at ``hidden`` units cut blocks of that many rows where no chunk
    is left with one row, not blocks of BLOCK_BYTES."""
    seen = []

    def row_slices(n, width):
        seen.append(base.row_slices(n, width))
        return seen[-1]

    monkeypatch.setattr(mlp, "row_slices", row_slices)
    if rows is not None:
        monkeypatch.setattr(base, "BLOCK_BYTES", budget_for(rows, hidden))
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 64, 8000])
def test_row_blocks_are_contiguous_and_never_one_row(monkeypatch, n):
    for rows in (2, 3, 8, n):
        monkeypatch.setattr(base, "BLOCK_BYTES", budget_for(rows, 7))
        blocks = base.row_slices(n, 7)
        sizes = [len(range(n)[block]) for block in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # one-row products go through gemv, so fewer than four rows stay whole
        assert len(blocks) == max(1, min(-(-n // max(rows, 2)), n // 2))
        assert min(sizes) >= 2 or n == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 64, 8000])
def test_row_chunks_match_reference_bitwise(monkeypatch, n):
    # small fits in as many two-row chunks as they allow, the large one in
    # the fit's own 1,600-row chunks
    seen = chunked(monkeypatch, rows=None if n == 8000 else 2, hidden=7)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 12))
    y = rng.normal(size=n)
    kw = dict(hidden=100, max_epochs=15) if n == 8000 else dict(hidden=7, max_epochs=60)
    model = assert_same_fit(X, y, learning_rate=1e-2, seed=3, **kw)
    assert len(seen[0]) == (5 if n == 8000 else max(1, n // 2))
    assert model.epochs_run == kw["max_epochs"]


@pytest.mark.parametrize("n,features,hidden", [(600, 12, 1), (2000, 12, 257), (2000, 16, 100)])
def test_chunked_fit_matches_reference_where_unpadded_gemm_rows_move(monkeypatch, n, features,
                                                                     hidden):
    # on OpenBLAS 0.3.31 each of these products, built at its own width,
    # rounds some rows differently in row chunks; at the padded width
    # 512-row chunks keep the whole product's bits
    monkeypatch.setattr(base, "BLOCK_BYTES", budget_for(512, hidden))
    rng = np.random.default_rng(hidden)
    X = rng.normal(size=(n, features))
    y = rng.normal(size=n)
    assert_same_fit(X, y, hidden=hidden, learning_rate=1e-2, max_epochs=8, seed=1)


def test_chunked_divergence_raises_at_the_reference_epoch_without_warnings(monkeypatch):
    seen = chunked(monkeypatch, rows=10, hidden=6)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 12))
    y = rng.normal(size=40)
    kw = dict(hidden=6, learning_rate=1e300, max_epochs=50, seed=0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss) as want:
        reference_fit(X, y, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLoss) as got:
            fit_mlpr(X, y, **kw)
    assert got.value.epoch == want.value.epoch
    assert len(seen[0]) == 4
