import hashlib
import json
import subprocess
import sys
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pvfdi
from pvfdi.errors import NotPositiveDefinite
from pvfdi.regressors import base, fit_gpr
from pvfdi.regressors.gpr import rbf_kernel
from pvfdi.regressors.serialize import dumps
from tests.oracles import gpr_chunked_mean
from tests.test_golden import GOLDEN, ONE_THREAD, ROOT, child_env, versions
from tests.test_knn import BLOCKS, budget_for, peak_bytes


def dense_posterior_mean(X_train, y_train, X_query, length_scale, noise_variance):
    """Textbook posterior mean via a full solve, no Cholesky shortcuts."""
    K = rbf_kernel(X_train, X_train, length_scale)
    K[np.diag_indices_from(K)] += noise_variance
    alpha = np.linalg.solve(K, y_train)
    return rbf_kernel(X_query, X_train, length_scale) @ alpha


def test_kernel_basics(rng):
    A = rng.normal(size=(6, 3))
    K = rbf_kernel(A, A, 1.5)
    np.testing.assert_allclose(np.diag(K), 1.0, rtol=1e-12)
    np.testing.assert_allclose(K, K.T, rtol=1e-12)
    assert np.all(K > 0.0) and np.all(K <= 1.0)


def test_single_point_shrinks_by_noise():
    model = fit_gpr(np.array([[0.0]]), np.array([2.0]), noise_variance=0.5)
    # k(x,x)=1 so the posterior mean at the training input is y/(1+sigma^2)
    assert model.predict_batch(np.array([[0.0]]))[0] == pytest.approx(2.0 / 1.5, rel=1e-12)


def test_far_query_reverts_to_zero(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    model = fit_gpr(X, y, length_scale=1.0)
    far = np.full((1, 2), 50.0)
    assert abs(model.predict_batch(far)[0]) < 1e-6


def test_matches_dense_solve_oracle(rng):
    for _ in range(5):
        n = int(rng.integers(20, 201))
        X = rng.normal(size=(n, 4))
        y = rng.normal(size=n)
        model = fit_gpr(X, y, length_scale=1.3, noise_variance=0.05)
        queries = rng.normal(size=(15, 4))
        oracle = dense_posterior_mean(X, y, queries, 1.3, 0.05)
        np.testing.assert_allclose(model.predict_batch(queries), oracle, rtol=1e-8, atol=1e-10)


def test_tiny_noise_interpolates(rng):
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    model = fit_gpr(X, y, noise_variance=1e-10)
    np.testing.assert_allclose(model.predict_batch(X), y, atol=1e-4)


def test_subset_cap_keeps_first_permuted_points(rng):
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    model = fit_gpr(X, y, max_points=20, seed=3)
    assert model.subsampled
    assert model.X_train.shape == (20, 2)
    again = fit_gpr(X, y, max_points=20, seed=3)
    np.testing.assert_array_equal(model.X_train, again.X_train)
    other = fit_gpr(X, y, max_points=20, seed=4)
    assert not np.array_equal(model.X_train, other.X_train)


def test_no_subsampling_below_cap(rng):
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    model = fit_gpr(X, y, max_points=2000)
    assert not model.subsampled
    np.testing.assert_array_equal(model.X_train, X)


def test_duplicate_rows_with_zero_noise_use_jitter():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    y = np.array([1.0, 1.0, 2.0])
    model = fit_gpr(X, y, noise_variance=0.0)
    assert model.jitter > 0.0
    assert np.isfinite(model.predict_batch(np.array([[1.0, 2.0]]))[0])


def test_factorization_failure_raises(monkeypatch, rng):
    def always_fails(*args, **kwargs):
        raise scipy.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr("pvfdi.regressors.gpr.cho_factor", always_fails)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    with pytest.raises(NotPositiveDefinite):
        fit_gpr(X, y)


# 511, 512 and 513 end the 512-row chunks on either side of the boundary;
# 1025 leaves a one-row chunk
@pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025, 2000])
def test_predict_batch_is_the_chunked_posterior_mean_bitwise(rng, n):
    X = rng.uniform(0.0, 1.0, size=(400, 12))
    model = fit_gpr(X, np.sin(X.sum(axis=1)), length_scale=0.8)
    Q = rng.uniform(-0.2, 1.2, size=(n, 12))
    assert model.predict_batch(Q).tobytes() == gpr_chunked_mean(model, Q).tobytes()


@given(n=st.integers(2, 600), seed=st.integers(0, 2**32 - 1))
@example(n=255, seed=0)
@example(n=300, seed=0)
@settings(max_examples=15, deadline=None)
def test_every_block_size_fits_and_predicts_the_unblocked_bytes(n, seed):
    rng = np.random.default_rng(seed)
    X_train = rng.normal(size=(n, 12))
    y = np.sin(X_train.sum(axis=1))
    X = rng.normal(size=(700, 12))
    rows = np.sort(rng.choice(700, 300, replace=False))
    with patch.object(base, "BLOCK_BYTES", 1 << 40):
        model = fit_gpr(X_train, y, length_scale=2.0)
        fitted = dumps(model)
        batch, some = model.predict_batch(X), model.predict_rows(X, rows)
    # unblocked, prediction builds each 512-row chunk's kernel whole
    assert batch.tobytes() == gpr_chunked_mean(model, X).tobytes()
    for blocked in BLOCKS:
        with patch.object(base, "BLOCK_BYTES", budget_for(blocked, n)):
            assert base.block_rows(n) == blocked
            assert dumps(fit_gpr(X_train, y, length_scale=2.0)) == fitted, blocked
            assert model.predict_batch(X).tobytes() == batch.tobytes(), blocked
            assert model.predict_rows(X, rows).tobytes() == some.tobytes(), blocked


def test_prediction_holds_one_kernel_block_beside_its_product_chunk(rng):
    # the 512-row chunk of the product with alpha is 8 MB at 2,000 training
    # rows; the kernel rows are built in one L2-sized block beside it
    X_train = rng.normal(size=(2000, 12))
    model = fit_gpr(X_train, np.sin(X_train.sum(axis=1)))
    X = rng.normal(size=(2000, 12))
    peak, out = peak_bytes(model.predict_rows, X, np.arange(0, 2000, 3))
    chunk = 512 * 2000 * 8
    assert peak < base.BLOCK_BYTES + out.nbytes + chunk + 64 * (2000 + 2000)


# sha256 over the dumps of every fit in gpr_fit_problems() (the message of
# each refused one), recorded under tests/data/golden/versions.json's numpy
# and scipy
GPR_FIT_DIGEST = "c0201875535f107b9dc34a10f2e938176e8e6e5746631b7f6d01724345f4bf0c"


def gpr_fit_problems():
    """(X, y, hyperparameters) of seeded fits: training-row counts on both
    sides of a multiple of 8 and of several kernel row blocks, duplicated
    rows with no noise, points crowded far from the origin that climb the
    jitter ladder rung by rung (the last past its top), a subsampled fit
    and the 480-row training set of a 600-point synthetic split."""
    rng = np.random.default_rng(29)
    problems = []
    for n in (1, 2, 7, 255, 257, 300, 513, 600, 1100):
        X = rng.normal(size=(n, 3))
        hp = {"length_scale": float(rng.uniform(0.5, 2.0)),
              "noise_variance": float(rng.uniform(0.0, 0.1))}
        problems.append((X, np.sin(X.sum(axis=1)), hp))
    X = np.round(rng.normal(size=(150, 3)))
    problems.append((np.concatenate((X, X)), rng.normal(size=300), {"noise_variance": 0.0}))
    # rungs 1e-9, 1e-8, 1e-7, 1e-6 and then none
    for n, offset, length_scale in ((40, 1e3, 1.0), (200, 1e3, 0.3), (40, 1e4, 1.0),
                                    (200, 1e4, 1.0), (200, 1e4, 0.3)):
        X = offset + rng.uniform(size=(n, 2))
        problems.append((X, rng.normal(size=n),
                         {"noise_variance": 0.0, "length_scale": length_scale}))
    X = rng.normal(size=(700, 4))
    problems.append((X, X[:, 0], {"max_points": 520, "seed": 5}))
    raw = pvfdi.synth_generate(600, seed=42)
    train_raw, test_raw = pvfdi.split(raw, pvfdi.SplitConfig(0.8, 42))
    train, _ = pvfdi.normalize(train_raw, [test_raw])
    for hp in ({}, {"length_scale": 0.3, "noise_variance": 0.0}):
        problems.append((train.features, train.power, hp))
    return problems


def gpr_fit_digest() -> str:
    digest = hashlib.sha256()
    for X, y, hp in gpr_fit_problems():
        try:
            digest.update(dumps(fit_gpr(X, y, **hp)).encode())
        except NotPositiveDefinite as exc:
            digest.update(str(exc).encode())
    return digest.hexdigest()


def test_fit_bytes_match_the_recorded_digest():
    # in a fresh process with one BLAS thread: this one imported numpy
    # before pvfdi, and the factorization's bits depend on the thread count
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if {k: recorded[k] for k in ("numpy", "scipy")} != versions():
        pytest.skip(f"GPR fit digest recorded under {recorded}, running {versions()}")
    run = f"import sys; sys.path.insert(0, {str(ROOT)!r}); " \
          "from tests.test_gpr import gpr_fit_digest; print(gpr_fit_digest())"
    child = subprocess.run([sys.executable, "-c", run], env=child_env(**ONE_THREAD),
                           capture_output=True, text=True, check=True, timeout=300)
    assert child.stdout.strip() == GPR_FIT_DIGEST
