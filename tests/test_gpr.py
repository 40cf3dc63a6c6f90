import numpy as np
import pytest
import scipy.linalg

from pvfdi.errors import NotPositiveDefinite
from pvfdi.regressors import fit_gpr
from pvfdi.regressors.gpr import rbf_kernel
from tests.oracles import gpr_chunked_mean


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
