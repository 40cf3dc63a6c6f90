import numpy as np
import pytest

from pvfdi.regressors import fit_lasso, fit_lr
from tests.oracles import lasso_lambda_max


def normal_equation_oracle(X, y):
    """Brute-force OLS with an explicit intercept column."""
    Z = np.column_stack([np.ones(X.shape[0]), X])
    theta = np.linalg.solve(Z.T @ Z, Z.T @ y)
    return theta[0], theta[1:]


def orthonormal_design(rng, n, d):
    """Zero-mean X with (1/n) X'X = I, so the lasso is soft-thresholding."""
    A = rng.normal(size=(n, d))
    Q, _ = np.linalg.qr(A - A.mean(axis=0))
    return Q * np.sqrt(n)


# --- ordinary least squares -----------------------------------------------------

def test_exact_line():
    model = fit_lr(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert model.coefficients[0] == pytest.approx(1.0, rel=1e-12)
    assert model.predict_batch(np.array([[3.0]]))[0] == pytest.approx(3.0, rel=1e-12)


def test_single_sample_degenerates_to_mean():
    model = fit_lr(np.array([[0.3, 0.7]]), np.array([2.5]))
    assert model.bias == 2.5
    assert np.allclose(model.coefficients, 0.0)


def test_matches_normal_equation_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(12, 51))
        d = int(rng.integers(1, 11))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = fit_lr(X, y)
        bias, coef = normal_equation_oracle(X, y)
        assert model.bias == pytest.approx(bias, rel=1e-8, abs=1e-8)
        np.testing.assert_allclose(model.coefficients, coef, rtol=1e-8, atol=1e-8)


def test_residuals_orthogonal_to_design(rng):
    X = rng.normal(size=(80, 6))
    y = rng.normal(size=80)
    model = fit_lr(X, y)
    residual = y - model.predict_batch(X)
    Z = np.column_stack([np.ones(80), X])
    assert np.abs(Z.T @ residual).max() < 1e-8


def test_rank_deficient_design_takes_minimum_norm():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(40, 3))
    X = np.column_stack([base, base[:, 0]])  # col 3 duplicates col 0
    y = rng.normal(size=40)
    model = fit_lr(X, y)
    # minimum-norm solution spreads the duplicated direction evenly
    assert model.coefficients[0] == pytest.approx(model.coefficients[3], rel=1e-9)
    residual = y - model.predict_batch(X)
    assert np.abs(X.T @ residual).max() < 1e-8


# --- lasso -------------------------------------------------------------------------

def test_zero_penalty_recovers_least_squares(rng):
    X = rng.normal(size=(60, 5))
    y = rng.normal(size=60)
    ols = fit_lr(X, y)
    lasso = fit_lasso(X, y, lam=0.0, tol=1e-12)
    np.testing.assert_allclose(lasso.coefficients, ols.coefficients, atol=1e-6)
    assert lasso.bias == pytest.approx(ols.bias, abs=1e-6)


def test_full_shrinkage_at_lambda_max(rng):
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    lam = lasso_lambda_max(X, y)
    model = fit_lasso(X, y, lam=lam)
    assert np.all(model.coefficients == 0.0)
    assert model.bias == pytest.approx(y.mean(), rel=1e-12)
    # just below the bound at least one coefficient wakes up
    assert np.any(fit_lasso(X, y, lam=lam * 0.99).coefficients != 0.0)


def test_orthonormal_design_matches_soft_threshold_oracle(rng):
    for lam in (0.0, 0.01, 0.05, 0.2):
        X = orthonormal_design(rng, 100, 6)
        y = rng.normal(size=100)
        yc = y - y.mean()
        theta_ols = X.T @ yc / 100
        oracle = np.sign(theta_ols) * np.maximum(np.abs(theta_ols) - lam, 0.0)
        model = fit_lasso(X, y, lam=lam)
        np.testing.assert_allclose(model.coefficients, oracle, atol=1e-6)


def test_objective_never_increases(rng):
    X = rng.normal(size=(40, 8))
    y = rng.normal(size=40)
    lam = 0.02

    def objective(model):
        r = y - X @ model.coefficients - model.bias
        return r @ r / (2 * len(y)) + lam * np.abs(model.coefficients).sum()

    # the objective after t sweeps is that of a fit capped at t sweeps
    final = fit_lasso(X, y, lam=lam).coefficients
    history = []
    for sweeps in range(1, 100):
        model = fit_lasso(X, y, lam=lam, max_sweeps=sweeps)
        history.append(objective(model))
        if np.array_equal(model.coefficients, final):
            break
    else:
        pytest.fail("99 sweeps did not reach the converged fit")
    assert len(history) > 1
    assert np.all(np.diff(history) <= 1e-12)


def test_constant_column_keeps_a_zero_coefficient(rng):
    X = rng.normal(size=(30, 3))
    X[:, 1] = 0.7
    y = rng.normal(size=30)
    assert fit_lasso(X, y).coefficients[1] == 0.0


def test_negative_penalty_rejected():
    with pytest.raises(ValueError):
        fit_lasso(np.zeros((4, 2)), np.zeros(4), lam=-0.1)


def test_kind_labels():
    X = np.arange(8.0).reshape(4, 2)
    y = np.arange(4.0)
    assert fit_lr(X, y).kind == "LR"
    assert fit_lasso(X, y).kind == "LASSO"
