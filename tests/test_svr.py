import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import pvfdi
from pvfdi.regressors import fit_svr, svr
from pvfdi.regressors.serialize import dumps
from tests.oracles import (_masked_select_pair, dual_iterate, kkt_violation, reference_smo,
                           reference_svr)
from tests.test_golden import GOLDEN, versions


def rbf(A, B, gamma):
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2)


def slsqp_dual(X, y, C, epsilon, gamma):
    """Reference dual solution via a general-purpose NLP solver."""
    n = X.shape[0]
    K = rbf(X, X, gamma)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    Q = (s[:, None] * s[None, :]) * np.tile(K, (2, 2))
    res = minimize(
        lambda z: 0.5 * z @ Q @ z + p @ z,
        np.zeros(2 * n),
        jac=lambda z: Q @ z + p,
        bounds=[(0.0, C)] * (2 * n),
        constraints=[{"type": "eq", "fun": lambda z: s @ z, "jac": lambda z: s}],
        method="SLSQP",
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    assert res.success, res.message
    return res.x, float(res.fun)


def oracle_predict(X_train, y, z, C, epsilon, gamma, queries):
    n = X_train.shape[0]
    beta = z[:n] - z[n:]
    K = rbf(X_train, X_train, gamma)
    f_no_bias = K @ beta
    margin = 1e-7 * C
    free_lo = (z[:n] > margin) & (z[:n] < C - margin)
    free_hi = (z[n:] > margin) & (z[n:] < C - margin)
    offsets = np.concatenate(
        [(y - epsilon - f_no_bias)[free_lo], (y + epsilon - f_no_bias)[free_hi]]
    )
    if offsets.size:
        bias = float(offsets.mean())
    else:
        lo = np.concatenate([(y - epsilon - f_no_bias)[z[:n] <= margin],
                             (y + epsilon - f_no_bias)[z[n:] >= C - margin]])
        hi = np.concatenate([(y - epsilon - f_no_bias)[z[:n] >= C - margin],
                             (y + epsilon - f_no_bias)[z[n:] <= margin]])
        bias = (float(lo.max()) + float(hi.min())) / 2.0
    return rbf(queries, X_train, gamma) @ beta + bias


def test_matches_slsqp_oracle(rng):
    for trial in range(6):
        n = int(rng.integers(4, 9))
        X = rng.normal(size=(n, 2))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1]
        C, epsilon, gamma = 2.0, 0.05, 0.7
        model = fit_svr(X, y, C=C, epsilon=epsilon, gamma=gamma, tol=1e-6)
        assert model.converged

        z, dual_min = slsqp_dual(X, y, C, epsilon, gamma)
        assert model.dual_objective == pytest.approx(-dual_min, abs=1e-5)

        queries = rng.normal(size=(10, 2))
        expected = oracle_predict(X, y, z, C, epsilon, gamma, queries)
        np.testing.assert_allclose(model.predict_batch(queries), expected, atol=1e-2)


def test_targets_inside_tube_solve_in_zero_iterations():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.5, 0.6, 0.55])
    model = fit_svr(X, y, C=1.0, epsilon=0.2)
    assert model.converged
    assert model.iterations == 0
    assert model.n_support == 0
    # midpoint of the feasible bias interval
    assert model.bias == pytest.approx(0.55, rel=1e-12)
    np.testing.assert_allclose(model.predict_batch(np.array([[9.0], [-3.0]])), 0.55)


def test_tight_tube_interpolates_line():
    X = np.linspace(0.0, 1.0, 5)
    y = X.copy()
    model = fit_svr(X, y, C=1000.0, epsilon=0.0)
    assert model.converged
    assert model.predict_batch(np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-2)


def test_converged_iterate_satisfies_kkt(norm_split):
    train, _ = norm_split
    X, y = train.features[:120], train.power[:120]
    model = fit_svr(X, y, C=1.0, epsilon=0.1, tol=1e-3)
    assert model.converged
    z = dual_iterate(X, y, C=1.0, epsilon=0.1, tol=1e-3)
    audited = kkt_violation(X, y, z, 1.0, 0.1, model.gamma)
    assert audited < 1e-3 + 1e-9
    assert model.kkt_violation < 1e-3


def test_model_holds_the_nonzero_coefficients_of_the_dual_iterate(norm_split):
    train, _ = norm_split
    X, y = train.features[:100], train.power[:100]
    model = fit_svr(X, y, C=0.5)
    z = dual_iterate(X, y, C=0.5)
    beta = z[:100] - z[100:]
    assert model.sv_coef.tobytes() == beta[beta != 0.0].tobytes()
    assert model.sv_X.tobytes() == X[beta != 0.0].tobytes()


def test_dual_objective_history_non_decreasing(norm_split):
    train, _ = norm_split
    X, y = train.features[:80], train.power[:80]
    model = fit_svr(X, y)
    # the objective after t SMO steps is that of a fit capped at t iterations
    history = np.array([fit_svr(X, y, max_iterations=t).dual_objective
                        for t in range(model.iterations + 1)])
    assert np.all(np.diff(history) >= -1e-9)
    assert history[-1] == pytest.approx(model.dual_objective, rel=1e-12)


def test_coefficients_respect_box(norm_split):
    train, _ = norm_split
    X, y = train.features[:100], train.power[:100]
    model = fit_svr(X, y, C=0.5)
    assert np.all(np.abs(model.sv_coef) <= 0.5 + 1e-12)
    assert np.all(model.sv_coef != 0.0)
    assert model.sv_X.shape == (model.n_support, X.shape[1])


def test_iteration_budget_marks_non_convergence():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_svr(X, y, epsilon=0.01, max_iterations=1)
    assert not model.converged
    assert model.iterations == 1
    assert np.isfinite(model.predict_batch(np.zeros(2)[np.newaxis])[0])


def test_refit_is_deterministic(norm_split):
    train, _ = norm_split
    X, y = train.features[:90], train.power[:90]
    a = fit_svr(X, y)
    b = fit_svr(X, y)
    np.testing.assert_array_equal(a.sv_coef, b.sv_coef)
    assert a.bias == b.bias
    assert a.iterations == b.iterations


def test_cache_size_never_changes_the_model():
    # the default cache holds all 480 rows; one of two rows evicts on almost every fetch
    raw = pvfdi.synth_generate(600, seed=42)
    train_raw, test_raw = pvfdi.split(raw, pvfdi.SplitConfig(0.8, 42))
    train, _ = pvfdi.normalize(train_raw, [test_raw])
    X, y = train.features, train.power
    full = fit_svr(X, y)
    tiny = fit_svr(X, y, cache_mb=1e-9)
    assert dumps(full) == dumps(tiny)
    assert dual_iterate(X, y).tobytes() == dual_iterate(X, y, cache_mb=1e-9).tobytes()


# sha256 over the dumps of every fit in svr_fit_problems(), recorded under
# tests/data/golden/versions.json's numpy and scipy
SVR_FIT_DIGEST = "b735c07204ac60cb2f8971c34248ac8ec3f07d0803d7287f818fbfeea9f57846"


def svr_fit_problems():
    """(X, y, hyperparameters) of seeded fits: grid-valued and repeated rows
    with rounded targets (ties in G), several C and epsilon, a kernel cache
    that evicts on almost every fetch, caps of 0 and 1 steps, and the
    480-row training set of the cache test."""
    rng = np.random.default_rng(27)
    problems = []
    for trial in range(24):
        X = rng.normal(size=(int(rng.integers(3, 40)), 3))
        if trial % 3 == 0:
            X = np.round(X)
        if trial % 4 == 1:
            X = np.concatenate((X, X))
        y = np.round(rng.normal(size=X.shape[0]), 1)
        hp = {"C": (0.5, 1.0, 10.0)[trial % 3], "epsilon": (0.0, 0.01, 0.1)[trial // 3 % 3]}
        if trial % 2:
            hp["cache_mb"] = 1e-9
        if trial in (4, 5):
            hp["max_iterations"] = trial - 4
        problems.append((X, y, hp))
    raw = pvfdi.synth_generate(600, seed=42)
    train_raw, test_raw = pvfdi.split(raw, pvfdi.SplitConfig(0.8, 42))
    train, _ = pvfdi.normalize(train_raw, [test_raw])
    for hp in ({}, {"epsilon": 0.01, "cache_mb": 1e-9}, {"C": 10.0, "max_iterations": 1}):
        problems.append((train.features, train.power, hp))
    return problems


def test_fit_bytes_match_the_recorded_digest():
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if {k: recorded[k] for k in ("numpy", "scipy")} != versions():
        pytest.skip(f"SVR fit digest recorded under {recorded}, running {versions()}")
    digest = hashlib.sha256()
    for X, y, hp in svr_fit_problems():
        digest.update(dumps(fit_svr(X, y, **hp)).encode())
    assert digest.hexdigest() == SVR_FIT_DIGEST


def tied_problem(seed, n, d, grid, duplicated, gridded):
    """(X, y) with ties in F: grid-valued X, duplicated rows, gridded y."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if grid:
        X = np.round(2.0 * X) / 2.0
    if duplicated:
        X = np.concatenate((X, X[::-1]))
    y = rng.normal(size=X.shape[0])
    if gridded:
        y = np.round(y, 1)
    return X, y


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(1, 3),
       grid=st.booleans(), duplicated=st.booleans(), gridded=st.booleans(),
       C=st.sampled_from([0.1, 1.0, 10.0]), epsilon=st.sampled_from([0.0, 0.01, 0.1]),
       max_iterations=st.sampled_from([0, 1, 3, 200_000]), cache_mb=st.sampled_from([1e-9, 128.0]))
@example(seed=0, n=12, d=2, grid=True, duplicated=True, gridded=True, C=10.0, epsilon=0.0,
         max_iterations=200_000, cache_mb=1e-9)
@settings(max_examples=60, deadline=None)
def test_gated_solver_matches_the_masked_reference(seed, n, d, grid, duplicated, gridded,
                                                   C, epsilon, max_iterations, cache_mb):
    X, y = tied_problem(seed, n, d, grid, duplicated, gridded)
    hp = dict(C=C, epsilon=epsilon, max_iterations=max_iterations, cache_mb=cache_mb)
    assert dumps(fit_svr(X, y, **hp)) == dumps(reference_svr(X, y, **hp))
    assert dual_iterate(X, y, **hp).tobytes() == reference_smo(X, y, **hp)[0].tobytes()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       scale=st.sampled_from([1.0, 1e-3, 1e-170]), tol=st.sampled_from([1e-3, 0.0]))
@example(seed=0, n=3, scale=1e-170, tol=0.0)
@settings(max_examples=100, deadline=None)
def test_pair_selection_matches_the_masked_rule_on_any_iterate(seed, n, scale, tol):
    # gridded gradients tie, and at 1e-170 every squared gradient
    # difference underflows to zero, so the zero-ratio fallback decides
    rng = np.random.default_rng(seed)
    C = 1.0
    z = rng.choice([0.0, 0.5, C], size=2 * n)
    F = np.round(rng.normal(size=2 * n), 1) * scale
    X = np.round(rng.normal(size=(n, 2)))
    s = np.concatenate((np.ones(n), -np.ones(n)))
    row = svr._row_cache(X, 0.5, 128.0)
    expected = _masked_select_pair(F, s, z <= 0.0, z >= C, lambda b: row(b)[0], n, tol)
    got = svr._select_pair(F.copy(), *svr._gates(z, C, n), row, n, tol)
    assert got[:2] == expected[:2]
    assert np.float64(got[2]).tobytes() == np.float64(expected[2]).tobytes()


def test_gates_follow_every_step(norm_split):
    # after each step the two refreshed entries leave the gates equal to
    # those rebuilt from the whole iterate
    train, _ = norm_split
    X, y = train.features[:60], train.power[:60]
    n, C = X.shape[0], 1.0
    s = np.concatenate((np.ones(n), -np.ones(n)))
    z, F = np.zeros(2 * n), s * np.concatenate((0.1 - y, 0.1 + y))
    row = svr._row_cache(X, 1.0 / X.shape[1], 128.0)
    up_gate, low_gate = svr._gates(z, C, n)
    for _ in range(40):
        i, j, _ = svr._select_pair(F, up_gate, low_gate, row, n, 1e-3)
        if i < 0:
            break
        svr._take_step(z, F, s, i, j, C, row, n)
        svr._set_gates(up_gate, low_gate, z, C, n, i)
        svr._set_gates(up_gate, low_gate, z, C, n, j)
        for got, want in zip((up_gate, low_gate), svr._gates(z, C, n)):
            assert got.tobytes() == want.tobytes()
    assert i >= 0  # the loop never converged early, so all 40 steps were checked


def test_default_gamma_is_reciprocal_dimension(rng):
    X = rng.normal(size=(12, 4))
    y = rng.normal(size=12)
    assert fit_svr(X, y).gamma == 0.25


def test_parameter_validation():
    X, y = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(ValueError):
        fit_svr(X, y, C=0.0)
    with pytest.raises(ValueError):
        fit_svr(X, y, epsilon=-0.1)
