"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines. Criterion 5 needs a real GEFCom2014 solar CSV in the
documented schema; point PVFDI_GEFCOM_CSV at it to enable that test.
"""

import math
import os
import time

import numpy as np
import pytest

import pvfdi
from pvfdi.experiment import (
    ExperimentConfig,
    compute_sensitivity,
    emit_report,
    run_noise_sweep,
    sensitivity_label,
)
from pvfdi.metrics import EvaluationSeries, mae, mse, rmse
from pvfdi.noise import NoiseConfig, inject
from pvfdi.regressors import (
    ModelSpec,
    fit,
    fit_dt,
    fit_gbrt,
    fit_gpr,
    fit_knn,
    fit_lasso,
    fit_lr,
    fit_mlpr,
    fit_svr,
)
from pvfdi.regressors.mlp import init_params
from tests.conftest import leaf_of
from tests.oracles import dual_iterate, kkt_violation, loss_and_gradient, mlp_loss
from tests.test_gpr import dense_posterior_mean
from tests.test_knn import exhaustive_predict
from tests.test_linear import normal_equation_oracle, orthonormal_design
from tests.test_svr import oracle_predict, slsqp_dual
from tests.test_tree import best_root_split_sse, training_sse


def _verdict(number, text, started):
    print(f"criterion {number}: PASS  {text}  ({time.perf_counter() - started:.1f}s)")


# --- criterion 1 ------------------------------------------------------------------

def test_criterion_1_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(20_240_001)
    for _ in range(1000):
        n = int(rng.integers(1, 5001))
        actual = rng.normal(size=n)
        predicted = rng.normal(size=n)
        s = EvaluationSeries(actual=actual, predicted=predicted)
        diffs = [a - p for a, p in zip(actual, predicted)]
        oracle_mse = sum(d * d for d in diffs) / n
        oracle_mae = sum(abs(d) for d in diffs) / n
        assert mse(s) == pytest.approx(oracle_mse, rel=1e-12)
        assert mae(s) == pytest.approx(oracle_mae, rel=1e-12)
        assert rmse(s) == pytest.approx(math.sqrt(oracle_mse), rel=1e-12)
        assert rmse(s) ** 2 == pytest.approx(mse(s), rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict(1, "rmse/mse/mae match direct summation on 1000 series", started)


# --- criterion 2 ------------------------------------------------------------------

# Published benchmark RMSE grid (clean, 10%, 50%, 100% injection) and the
# percent changes reported alongside it, both rounded as printed.
REFERENCE_RMSE_GRID = {
    "LR": (0.1261, 0.1261, 0.1261, 0.1261),
    "GPR": (0.1034, 0.1035, 0.1034, 0.1036),
    "KNN": (0.1035, 0.1036, 0.1031, 0.1027),
    "DT": (0.1351, 0.1350, 0.1354, 0.1364),
    "GBRT": (0.1044, 0.1044, 0.1046, 0.1047),
    "SVR": (0.0923, 0.0922, 0.0922, 0.0924),
    "MLPR": (0.0959, 0.0959, 0.0958, 0.0959),
}
REPORTED_FULL_INJECTION_CHANGE = {
    "KNN": -0.77,
    "DT": 0.9,
    "GBRT": 0.29,
    "SVR": 0.12,
}


def test_criterion_2_sensitivity_formula_reproduces_reference():
    started = time.perf_counter()
    fractions = (0.0, 0.1, 0.5, 1.0)
    table = {
        name: dict(zip(fractions, row))
        for name, row in REFERENCE_RMSE_GRID.items()
    }
    sensitivity = compute_sensitivity(table, {})
    full = sensitivity_label(1.0)

    for name, reported in REPORTED_FULL_INJECTION_CHANGE.items():
        computed = sensitivity[name][full]
        assert computed == pytest.approx(reported, abs=0.07), name

    # constant row stays exactly at zero change
    assert all(v == 0.0 for v in sensitivity["LR"].values())

    # known inconsistency in the published grid: the GPR full-injection
    # cell prints +0.02 but its own RMSE row yields about +0.19
    gpr_computed = sensitivity["GPR"][full]
    assert gpr_computed == pytest.approx(0.19342359767, abs=1e-9)
    assert abs(gpr_computed - 0.02) > 0.07
    _verdict(2, "reference sensitivity cells reproduced; GPR mismatch confirmed", started)


# --- criterion 3 ------------------------------------------------------------------

def test_criterion_3_model_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(20_240_003)

    # OLS vs normal equations, 100 random instances
    for _ in range(100):
        n, d = int(rng.integers(12, 51)), int(rng.integers(1, 11))
        X, y = rng.normal(size=(n, d)), rng.normal(size=n)
        model = fit_lr(X, y)
        bias, coef = normal_equation_oracle(X, y)
        assert model.bias == pytest.approx(bias, rel=1e-8, abs=1e-8)
        np.testing.assert_allclose(model.coefficients, coef, rtol=1e-8, atol=1e-8)

    # GPR vs dense solve
    X, y = rng.normal(size=(200, 4)), rng.normal(size=200)
    model = fit_gpr(X, y, length_scale=1.2, noise_variance=0.05)
    queries = rng.normal(size=(20, 4))
    np.testing.assert_allclose(
        model.predict_batch(queries),
        dense_posterior_mean(X, y, queries, 1.2, 0.05),
        rtol=1e-8, atol=1e-10,
    )

    # Lasso vs closed-form soft threshold on an orthonormal design
    for lam in (0.01, 0.05, 0.2):
        X = orthonormal_design(rng, 100, 6)
        y = rng.normal(size=100)
        yc = y - y.mean()
        theta = X.T @ yc / 100
        oracle = np.sign(theta) * np.maximum(np.abs(theta) - lam, 0.0)
        np.testing.assert_allclose(fit_lasso(X, y, lam=lam).coefficients, oracle, atol=1e-6)

    # KNN vs exhaustive scan
    X, y = rng.normal(size=(30, 3)), rng.normal(size=30)
    for k in (1, 3, 30):
        model = fit_knn(X, y, k=k)
        queries = rng.normal(size=(10, 3))
        expected = [exhaustive_predict(X, y, q, k) for q in queries]
        np.testing.assert_allclose(model.predict_batch(queries), expected, rtol=1e-10)

    # DT root split vs exhaustive SSE search
    for _ in range(30):
        n = int(rng.integers(4, 17))
        X, y = rng.normal(size=(n, 2)), rng.normal(size=n)
        model = fit_dt(X, y, max_depth=1, min_samples_leaf=1)
        assert training_sse(model, X, y) == pytest.approx(best_root_split_sse(X, y), abs=1e-9)

    # SVR vs dense dual oracle on tiny instances
    for _ in range(4):
        n = int(rng.integers(4, 9))
        X = rng.normal(size=(n, 2))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1]
        C, epsilon, gamma = 2.0, 0.05, 0.7
        model = fit_svr(X, y, C=C, epsilon=epsilon, gamma=gamma, tol=1e-6)
        z, _ = slsqp_dual(X, y, C, epsilon, gamma)
        queries = rng.normal(size=(8, 2))
        np.testing.assert_allclose(
            model.predict_batch(queries),
            oracle_predict(X, y, z, C, epsilon, gamma, queries),
            atol=1e-2,
        )

    # GBRT leaf weights vs the -G/(H + lambda) formula
    X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
    lam = 1.3
    booster = fit_gbrt(X, y, rounds=3, max_depth=2, learning_rate=0.2, reg_lambda=lam)
    yhat = np.full(40, booster.base_score)
    from pvfdi.regressors.tree import route
    for arrays in booster.trees:
        grad = yhat - y
        members = {}
        for i, row in enumerate(X):
            members.setdefault(leaf_of(arrays, row), []).append(i)
        for node, rows in members.items():
            expected = -grad[rows].sum() / (len(rows) + lam)
            assert arrays[4][node] == pytest.approx(expected, rel=1e-10, abs=1e-12)
        yhat = yhat + booster.learning_rate * route(arrays, X)

    # MLPR analytic gradients vs central differences, 20 seeded nets
    h = 1e-5
    for seed in range(20):
        net_rng = np.random.default_rng(seed)
        X, y = net_rng.normal(size=(7, 12)), net_rng.normal(size=7)
        params = init_params(12, 5, seed=seed)
        params = tuple(
            np.asarray(a, dtype=np.float64) + 0.01 * net_rng.normal(size=np.shape(a))
            for a in params
        )
        params = (params[0], params[1], params[2], float(params[3]))
        _, analytic = loss_and_gradient(params, X, y)
        worst = 0.0
        for idx in range(4):
            p = [np.array(a, dtype=np.float64, ndmin=1) for a in params]
            flat = p[idx].reshape(-1)
            a_flat = np.atleast_1d(np.asarray(analytic[idx], dtype=np.float64)).reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = mlp_loss(tuple(p), X, y)
                flat[k] = keep - h
                down = mlp_loss(tuple(p), X, y)
                flat[k] = keep
                fd = (up - down) / (2.0 * h)
                worst = max(worst, abs(a_flat[k] - fd) / max(abs(fd), 1e-6))
        assert worst < 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0 * 8
    _verdict(3, "eight model oracles agree at stated tolerances", started)


# --- criterion 4 ------------------------------------------------------------------

def test_criterion_4_property_suite(tmp_path):
    started = time.perf_counter()

    # determinism: synthetic bytes, split, and seeded fits repeat exactly
    for name in ("a.csv", "b.csv"):
        pvfdi.save_csv(pvfdi.synth_generate(60, seed=3), tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ds = pvfdi.synth_generate(300, seed=3)
    split_a = pvfdi.split(ds, pvfdi.SplitConfig(0.8, 5))
    split_b = pvfdi.split(ds, pvfdi.SplitConfig(0.8, 5))
    np.testing.assert_array_equal(split_a[0].features, split_b[0].features)
    train, (test,) = pvfdi.normalize(split_a[0], [split_a[1]])
    for kind in ("GPR", "MLPR"):
        spec = ModelSpec(kind, {"max_points": 100} if kind == "GPR"
                         else {"hidden": 8, "max_epochs": 30}, seed=4)
        np.testing.assert_array_equal(
            fit(spec, train).predict_batch(test.features),
            fit(spec, train).predict_batch(test.features),
        )

    # split partition laws
    assert len(split_a[0]) == math.floor(0.8 * 300)
    merged = sorted(map(tuple, np.vstack([split_a[0].features, split_a[1].features])))
    assert merged == sorted(map(tuple, ds.features))

    # metric inequalities
    rng = np.random.default_rng(8)
    s = EvaluationSeries(actual=rng.normal(size=500), predicted=rng.normal(size=500))
    assert mae(s) <= rmse(s)
    assert rmse(s) ** 2 == pytest.approx(mse(s), rel=1e-12)

    # monotone boosting loss
    booster = fit_gbrt(train.features, train.power, rounds=25)
    assert np.all(np.diff(booster.train_loss_history) <= 1e-12)

    # KKT tolerance on a converged SVR fit, audited from scratch
    svr = fit_svr(train.features, train.power, tol=1e-3)
    assert svr.converged
    audited = kkt_violation(train.features, train.power,
                            dual_iterate(train.features, train.power, tol=1e-3),
                            1.0, 0.1, svr.gamma)
    assert audited < 1e-3 + 1e-9

    # noise row-count exactness (round half up)
    for n, fraction, expected in ((200, 0.1, 20), (5, 0.5, 3), (11, 1.0, 11)):
        subset = ds.take(range(n))
        _, affected = inject(subset, NoiseConfig(fraction, seed=1))
        assert len(affected) == expected

    # noise_table fraction-0 bit-equality with the clean benchmark
    cfg = ExperimentConfig(synth_n=200, seed=6,
                           models=(ModelSpec("LR", seed=6), ModelSpec("DT", seed=6)))
    report = run_noise_sweep(cfg)
    for name in report.model_order:
        assert report.noise_table[name][0.0] == report.clean_table[name].rmse

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _verdict(4, "stated invariants hold across modules", started)


# --- criterion 5 ------------------------------------------------------------------

@pytest.mark.skipif(
    not os.environ.get("PVFDI_GEFCOM_CSV"),
    reason="set PVFDI_GEFCOM_CSV to a GEFCom2014 solar CSV to run this criterion",
)
def test_criterion_5_dataset_reproduction():
    started = time.perf_counter()
    cfg = ExperimentConfig(data_path=os.environ["PVFDI_GEFCOM_CSV"], seed=0)
    report = run_noise_sweep(cfg)
    elapsed = time.perf_counter() - started
    assert elapsed < 15 * 60

    assert not report.errors
    clean = {name: report.clean_table[name].rmse for name in report.model_order}
    for name, value in clean.items():
        assert 0.05 <= value <= 0.30, f"{name} clean RMSE {value} outside range"

    ranked = sorted(clean, key=clean.get)
    assert "SVR" in ranked[:3]
    assert "MLPR" in ranked[:3]

    full = sensitivity_label(1.0)
    dt_change = report.sensitivity_table["DT"][full]
    gbrt_change = report.sensitivity_table["GBRT"][full]
    mlpr_change = abs(report.sensitivity_table["MLPR"][full])
    assert dt_change > gbrt_change > mlpr_change
    _verdict(5, "dataset sweep lands in published ranges", started)


# --- criterion 6 ------------------------------------------------------------------

def test_criterion_6_synthetic_end_to_end(tmp_path):
    started = time.perf_counter()
    cfg = ExperimentConfig(synth_n=10_000, seed=42)
    report = run_noise_sweep(cfg)
    assert not report.errors

    # mean predictor baseline on the identical split
    raw = pvfdi.synth_generate(10_000, 42)
    train_raw, test_raw = pvfdi.split(raw, pvfdi.SplitConfig(0.8, 42))
    train, (test,) = pvfdi.normalize(train_raw, [test_raw])
    baseline = rmse(EvaluationSeries(
        actual=test.power,
        predicted=np.full(len(test), train.power.mean()),
    ))
    for name in report.model_order:
        model_rmse = report.clean_table[name].rmse
        assert model_rmse <= 0.8 * baseline, (
            f"{name} rmse {model_rmse:.4f} under 20% better than baseline {baseline:.4f}"
        )

    assert len(report.model_order) == 8
    for name in report.model_order:
        assert sorted(report.noise_table[name]) == [0.0, 0.1, 0.5, 1.0]
        assert report.noise_table[name][0.0] == report.clean_table[name].rmse

    first, second = tmp_path / "a", tmp_path / "b"
    emit_report(report, first)
    emit_report(run_noise_sweep(cfg), second)
    tree = lambda root: {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    assert tree(first) == tree(second)

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _verdict(6, "synthetic sweep beats baseline, grid exact, rerun byte-identical", started)
