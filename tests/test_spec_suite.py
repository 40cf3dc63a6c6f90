import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvfdi.errors import DimensionMismatch, InvalidSpec
from pvfdi.regressors import (
    DEFAULT_KINDS,
    KINDS,
    GBRTModel,
    KNNModel,
    ModelSpec,
    TrainedModel,
    TreeModel,
    default_hyperparameters,
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
from pvfdi.regressors.base import padded_width, row_products
from pvfdi.regressors.mlp import _row_blocks
from pvfdi.regressors.registry import REGISTRY

ROWWISE_KINDS = tuple(cls.kind for cls in TrainedModel.__subclasses__() if cls.rowwise)


def test_suite_covers_eight_kinds():
    assert len(DEFAULT_KINDS) == 8
    assert set(DEFAULT_KINDS) == set(KINDS)
    assert DEFAULT_KINDS[0] == "LR" and DEFAULT_KINDS[-1] == "LASSO"


def test_every_range_rule_names_a_hyperparameter():
    # a renamed fit parameter would otherwise silently lose its rule
    for kind, entry in REGISTRY.items():
        assert entry.kind == kind
        assert set(entry.rules) == set(entry.defaults()), kind


def test_defaults_are_copies():
    a = default_hyperparameters("KNN")
    a["k"] = 99
    assert default_hyperparameters("KNN")["k"] == 2


def test_unknown_kind_rejected():
    with pytest.raises(InvalidSpec):
        ModelSpec("RIDGE")
    with pytest.raises(InvalidSpec):
        default_hyperparameters("RIDGE")


def test_unknown_hyperparameter_rejected():
    with pytest.raises(InvalidSpec):
        ModelSpec("KNN", {"neighbours": 3})


@pytest.mark.parametrize("seed", [2.5, True, float("nan"), "1"])
def test_spec_seed_must_be_an_integer(seed):
    # the streams apply int(seed), so 2.5 would fit as seed 2 and be recorded as 2.5
    with pytest.raises(InvalidSpec, match="seed must be an integer"):
        ModelSpec("GPR", seed=seed)
    assert ModelSpec("GPR", seed=np.int64(2)).seed == 2


def test_out_of_range_values_rejected():
    with pytest.raises(InvalidSpec):
        ModelSpec("KNN", {"k": 0})
    with pytest.raises(InvalidSpec):
        ModelSpec("SVR", {"C": -1.0})
    with pytest.raises(InvalidSpec):
        ModelSpec("GBRT", {"rounds": 0})
    with pytest.raises(InvalidSpec):
        ModelSpec("LASSO", {"lam": -0.5})
    with pytest.raises(InvalidSpec):
        ModelSpec("MLPR", {"hidden": 0})


ALL_RULES = [(kind, name) for kind, entry in REGISTRY.items() for name in entry.rules]


@pytest.mark.parametrize("kind,name", ALL_RULES)
def test_fit_routine_checks_every_rule(kind, name):
    # a direct call refuses what ModelSpec refuses, before any fitting
    ok, _ = REGISTRY[kind].rules[name]
    refused = [v for v in (-1, 0, 2.5) if not ok(v)]
    assert refused
    X = np.random.default_rng(0).normal(size=(30, 3))
    for value in refused:
        with pytest.raises(ValueError, match=name):
            REGISTRY[kind].fit(X, X[:, 0], **{name: value})


@pytest.mark.parametrize("kind,name", ALL_RULES)
def test_value_a_rule_cannot_compare_is_out_of_range(kind, name):
    # a config's `none` reaches the rule as None; a numeric rule raised TypeError on it
    for value in (None, "x"):
        try:
            ModelSpec(kind, {name: value})
        except InvalidSpec as exc:
            assert name in str(exc)
    with pytest.raises(InvalidSpec, match=name):
        ModelSpec(kind, {name: "x"})


COUNT_HYPERPARAMETERS = [
    ("KNN", "k"), ("LASSO", "max_sweeps"), ("GPR", "max_points"),
    ("DT", "min_samples_leaf"), ("DT", "max_depth"),
    ("GBRT", "min_samples_leaf"), ("GBRT", "rounds"), ("GBRT", "max_depth"),
    ("SVR", "max_iterations"),
    ("MLPR", "hidden"), ("MLPR", "max_epochs"), ("MLPR", "patience"),
]


@pytest.mark.parametrize("kind,name", COUNT_HYPERPARAMETERS)
def test_count_hyperparameters_must_be_integers(kind, name):
    assert isinstance(default_hyperparameters(kind)[name], (int, type(None)))
    for bad in (2.5, 2.0, True):
        with pytest.raises(InvalidSpec, match=name):
            ModelSpec(kind, {name: bad})
    for good in (2, np.int64(2)):
        assert ModelSpec(kind, {name: good}).hyperparameters == {name: good}


def test_effective_hyperparameters_merge_defaults():
    spec = ModelSpec("GBRT", {"rounds": 7})
    merged = spec.effective_hyperparameters()
    assert merged["rounds"] == 7
    assert merged["learning_rate"] == 0.1
    assert merged["max_depth"] == 3


def test_fit_accepts_dataset_and_arrays(norm_split):
    train, test = norm_split
    spec = ModelSpec("LR")
    from_dataset = fit(spec, train)
    from_arrays = fit(spec, (train.features, train.power))
    np.testing.assert_array_equal(
        from_dataset.predict_batch(test.features),
        from_arrays.predict_batch(test.features),
    )


def test_fit_follows_the_spec(norm_split):
    train, _ = norm_split
    model = fit(ModelSpec("DT", {"max_depth": 2}), train)
    assert model.kind == "DT"
    assert model.max_depth == 2


@pytest.mark.parametrize("fit_kind", [fit_lr, fit_lasso, fit_gpr, fit_knn, fit_dt, fit_gbrt,
                                      fit_svr, fit_mlpr])
@pytest.mark.parametrize("rows", [(10, 9), (0, 0)], ids=["mismatched", "empty"])
def test_fit_routines_refuse_bad_training_shapes(fit_kind, rows):
    X = np.zeros((rows[0], 3))
    y = np.zeros(rows[1])
    with pytest.raises(ValueError):
        fit_kind(X, y)


def test_fit_is_deterministic_per_kind(norm_split):
    train, test = norm_split
    small = {
        "GPR": {"max_points": 60},
        "GBRT": {"rounds": 5},
        "MLPR": {"hidden": 6, "max_epochs": 15},
        "SVR": {"max_iterations": 3000},
    }
    for kind in DEFAULT_KINDS:
        spec = ModelSpec(kind, small.get(kind, {}), seed=9)
        a = fit(spec, train).predict_batch(test.features)
        b = fit(spec, train).predict_batch(test.features)
        np.testing.assert_array_equal(a, b)


def test_predict_rejects_wrong_width(norm_split):
    train, _ = norm_split
    model = fit(ModelSpec("LR"), train)
    with pytest.raises(DimensionMismatch):
        model.predict_batch(np.zeros((4, 13)))


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_batch_rejects_non_finite_rows(norm_split, kind, bad):
    train, test = norm_split
    small = {"GBRT": {"rounds": 2}, "MLPR": {"hidden": 4, "max_epochs": 3}}
    model = fit(ModelSpec(kind, small.get(kind, {}), seed=9), train)
    query = test.features[:3].copy()
    query[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        model.predict_batch(query)


@given(width=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
@example(width=255, seed=0)
@settings(max_examples=30, deadline=None)
def test_openblas_gemm_rows_keep_their_bits_at_a_multiple_of_8_columns(width, seed):
    # The OpenBLAS property that row_products, GPR's and KNN's splices and
    # MLPR's row chunks rest on: built at a multiple of 8 columns, a row of
    # a gemm product has the same bits whatever other rows share its A. At
    # other widths (255, 257, 300, 1601 training rows) rows move.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(700, 12))
    B = rng.normal(size=(width, 12))
    full = row_products(A, B, np.empty((700, padded_width(width))))
    for size in (1, 2, 3, 9, 256, 257, 511):
        rows = np.sort(rng.choice(700, size, replace=False))
        part = row_products(A[rows], B, np.empty((max(size, 2), padded_width(width))))
        assert part.tobytes() == full[rows].tobytes(), size
    # MLPR's X @ W1, W1 padded with zero columns, in 2-row and 512-row chunks
    n = int(rng.integers(2, 1100))
    for features in (1, 12, 257):
        X = rng.normal(size=(n, features))
        for hidden in (1, 7, 100, 255, 257):
            W1 = np.zeros((features, padded_width(hidden)))
            W1[:, :hidden] = rng.normal(size=(features, hidden))
            whole = X @ W1
            for chunks in (_row_blocks(n, n // 2), _row_blocks(n, -(-n // 512))):
                chunked = np.empty_like(whole)
                for c in chunks:
                    np.matmul(X[c], W1, out=chunked[c])
                assert chunked.tobytes() == whole.tobytes(), (n, features, hidden)


def test_rowwise_kinds_opt_in_explicitly():
    # the noise sweep splices clean predictions for these classes; any
    # other kind predicts through BLAS gemv and must stay out
    rowwise = {cls for cls in TrainedModel.__subclasses__() if cls.rowwise}
    assert rowwise == {KNNModel, TreeModel, GBRTModel}
    assert set(ROWWISE_KINDS) == {"KNN", "DT", "GBRT"} <= KINDS


@pytest.mark.parametrize("kind", ROWWISE_KINDS)
def test_rowwise_prediction_ignores_the_rest_of_the_batch(norm_split, rng, kind):
    train, _ = norm_split
    model = fit(ModelSpec(kind, seed=9), train)
    assert type(model).rowwise
    # 700 rows cross KNN's 256-row chunks twice; the training copies give
    # KNN exact distance ties
    X = np.vstack([rng.uniform(-0.2, 1.2, size=(600, 12)), train.features[:100]])
    full = model.predict_batch(X)
    subsets = [np.sort(rng.choice(len(X), size, replace=False))
               for size in (1, 2, 3, 5, 255, 256, 257)]
    subsets += [rng.choice(len(X), size, replace=False) for size in (4, 300, 700)]
    subsets += [np.arange(257), np.arange(len(X) - 3, len(X))]
    for rows in subsets:
        assert model.predict_batch(X[rows]).tobytes() == full[rows].tobytes(), len(rows)
    if kind == "KNN":
        # two training rows mirrored about a query tie for its nearest, so
        # a one-row block that rounds its distances unlike a batch of two
        # or more picks the other one about a third of the time
        for _ in range(200):
            q = rng.uniform(0.0, 1.0, size=12)
            v = rng.normal(0.0, 0.01, size=12)
            X_train = np.vstack([q - v, q + v, rng.uniform(5.0, 6.0, size=(60, 12))])
            mirrored = fit_knn(X_train, np.arange(62.0), k=1)
            X = np.vstack([q, rng.uniform(0.0, 1.0, size=(3, 12))])
            assert mirrored.predict_batch(X[:1])[0] == mirrored.predict_batch(X)[0]


# 1025 rows end GPR's and SVR's 512-row chunks with a one-row chunk
@pytest.mark.parametrize("n", [700, 1025])
@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_predict_rows_is_predict_batch_of_those_rows(norm_split, rng, kind, n):
    train, _ = norm_split
    small = {"GBRT": {"rounds": 5}, "MLPR": {"hidden": 8, "max_epochs": 20}}
    X = np.vstack([rng.uniform(-0.2, 1.2, size=(n - 100, 12)), train.features[:100]])
    subsets = [np.sort(rng.choice(n, size, replace=False))
               for size in (1, 2, 3, 5, 511, 512, 513)]
    subsets += [np.arange(n), np.arange(511, 514), np.arange(512), np.array([n - 1]),
                np.array([0, n - 1]), np.array([], dtype=np.intp)]
    # all 320 training rows, then 255 and 257: GPR's kernel and KNN's
    # distances span as many columns as there are training rows
    for size in (None, 255, 257):
        data = (train.features[:size], train.power[:size])
        model = fit(ModelSpec(kind, small.get(kind, {}), seed=9), data)
        full = model.predict_batch(X)
        for rows in subsets:
            assert model.predict_rows(X, rows).tobytes() == full[rows].tobytes(), (size, rows[:5])
            assert model.predict_rows(X, list(rows)).tobytes() == full[rows].tobytes()


def test_lr_identity_passthrough():
    X = np.eye(12)
    y = X[:, 3].copy()
    model = fit(ModelSpec("LR"), (X, y))
    query = np.zeros(12)
    query[3] = 0.3
    # remove the intercept's pull toward the target mean before checking
    others = model.predict_batch(np.zeros(12)[np.newaxis])[0]
    assert model.predict_batch(query[np.newaxis])[0] - others == pytest.approx(
        0.3 * (model.coefficients[3]), rel=1e-9
    )
    residual = y - model.predict_batch(X)
    assert float(np.abs(residual).max()) < 1e-9


def test_dt_constant_targets(norm_split):
    train, _ = norm_split
    y = np.full(train.power.size, 0.7)
    model = fit(ModelSpec("DT"), (train.features, y))
    np.testing.assert_allclose(model.predict_batch(train.features), 0.7, rtol=1e-12)


def test_seed_flows_to_seeded_kinds(norm_split):
    train, test = norm_split
    a = fit(ModelSpec("MLPR", {"hidden": 6, "max_epochs": 15}, seed=1), train)
    b = fit(ModelSpec("MLPR", {"hidden": 6, "max_epochs": 15}, seed=2), train)
    assert not np.array_equal(a.predict_batch(test.features), b.predict_batch(test.features))
