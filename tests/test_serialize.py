import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvfdi
from pvfdi.errors import IoError
from pvfdi.regressors import DEFAULT_KINDS, ModelSpec, fit, fit_svr
from pvfdi.regressors.serialize import FORMAT_VERSION, dumps, load_model, loads, save_model

# Format-version-1 files of tiny fits: synth_generate(40, 5), split 0.8
# with seed 5, normalized; GPR max_points 16, GBRT rounds 3 / max_depth 2,
# MLPR hidden 4 / max_epochs 5, DT max_depth 3, other kinds at defaults.
GOLDEN = Path(__file__).parent / "data" / "models"


def golden(kind):
    return (GOLDEN / f"{kind}.model").read_text(encoding="utf-8")


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure by raising TimeoutError after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def edit_field(text, head, edit):
    """Apply ``edit`` to the token list of the one line starting ``head``."""
    lines = text.splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(head + " ")]
    lines[i] = " ".join(edit(lines[i].split(" ")))
    return "\n".join(lines) + "\n"


def set_token(text, head, index, value):
    def edit(tokens):
        tokens[index] = value
        return tokens
    return edit_field(text, head, edit)


def shorten(text, head):
    """Drop the last entry of an array line and fix its declared count."""
    def edit(tokens):
        tokens = tokens[:-1]
        tokens[2] = f"{len(tokens) - 3}:"
        return tokens
    return edit_field(text, head, edit)


def set_entry(text, head, row, col, value):
    """Set one entry of the matrix whose header line starts ``head``."""
    lines = text.splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(head + " ")]
    tokens = lines[i + 1 + row].split(" ")
    tokens[col] = value
    lines[i + 1 + row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fitted_models():
    raw = pvfdi.synth_generate(120, seed=11)
    train_raw, test_raw = pvfdi.split(raw, pvfdi.SplitConfig(0.8, 11))
    train, (test,) = pvfdi.normalize(train_raw, [test_raw])
    overrides = {
        "GPR": {"max_points": 50},
        "GBRT": {"rounds": 5},
        "MLPR": {"hidden": 6, "max_epochs": 20},
        "SVR": {"max_iterations": 2000},
    }
    models = {
        kind: fit(ModelSpec(kind, overrides.get(kind, {}), seed=3), train)
        for kind in DEFAULT_KINDS
    }
    return models, test


@pytest.mark.parametrize("kind", ("LR", "GPR", "KNN", "DT", "GBRT", "SVR", "MLPR", "LASSO"))
def test_round_trip_preserves_predictions(kind, fitted_models, tmp_path):
    models, test = fitted_models
    model = models[kind]
    path = tmp_path / f"{kind}.model"
    save_model(model, path)
    restored = load_model(path)
    assert restored.kind == model.kind
    assert restored.training_feature_count == model.training_feature_count
    np.testing.assert_array_equal(
        restored.predict_batch(test.features), model.predict_batch(test.features)
    )


def stored_arrays(value, path):
    """(path, array) for every array in a field, tree parts included."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from stored_arrays(item, f"{path}[{i}]")


@pytest.mark.parametrize("reloaded", [False, True], ids=["fitted", "reloaded"])
@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_model_holds_exactly_its_schema_read_only(kind, reloaded, fitted_models):
    models, test = fitted_models
    model = models[kind]
    copy = loads(dumps(model))
    if reloaded:
        model, copy = copy, model
    fields = {name: getattr(model, name) for _, name in model.schema}
    for name, value in fields.items():
        assert type(value) is type(getattr(copy, name)), name
    expected = model.predict_batch(test.features)
    arrays = [pair for name, value in fields.items() for pair in stored_arrays(value, name)]
    assert arrays
    for path, values in arrays:
        assert values.dtype == (np.intp if values.dtype.kind == "i" else np.float64), path
        with pytest.raises(ValueError, match="read-only"):
            values[...] = 7
    np.testing.assert_array_equal(model.predict_batch(test.features), expected)

    cls, width = type(model), model.training_feature_count
    rebuilt = cls(width, **fields)
    np.testing.assert_array_equal(rebuilt.predict_batch(test.features), expected)
    for name in fields:
        with pytest.raises(TypeError):
            cls(width, **{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError):
        cls(width, **fields, extra=0)


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_text_round_trip_is_stable(kind, fitted_models):
    models, _ = fitted_models
    text = dumps(models[kind])
    assert text == dumps(loads(text))


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_golden_model_file_round_trips_byte_for_byte(kind):
    text = golden(kind)
    assert dumps(loads(text)) == text


def test_dump_starts_with_magic_and_kind(fitted_models):
    models, _ = fitted_models
    lines = dumps(models["LR"]).splitlines()
    assert lines[0] == f"pvfdi-model {FORMAT_VERSION}"
    assert lines[1] == "str kind LR"
    assert lines[-1] == "end"


def test_bad_magic_rejected():
    with pytest.raises(IoError):
        loads("other-format 1\nkind LR\nend\n")


def test_unknown_version_rejected(fitted_models):
    models, _ = fitted_models
    text = dumps(models["LR"]).replace("pvfdi-model 1", "pvfdi-model 99", 1)
    with pytest.raises(IoError):
        loads(text)


def test_truncated_payload_rejected(fitted_models):
    models, _ = fitted_models
    text = dumps(models["SVR"])
    lines = text.splitlines()
    with pytest.raises(IoError):
        loads("\n".join(lines[: len(lines) // 2]))


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_model(tmp_path / "nope.model")


def test_non_utf8_file_raises_io_error(tmp_path):
    path = tmp_path / "LR.model"
    path.write_bytes(golden("LR").encode("utf-16"))
    with pytest.raises(IoError):
        load_model(path)


def test_mangled_float_rejected(fitted_models):
    models, _ = fitted_models
    text = dumps(models["LR"]).replace("0x", "0q", 1)
    with pytest.raises(IoError):
        loads(text)


@pytest.mark.parametrize("kind", ("LR", "LASSO", "GPR", "KNN", "MLPR", "SVR"))
def test_declared_feature_count_is_checked(kind):
    with pytest.raises(IoError):
        loads(set_token(golden(kind), "int n_features", 2, "3"))


MALFORMED = {
    "negative matrix dimension": ("KNN", lambda t: set_token(t, "matrix X_train", 2, "-1")),
    "trailing line": ("LR", lambda t: t + "end\n"),
    "missing end": ("LR", lambda t: t[: -len("end\n")]),
    "negative tree count": ("GBRT", lambda t: set_token(t, "int rounds", 2, "-3")),
    "child before parent": ("DT", lambda t: set_token(t, "iarray left", 3, "0")),
    "child out of range": ("DT", lambda t: set_token(t, "iarray right", 3, "9")),
    "leaf with a child": ("DT", lambda t: set_token(t, "iarray left", -1, "0")),
    "feature out of range": ("DT", lambda t: set_token(t, "iarray feature", 3, "12")),
    "tree arrays disagree": ("DT", lambda t: shorten(t, "array threshold")),
    "boosted tree loops": ("GBRT", lambda t: set_token(t, "iarray tree1.left", 3, "0")),
    "GPR alpha vs rows": ("GPR", lambda t: shorten(t, "array alpha")),
    "KNN y_train vs rows": ("KNN", lambda t: shorten(t, "array y_train")),
    "SVR sv_coef vs rows": ("SVR", lambda t: shorten(t, "array sv_coef")),
    "MLPR b1 vs W1": ("MLPR", lambda t: shorten(t, "array b1")),
    "MLPR W2 vs W1": ("MLPR", lambda t: shorten(t, "array W2")),
    # non-finite values that prediction reads
    "LR bias NaN": ("LR", lambda t: set_token(t, "float bias", 2, "nan")),
    "LR bias beyond the float range": ("LR", lambda t: set_token(t, "float bias", 2, "0x1p+1024")),
    "LASSO coefficient -inf": ("LASSO", lambda t: set_token(t, "array coefficients", 3, "-inf")),
    "GPR alpha NaN": ("GPR", lambda t: set_token(t, "array alpha", 3, "nan")),
    "GPR X_train inf": ("GPR", lambda t: set_entry(t, "matrix X_train", 0, 0, "inf")),
    "GPR length_scale inf": ("GPR", lambda t: set_token(t, "float length_scale", 2, "inf")),
    "KNN X_train inf": ("KNN", lambda t: set_entry(t, "matrix X_train", 3, 5, "inf")),
    "KNN y_train NaN": ("KNN", lambda t: set_token(t, "array y_train", 4, "nan")),
    "DT threshold inf": ("DT", lambda t: set_token(t, "array threshold", 3, "inf")),
    "DT leaf value NaN": ("DT", lambda t: set_token(t, "array value", -1, "nan")),
    "GBRT base_score NaN": ("GBRT", lambda t: set_token(t, "float base_score", 2, "nan")),
    "GBRT learning_rate inf": ("GBRT", lambda t: set_token(t, "float learning_rate", 2, "inf")),
    "GBRT tree value -inf": ("GBRT", lambda t: set_token(t, "array tree2.value", -1, "-inf")),
    "SVR bias inf": ("SVR", lambda t: set_token(t, "float bias", 2, "inf")),
    "SVR gamma NaN": ("SVR", lambda t: set_token(t, "float gamma", 2, "nan")),
    "SVR sv_coef NaN": ("SVR", lambda t: set_token(t, "array sv_coef", 3, "nan")),
    "SVR sv_X -inf": ("SVR", lambda t: set_entry(t, "matrix sv_X", 1, 2, "-inf")),
    "MLPR W1 NaN": ("MLPR", lambda t: set_entry(t, "matrix W1", 2, 1, "nan")),
    "MLPR b1 inf": ("MLPR", lambda t: set_token(t, "array b1", 3, "inf")),
    "MLPR W2 -inf": ("MLPR", lambda t: set_token(t, "array W2", 4, "-inf")),
    "MLPR b2 NaN": ("MLPR", lambda t: set_token(t, "float b2", 2, "nan")),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_model_file_rejected(case):
    kind, mutate = MALFORMED[case]
    text = mutate(golden(kind))
    with time_limit(5), pytest.raises(IoError):
        loads(text)


# stored hyperparameters that break their kind's rule; KNN's 32 training
# rows cannot hold k = 5000 nearest neighbours
OUT_OF_RANGE = {
    "KNN k 0": ("KNN", "int k", "0"),
    "KNN k 5000": ("KNN", "int k", "5000"),
    "GPR length_scale 0": ("GPR", "float length_scale", "0x0p+0"),
    "SVR gamma -16": ("SVR", "float gamma", "-0x1p+4"),
    "GBRT learning_rate -1": ("GBRT", "float learning_rate", "-0x1p+0"),
    "DT min_samples_leaf -3": ("DT", "int min_samples_leaf", "-3"),
    "DT max_depth -2": ("DT", "int max_depth", "-2"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_stored_hyperparameter_out_of_range_rejected(case):
    kind, head, value = OUT_OF_RANGE[case]
    name = head.split()[1]
    with pytest.raises(IoError, match=name):
        loads(set_token(golden(kind), head, 2, value))


def test_unlimited_tree_depth_is_stored_as_minus_one():
    text = set_token(golden("DT"), "int max_depth", 2, "-1")
    model = loads(text)
    assert model.max_depth is None
    assert dumps(model) == text


def test_svr_with_infinite_kkt_violation_round_trips():
    # no SMO step: the violation is still its initial inf
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    model = fit_svr(X, rng.normal(size=12), max_iterations=0)
    assert model.kkt_violation == np.inf and not model.converged
    text = dumps(model)
    restored = loads(text)
    assert restored.kkt_violation == np.inf
    assert dumps(restored) == text
    np.testing.assert_array_equal(restored.predict_batch(X), model.predict_batch(X))
    # the diagnostics may be infinite in a stored file too
    text = set_token(golden("SVR"), "float kkt_violation", 2, "inf")
    text = set_token(text, "float dual_objective", 2, "-inf")
    restored = loads(text)
    assert (restored.kkt_violation, restored.dual_objective) == (np.inf, -np.inf)
    assert dumps(restored) == text


REPLACEMENTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "x", "end", "LR", "nan", "-inf", "0x1p+1000", "0x1p+1024", "-0x1p-3",
                     "99999999999999999999", "1:", "0:"]),
)


@given(kind=st.sampled_from(DEFAULT_KINDS), data=st.data())
@settings(max_examples=300, deadline=2000)
def test_mutated_model_files_raise_io_error_or_predict(kind, data):
    lines = golden(kind).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    op = data.draw(st.sampled_from(("drop", "duplicate", "swap", "replace")), label="op")
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = data.draw(st.integers(0, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split(" ")
        k = data.draw(st.integers(0, len(tokens) - 1), label="token")
        tokens[k] = data.draw(REPLACEMENTS, label="replacement")
        lines[i] = " ".join(tokens)
    with time_limit(5):
        try:
            model = loads("\n".join(lines) + "\n")
        except IoError:
            return
        out = model.predict_batch(np.zeros((3, model.training_feature_count)))
    assert out.shape == (3,) and out.dtype == np.float64
