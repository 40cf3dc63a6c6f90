import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvfdi
from pvfdi.errors import IoError
from pvfdi.regressors import DEFAULT_KINDS, ModelSpec, fit
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
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_model_file_rejected(case):
    kind, mutate = MALFORMED[case]
    text = mutate(golden(kind))
    with time_limit(5), pytest.raises(IoError):
        loads(text)


REPLACEMENTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "x", "end", "LR", "nan", "-inf", "0x1p+1000", "-0x1p-3",
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
