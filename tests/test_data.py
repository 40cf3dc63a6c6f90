import csv
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvfdi
from pvfdi.data import POWER_COLUMN, SYNTH_RANGES, TIMESTAMP_COLUMN
from pvfdi.errors import (
    DataError,
    DatasetTooSmall,
    EmptyFile,
    InvalidCount,
    MissingColumn,
    NonNumericCell,
    UnreadableCsv,
    PvfdiError,
)
from pvfdi.noise import NOISE_TARGETS, NoiseConfig, inject
from tests.test_knn import peak_bytes


def small(n=20, seed=3):
    return pvfdi.synth_generate(n, seed)


# --- Dataset ----------------------------------------------------------------------

def test_dataset_accessors_and_immutability():
    ds = small()
    assert len(ds) == 20
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        pvfdi.Dataset(np.zeros((3, 11)), np.zeros(3))
    with pytest.raises(ValueError):
        pvfdi.Dataset(np.zeros((3, 12)), np.zeros(4))
    with pytest.raises(ValueError):
        pvfdi.Dataset(np.zeros((0, 12)), np.zeros(0))
    bad = np.zeros((3, 12))
    bad[1, 4] = np.nan
    with pytest.raises(ValueError):
        pvfdi.Dataset(bad, np.zeros(3))
    with pytest.raises(ValueError, match="power"):
        pvfdi.Dataset(np.zeros((3, 12)), np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="timestamps"):
        pvfdi.Dataset(np.zeros((3, 12)), np.zeros(3), timestamps=["a", "b"])


def test_constructor_copies_the_callers_arrays():
    features, power = np.zeros((3, 12)), np.zeros(3)
    ds = pvfdi.Dataset(features, power)
    features[0, 0] = power[0] = 1.0
    assert features.flags.writeable and power.flags.writeable
    assert ds.features[0, 0] == 0.0 and ds.power[0] == 0.0


def built_datasets(tmp_path) -> dict:
    """One dataset from each of the package's builders, by builder."""
    synth = pvfdi.synth_generate(600, 4)
    pvfdi.save_csv(synth, tmp_path / "d.csv")
    train, test = pvfdi.split(synth, pvfdi.SplitConfig(0.8, 4))
    train_n, (test_n,) = pvfdi.normalize(train, [test])
    built = {"synth_generate": synth, "take": synth.take([3, 1, 2]), "split": test,
             "normalize": test_n, "load_csv": pvfdi.load_csv(tmp_path / "d.csv")}
    for target in NOISE_TARGETS:
        built[f"inject {target}"] = inject(test_n, NoiseConfig(0.5, target=target))[0]
    return built


def test_built_datasets_hold_frozen_c_contiguous_floats(tmp_path):
    for builder, ds in built_datasets(tmp_path).items():
        for array in (ds.features, ds.power):
            assert array.dtype == np.float64, builder
            assert array.flags.c_contiguous and not array.flags.writeable, builder


def test_take_preserves_order_and_equality():
    ds = small()
    sub = ds.take([5, 1, 7])
    assert np.array_equal(sub.features[0], ds.features[5])
    assert np.array_equal(sub.power, ds.power[[5, 1, 7]])
    assert ds == small() and sub != ds


def test_checksum_tracks_content():
    ds = small()
    assert ds.checksum() == small().checksum()
    other = ds.replace(power=ds.power + 1.0)
    assert other.checksum() != ds.checksum()


def csv_writer_reference(ds):
    """The dataset's CSV bytes as csv.writer renders them, row by row.

    A stamp whose first non-space character is ``#`` would read back as a
    comment line, and csv.writer leaves a bare carriage return unquoted,
    which splits the record on reading; such a stamp's row is rendered
    with every string cell quoted.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoting = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    columns = [*pvfdi.FEATURE_NAMES, POWER_COLUMN]
    writer.writerow(columns if ds.timestamps is None else [TIMESTAMP_COLUMN, *columns])
    for i in range(len(ds)):
        row = [float(v) for v in (*ds.features[i], ds.power[i])]
        if ds.timestamps is None:
            writer.writerow(map(repr, row))
        elif ds.timestamps[i].lstrip().startswith("#") or "\r" in ds.timestamps[i]:
            quoting.writerow([ds.timestamps[i], *row])
        else:
            writer.writerow([ds.timestamps[i], *map(repr, row)])
    return buf.getvalue().encode("utf-8")


# stamps that need no quoting, and stamps that csv or the reader needs quoted
STAMPS = ["2014-04-01 12:00", "a,b", 'say "hi"', "", " lead", "two\nlines", "cr\r",
          "tab\t", "#", "'"]


@pytest.mark.parametrize("stamped", [False, True])
def test_csv_bytes_match_csv_writer(tmp_path, stamped):
    ds = small(10)
    features = ds.features.copy()
    features[0, :3] = [-0.0, 5e-324, 1e308]
    power = ds.power.copy()
    power[1] = -0.0
    ds = pvfdi.Dataset(features, power, timestamps=STAMPS if stamped else None)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    assert path.read_bytes() == csv_writer_reference(ds)
    pvfdi.save_csv(ds, path, header_comment="a comment")
    comment, body = path.read_bytes().split(b"\n", 1)
    assert comment == b"# a comment"
    assert body == csv_writer_reference(ds)


# the CSV text is rendered in blocks of 512 rows: counts on either side of
# one and two block edges
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
@pytest.mark.parametrize("stamped", [False, True])
def test_csv_blocks_join_to_the_csv_writer_bytes(tmp_path, n, stamped):
    ds = pvfdi.synth_generate(max(n, 10), 5).take(np.arange(n))
    if stamped:
        ds = pvfdi.Dataset(ds.features, ds.power,
                           timestamps=[STAMPS[i % len(STAMPS)] for i in range(n)])
    expected = csv_writer_reference(ds)
    assert ds.checksum() == hashlib.sha256(expected).hexdigest()
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    assert path.read_bytes() == expected
    pvfdi.save_csv(ds, path, header_comment="a comment")
    assert path.read_bytes() == b"# a comment\n" + expected
    pvfdi.save_csv(ds, path)
    assert path.read_bytes() == expected


def test_checksum_memory_does_not_grow_with_rows():
    ds = pvfdi.synth_generate(20_000, 1)
    tracemalloc.start()
    try:
        ds.checksum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole table's CSV text is about 5 MB, and a block's text about 0.1 MB
    assert peak < 2 * 2**20


@pytest.mark.parametrize("stamp", ["#3", " #3", "a\n#b", "cr\r", "a\rb"])
def test_hash_timestamps_round_trip(tmp_path, stamp):
    ds = small(10)
    stamps = [f"t{i}" for i in range(10)]
    stamps[3] = stamp
    ds = pvfdi.Dataset(ds.features, ds.power, timestamps=stamps)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path, header_comment="a comment")
    again = pvfdi.load_csv(path)
    assert len(again) == 10
    assert again == ds


# --- CSV round trip --------------------------------------------------------------

def test_load_csv_memory_holds_no_boxed_rows(tmp_path):
    ds = pvfdi.synth_generate(20_000, 42)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    tracemalloc.start()
    try:
        loaded = pvfdi.load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.checksum() == ds.checksum()
    # the 4.9 MB file's 260,000 cells are 2.1 MB of float64; as boxed
    # floats in row lists they peaked at 14.7 MB
    assert peak < 9 * 10**6


def test_save_load_round_trip_is_exact(tmp_path):
    ds = small(30, seed=11)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    again = pvfdi.load_csv(path)
    assert again == ds


def test_load_skips_utf8_byte_order_mark(tmp_path):
    ds = small(30, seed=11)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert pvfdi.load_csv(path) == ds


def test_round_trip_with_timestamps_and_comment(tmp_path):
    ds = small(12)
    ds = pvfdi.Dataset(ds.features, ds.power,
                       timestamps=[f"2014-04-{i+1:02d}T12:00" for i in range(12)])
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path, header_comment="written by a test")
    again = pvfdi.load_csv(path)
    assert again == ds
    assert again.timestamps == ds.timestamps


def test_load_ignores_extra_columns_and_order(tmp_path):
    names = list(pvfdi.FEATURE_NAMES)
    header = ["junk"] + names[::-1] + [pvfdi.POWER_COLUMN]
    row = ["x"] + [str(i) for i in range(12)] + ["0.5"]
    path = tmp_path / "d.csv"
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    ds = pvfdi.load_csv(path)
    assert ds.features[0, names.index("tclw")] == 11.0  # reversed header
    assert ds.power[0] == 0.5


def test_load_errors(tmp_path):
    path = tmp_path / "d.csv"

    path.write_text("")
    with pytest.raises(EmptyFile):
        pvfdi.load_csv(path)

    header = ",".join(pvfdi.FEATURE_NAMES + (pvfdi.POWER_COLUMN,))
    path.write_text(header + "\n")
    with pytest.raises(EmptyFile):
        pvfdi.load_csv(path)

    path.write_text(header.replace("ssrd", "sun") + "\n" + "0," * 12 + "0\n")
    with pytest.raises(MissingColumn) as err:
        pvfdi.load_csv(path)
    assert err.value.name == "ssrd"

    path.write_text(",".join(pvfdi.FEATURE_NAMES) + "\n" + "0," * 11 + "0\n")
    with pytest.raises(MissingColumn) as err:
        pvfdi.load_csv(path)
    assert err.value.name == POWER_COLUMN

    good_row = ",".join(["0.1"] * 13)
    bad_row = ",".join(["0.1"] * 8 + ["oops"] + ["0.1"] * 4)
    path.write_text("\n".join([header, good_row, bad_row]) + "\n")
    with pytest.raises(NonNumericCell) as err:
        pvfdi.load_csv(path)
    assert err.value.row == 1
    assert err.value.column == "ssrd"

    path.write_text("\n".join([header, "0.1,0.2"]) + "\n")  # short row
    with pytest.raises(NonNumericCell):
        pvfdi.load_csv(path)


def test_unreadable_csv_raises_data_error_naming_the_path(tmp_path):
    ds = small(10)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    text = path.read_text(encoding="utf-8")
    path.write_bytes(text.encode("utf-16"))  # starts with the BOM b"\xff\xfe"
    with pytest.raises(UnreadableCsv) as err:
        pvfdi.load_csv(path)
    assert err.value.path == str(path) and str(path) in str(err.value)
    assert err.value.reason == "not UTF-8 text"
    # a bad byte past the decoder's first chunk, in a data row
    lines = text.splitlines(keepends=True)
    body = "".join(lines[:2]).encode("utf-8") + b"0.5\xc3," + "".join(lines[2:]).encode("utf-8")
    path.write_bytes(b"# " + b"x" * 20000 + b"\n" + body)
    with pytest.raises(UnreadableCsv):
        pvfdi.load_csv(path)
    # a cell beyond the csv module's field size limit
    path.write_text(lines[0] + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(UnreadableCsv) as err:
        pvfdi.load_csv(path)
    assert "field larger than field limit" in err.value.reason


def test_comment_rows_are_skipped_in_body(tmp_path):
    ds = small(10)
    path = tmp_path / "d.csv"
    pvfdi.save_csv(ds, path)
    lines = path.read_text().splitlines()
    lines.insert(2, "# injected provenance comment")
    path.write_text("\n".join(lines) + "\n")
    assert pvfdi.load_csv(path) == ds


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    """A valid 10-row CSV (timestamps, one comment line) and a scratch path."""
    root = tmp_path_factory.mktemp("csv-fuzz")
    ds = small(10)
    ds = pvfdi.Dataset(ds.features, ds.power,
                       timestamps=[f"2014-04-01T{i:02d}:00" for i in range(10)])
    pvfdi.save_csv(ds, root / "valid.csv", header_comment="fuzz seed")
    return root


CELLS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e999", "x", "\"", "\"1.5\"", "#", " 2 ",
                     "0x1p3", "1_0", "POWER", "tclw", "\u00e9", "1,2"]),
    st.floats(allow_nan=False).map(repr),
)


@given(data=st.data())
@settings(max_examples=300, deadline=2000)
def test_mutated_csv_loads_or_raises_pvfdi_error(csv_fuzz_dir, data):
    raw = (csv_fuzz_dir / "valid.csv").read_bytes()
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        lines = raw.split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        op = data.draw(st.sampled_from(("drop", "duplicate", "truncate", "cell", "bytes")),
                       label="op")
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "cell":
            cells = lines[i].split(b",")
            k = data.draw(st.integers(0, len(cells) - 1), label="cell")
            cells[k] = data.draw(CELLS, label="value").encode("utf-8")
            lines[i] = b",".join(cells)
        raw = b"\n".join(lines)
        if op == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw)), label="cut")]
        elif op == "bytes":
            at = data.draw(st.integers(0, len(raw)), label="at")
            raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=4), label="insert") + raw[at:]
    path = csv_fuzz_dir / "mutated.csv"
    path.write_bytes(raw)
    try:
        ds = pvfdi.load_csv(path)
    except PvfdiError:
        return
    assert isinstance(ds, pvfdi.Dataset)
    assert ds.features.shape == (len(ds), pvfdi.N_FEATURES)
    assert np.isfinite(ds.features).all() and np.isfinite(ds.power).all()


# --- normalization ----------------------------------------------------------------

def test_normalize_maps_train_to_unit_range():
    raw_train, raw_test = small(100, seed=1), small(40, seed=2)
    train, (test,) = pvfdi.normalize(raw_train, [raw_test])
    assert np.allclose(train.features.min(axis=0), 0.0)
    assert np.allclose(train.features.max(axis=0), 1.0)
    assert train.power.min() == 0.0 and train.power.max() == 1.0
    # test columns may leave [0, 1]; they are scaled by train's extrema
    lo, hi = raw_train.features.min(axis=0), raw_train.features.max(axis=0)
    np.testing.assert_array_equal(test.features, (raw_test.features - lo) / (hi - lo))
    p_lo, p_hi = raw_train.power.min(), raw_train.power.max()
    np.testing.assert_array_equal(test.power, (raw_test.power - p_lo) / (p_hi - p_lo))


def test_normalization_is_idempotent_on_own_output():
    train, _ = pvfdi.normalize(small(50, seed=9))
    again, _ = pvfdi.normalize(train)
    assert np.array_equal(again.features, train.features)
    assert np.array_equal(again.power, train.power)


def test_constant_column_normalizes_to_zero():
    ds = small(30)
    features = np.array(ds.features)
    features[:, 4] = 7.5
    ds = pvfdi.Dataset(features, ds.power)
    features[:, 4] = np.linspace(-1.0, 9.0, 30)  # beyond train's one value, either side
    norm, (other,) = pvfdi.normalize(ds, [pvfdi.Dataset(features, ds.power)])
    for scaled in (norm, other):  # +0.0, never -0.0
        assert np.all(scaled.features[:, 4] == 0.0)
        assert not np.signbit(scaled.features[:, 4]).any()


def test_no_clipping_beyond_training_range():
    train = small(50, seed=1)
    wild = np.array(train.features)
    wild[0] = train.features.max(axis=0) * 2 + 1
    _, (out,) = pvfdi.normalize(train, [pvfdi.Dataset(wild, train.power)])
    assert (out.features[0] > 1.0).any()


@pytest.mark.parametrize("side, column", [("train", "sp"), ("train", "POWER"),
                                          ("test", "tciw")])
def test_unscalable_column_is_a_data_error(side, column):
    # a training span of 3.4e308 overflows, and so does a test value of
    # 1.7e308 over tciw's training span of under 0.8
    extreme = np.where(np.arange(50) % 2, -1.7e308, 1.7e308)
    train = small(50, seed=1)
    features = np.array(train.features)
    if column != POWER_COLUMN:
        features[:, pvfdi.FEATURE_NAMES.index(column)] = extreme
    wild = train.replace(features=features, power=extreme if column == POWER_COLUMN else None)
    with pytest.raises(DataError, match=f"column '{column}'"):
        if side == "train":
            pvfdi.normalize(wild)
        else:
            pvfdi.normalize(train, [wild])


# --- split -------------------------------------------------------------------------

def test_split_sizes_follow_floor_rule():
    ds = small(10)
    train, test = pvfdi.split(ds, pvfdi.SplitConfig(0.8, 0))
    assert (len(train), len(test)) == (8, 2)
    ds = small(11)
    train, test = pvfdi.split(ds, pvfdi.SplitConfig(0.5, 0))
    assert (len(train), len(test)) == (5, 6)


def test_split_partitions_without_overlap():
    ds = small(60, seed=5)
    train, test = pvfdi.split(ds, pvfdi.SplitConfig(0.8, 5))
    merged = np.sort(np.concatenate([train.power, test.power]))
    assert np.array_equal(merged, np.sort(ds.power))


def test_split_is_seed_deterministic():
    ds = small(40)
    a1, b1 = pvfdi.split(ds, pvfdi.SplitConfig(0.75, 3))
    a2, b2 = pvfdi.split(ds, pvfdi.SplitConfig(0.75, 3))
    assert a1 == a2 and b1 == b2
    a3, _ = pvfdi.split(ds, pvfdi.SplitConfig(0.75, 4))
    assert a1 != a3


def test_split_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        pvfdi.SplitConfig(train_ratio=1.0)
    ds = small(10)
    with pytest.raises(DatasetTooSmall):
        pvfdi.split(ds, pvfdi.SplitConfig(0.05, 0))  # floor gives empty train
    with pytest.raises(DatasetTooSmall):
        pvfdi.split(ds.take([3]), pvfdi.SplitConfig(0.5, 0))


def test_split_keeps_each_timestamp_with_its_row():
    ds = small(30)
    stamped = pvfdi.Dataset(ds.features, ds.power, timestamps=[f"t{i}" for i in range(30)])
    for side in pvfdi.split(stamped, pvfdi.SplitConfig(0.8, 2)):
        rows = [int(stamp[1:]) for stamp in side.timestamps]
        assert np.array_equal(side.features, ds.features[rows])
        assert np.array_equal(side.power, ds.power[rows])


# --- synthetic generator -------------------------------------------------------------

def test_synth_is_deterministic_and_in_range():
    a = pvfdi.synth_generate(200, seed=13)
    b = pvfdi.synth_generate(200, seed=13)
    assert a == b
    assert a != pvfdi.synth_generate(200, seed=14)
    for i, name in enumerate(pvfdi.FEATURE_NAMES):
        lo, hi = SYNTH_RANGES[name]
        assert a.features[:, i].min() >= lo
        assert a.features[:, i].max() <= hi
    assert a.power.min() >= 0.0 and a.power.max() <= 1.0


def test_synth_power_tracks_radiation():
    ds = pvfdi.synth_generate(3000, seed=2)
    ssrd = ds.features[:, pvfdi.FEATURE_NAMES.index("ssrd")]
    corr = np.corrcoef(ssrd, ds.power)[0, 1]
    assert corr > 0.5  # solar radiation is the dominant driver


def test_synth_allocates_its_arrays_once():
    # 200,000 rows hold 20.8 MB of features and power. Scaling a copy of the
    # unit draws and then copying the result into the dataset peaked at
    # 63.3 MiB; scaling the draws in place peaks at 25.2 MiB
    peak, ds = peak_bytes(pvfdi.synth_generate, 200_000, 42)
    assert len(ds) == 200_000
    assert peak < 40 * 2**20


def test_synth_rejects_tiny_counts():
    with pytest.raises(InvalidCount):
        pvfdi.synth_generate(5, seed=0)
