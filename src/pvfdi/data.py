"""PV forecasting datasets: ingestion, validation, normalization, splitting.

A dataset is an ordered collection of hourly samples, each pairing the
twelve ECMWF weather variables with a normalized PV power output. CSV is
the on-disk form: comma-separated, dot decimal, UTF-8, mandatory header
naming the twelve feature columns plus POWER (TIMESTAMP optional).
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    DatasetTooSmall,
    EmptyFile,
    InvalidCount,
    MissingColumn,
    NonNumericCell,
    UnreadableCsv,
)
from .rng import stream

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "POWER_COLUMN",
    "TIMESTAMP_COLUMN",
    "Dataset",
    "SplitConfig",
    "load_csv",
    "save_csv",
    "normalize",
    "split",
    "synth_generate",
]

FEATURE_NAMES = (
    "tclw", "tciw", "sp", "rh", "tcc", "u10",
    "v10", "t2m", "ssrd", "strd", "tsr", "tp",
)
N_FEATURES = len(FEATURE_NAMES)

POWER_COLUMN = "POWER"
TIMESTAMP_COLUMN = "TIMESTAMP"


class Dataset:
    """Ordered samples stored as immutable arrays.

    ``features`` has shape (n, 12) in FEATURE_NAMES column order and
    ``power`` shape (n,). Instances are immutable after construction and
    safe to share across threads.
    """

    def __init__(self, features, power, timestamps=None):
        features = np.array(features, dtype=np.float64)
        power = np.array(power, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != N_FEATURES:
            raise ValueError(f"features must have shape (n, {N_FEATURES})")
        if power.shape != (features.shape[0],):
            raise ValueError("power must have one entry per sample")
        if features.shape[0] == 0:
            raise ValueError("dataset must be non-empty")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        if not np.isfinite(power).all():
            raise ValueError("power contains non-finite values")
        if timestamps is not None:
            timestamps = tuple(str(t) for t in timestamps)
            if len(timestamps) != features.shape[0]:
                raise ValueError("timestamps must have one entry per sample")
        features.flags.writeable = False
        power.flags.writeable = False
        self._features = features
        self._power = power
        self._timestamps = timestamps

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def power(self) -> np.ndarray:
        return self._power

    @property
    def timestamps(self):
        return self._timestamps

    def __len__(self) -> int:
        return self._features.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self._features, other._features)
            and np.array_equal(self._power, other._power)
            and self._timestamps == other._timestamps
        )

    def take(self, indices) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        indices = np.asarray(indices, dtype=np.intp)
        ts = None
        if self._timestamps is not None:
            ts = tuple(self._timestamps[i] for i in indices)
        return Dataset(self._features[indices], self._power[indices], timestamps=ts)

    def replace(self, features=None, power=None) -> "Dataset":
        """Copy with some arrays swapped out; timestamps kept."""
        return Dataset(
            self._features if features is None else features,
            self._power if power is None else power,
            timestamps=self._timestamps,
        )

    def to_csv_bytes(self) -> bytes:
        """Canonical CSV serialization (also the checksum domain)."""
        buf = io.StringIO()
        _write_csv(self, buf)
        return buf.getvalue().encode("utf-8")

    def checksum(self) -> str:
        return hashlib.sha256(self.to_csv_bytes()).hexdigest()


@dataclass(frozen=True)
class SplitConfig:
    """Seeded random train/test partition parameters."""

    train_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError(f"train_ratio must lie in (0, 1), got {self.train_ratio!r}")


# --- CSV ingestion -------------------------------------------------------------

def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise NonNumericCell(row, column, raw) from None
    if not math.isfinite(value):
        raise NonNumericCell(row, column, raw)
    return value


def load_csv(path) -> Dataset:
    """Read a dataset from CSV in file order; no normalization applied.

    The header must name all twelve feature columns and POWER; TIMESTAMP
    is optional and extra columns are ignored. Any cell that does not
    parse to a finite float (missing cells included) raises
    NonNumericCell with its 0-based data-row index. A file that is not
    UTF-8, or that the csv module cannot split, raises UnreadableCsv; a
    leading byte-order mark is skipped.
    """
    path = Path(path)
    try:
        return _read_csv(path)
    except UnicodeDecodeError:
        raise UnreadableCsv(path, "not UTF-8 text") from None
    except csv.Error as exc:
        raise UnreadableCsv(path, str(exc)) from None


def _comment(text: str) -> bool:
    """True for a ``#`` provenance line: its first non-space character is ``#``."""
    return text.lstrip().startswith("#")


def _records(fh):
    """(first raw line, row) of every csv record in ``fh``.

    A record is a comment when its raw first line is one, so a quoted
    ``"#3"`` cell and a continuation line that starts with ``#`` are data.
    """
    consumed = []

    def lines():
        for line in fh:
            consumed.append(line)
            yield line

    for row in csv.reader(lines()):
        yield consumed[0], row
        consumed.clear()


def _read_csv(path) -> Dataset:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(fh)
        header = None
        for raw, row in records:
            if not _comment(raw):  # skip provenance comment lines
                header = row
                break
        if header is None:
            raise EmptyFile(path)
        header = [name.strip() for name in header]
        for name in FEATURE_NAMES:
            if name not in header:
                raise MissingColumn(name)
        if POWER_COLUMN not in header:
            raise MissingColumn(POWER_COLUMN)
        feature_idx = [header.index(name) for name in FEATURE_NAMES]
        power_idx = header.index(POWER_COLUMN)
        ts_idx = header.index(TIMESTAMP_COLUMN) if TIMESTAMP_COLUMN in header else None

        features, power, timestamps = [], [], []
        row_no = 0
        for raw, row in records:
            if not row or _comment(raw):
                continue
            row = row + [""] * (len(header) - len(row))
            features.append(
                [_parse_cell(row[j], row_no, name) for j, name in zip(feature_idx, FEATURE_NAMES)]
            )
            power.append(_parse_cell(row[power_idx], row_no, POWER_COLUMN))
            if ts_idx is not None:
                timestamps.append(row[ts_idx])
            row_no += 1

    if not features:
        raise EmptyFile(path)
    return Dataset(
        np.asarray(features),
        np.asarray(power),
        timestamps=timestamps if ts_idx is not None else None,
    )


def _write_csv(dataset: Dataset, fh, header_comment: str | None = None) -> None:
    if header_comment:
        fh.write(f"# {header_comment}\n")
    columns = [*FEATURE_NAMES, POWER_COLUMN]
    # repr of a float never holds a comma, quote or line break, so the
    # numeric cells need no csv quoting; rendering a row at a time keeps
    # the whole table's Python floats from being alive at once
    table = np.column_stack((dataset.features, dataset.power))
    lines = (",".join(map(repr, row.tolist())) for row in table)
    if dataset.timestamps is not None:
        columns.insert(0, TIMESTAMP_COLUMN)
        # a timestamp may need quoting: csv renders each as the row
        # "<stamp>," (one write per row), and its numbers follow. csv
        # leaves a stamp that reads as a comment line bare, so quote it
        stamped = []
        csv.writer(SimpleNamespace(write=stamped.append), lineterminator="\n").writerows(
            (stamp, "") for stamp in dataset.timestamps
        )
        lines = (
            (f'"{stamp[:-2]}",' if _comment(stamp) else stamp[:-1]) + line
            for stamp, line in zip(stamped, lines)
        )
    fh.write(",".join(columns) + "\n")
    fh.writelines(line + "\n" for line in lines)


def save_csv(dataset: Dataset, path, header_comment: str | None = None) -> None:
    """Write a dataset as CSV; floats use shortest round-tripping repr.

    ``header_comment`` adds one leading ``#`` provenance line, which
    load_csv skips.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_csv(dataset, fh, header_comment)


# --- normalization -------------------------------------------------------------

def _scale_columns(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    out = np.zeros_like(values)
    nonconst = span != 0
    out[..., nonconst] = (values[..., nonconst] - lo[nonconst]) / span[nonconst]
    return out


def normalize(train: Dataset, others=()) -> tuple:
    """Min-max scale ``train`` and every dataset in ``others`` to train's range.

    The column minima and maxima come from ``train`` alone, so test-set
    values beyond the training extrema legitimately fall outside [0, 1];
    nothing is clipped. Constant columns map to 0.0.
    """
    lo, hi = train.features.min(axis=0), train.features.max(axis=0)
    power_lo = float(train.power.min())
    power_span = float(train.power.max()) - power_lo

    def scaled(d: Dataset) -> Dataset:
        if power_span == 0:
            power = np.zeros(len(d))
        else:
            power = (d.power - power_lo) / power_span
        return Dataset(_scale_columns(d.features, lo, hi), power, timestamps=d.timestamps)

    return scaled(train), [scaled(d) for d in others]


# --- splitting -----------------------------------------------------------------

def split(d: Dataset, cfg: SplitConfig) -> tuple:
    """Seeded uniformly-random partition into (train, test).

    The permutation is a pure function of cfg.seed; the first
    floor(n * train_ratio) permuted rows form the training set.
    """
    n = len(d)
    if n < 2:
        raise DatasetTooSmall(n, "need at least 2 samples to split")
    n_train = math.floor(n * cfg.train_ratio)
    if n_train == 0 or n_train == n:
        raise DatasetTooSmall(n, f"train_ratio {cfg.train_ratio} leaves an empty side")
    perm = stream(cfg.seed, "split").permutation(n)
    return d.take(perm[:n_train]), d.take(perm[n_train:])


# --- synthetic data ------------------------------------------------------------

# Raw sampling ranges for the synthetic generator, in each variable's
# native units. Features are drawn uniformly and independently.
SYNTH_RANGES = {
    "tclw": (0.0, 1.2),
    "tciw": (0.0, 0.8),
    "sp": (95000.0, 105000.0),
    "rh": (5.0, 100.0),
    "tcc": (0.0, 1.0),
    "u10": (-12.0, 12.0),
    "v10": (-12.0, 12.0),
    "t2m": (263.0, 313.0),
    "ssrd": (0.0, 3.6e6),
    "strd": (6.0e5, 1.6e6),
    "tsr": (0.0, 4.2e6),
    "tp": (0.0, 0.012),
}

# power = clamp01(A*ssrd' + B*tsr' - C*tcc' + e), primes denoting the
# generator's own [0, 1] rescaling of each raw range above.
SYNTH_SSRD_WEIGHT = 0.55
SYNTH_TSR_WEIGHT = 0.35
SYNTH_TCC_WEIGHT = 0.25
SYNTH_RESIDUAL_STD = 0.02


def synth_generate(n: int, seed: int) -> Dataset:
    """Deterministic synthetic PV dataset of ``n`` samples.

    Power is a clamped linear function of the internally rescaled solar
    radiation, top net radiation, and cloud cover, plus a seeded Gaussian
    residual. Same (n, seed) always yields the identical dataset.
    """
    if n < 10:
        raise InvalidCount(n, 10)
    rng = stream(seed, "synth")
    lo = np.array([SYNTH_RANGES[name][0] for name in FEATURE_NAMES])
    hi = np.array([SYNTH_RANGES[name][1] for name in FEATURE_NAMES])
    unit = rng.uniform(0.0, 1.0, size=(n, N_FEATURES))
    features = lo + unit * (hi - lo)

    col = {name: i for i, name in enumerate(FEATURE_NAMES)}
    signal = (
        SYNTH_SSRD_WEIGHT * unit[:, col["ssrd"]]
        + SYNTH_TSR_WEIGHT * unit[:, col["tsr"]]
        - SYNTH_TCC_WEIGHT * unit[:, col["tcc"]]
    )
    residual = rng.normal(0.0, 1.0, size=n) * SYNTH_RESIDUAL_STD
    power = np.clip(signal + residual, 0.0, 1.0)
    return Dataset(features, power)
