"""Exception hierarchy for the pvfdi package.

Errors are grouped by pipeline stage so the CLI can map them onto
distinct exit codes (config/usage, data, model).
"""


class PvfdiError(Exception):
    """Base class for all package errors."""


# --- configuration / usage ---------------------------------------------------

class ConfigError(PvfdiError):
    """Invalid configuration file or flag combination."""


# --- data ingestion and handling ---------------------------------------------

class DataError(PvfdiError):
    """Base class for dataset ingestion and handling errors."""


class MissingColumn(DataError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column {name!r} missing from header")


class NonNumericCell(DataError):
    """A cell did not parse to a finite float.

    ``row`` is the 0-based data-row index (header excluded).
    """

    def __init__(self, row: int, column: str, value: str = ""):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"cell at data row {row}, column {column!r} is not a finite number: {value!r}"
        )


class EmptyFile(DataError):
    def __init__(self, path=""):
        self.path = str(path)
        super().__init__(f"file has no data rows: {self.path}")


class UnreadableCsv(DataError):
    """A CSV file that is not UTF-8 text or that the csv module rejects."""

    def __init__(self, path="", reason: str = ""):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"cannot read CSV {self.path}: {reason}")


class DatasetTooSmall(DataError):
    def __init__(self, n: int, detail: str = ""):
        self.n = n
        super().__init__(f"dataset with {n} samples is too small{': ' + detail if detail else ''}")


class InvalidCount(DataError):
    def __init__(self, n: int, minimum: int):
        self.n = n
        self.minimum = minimum
        super().__init__(f"sample count {n} below minimum {minimum}")


# --- metrics -------------------------------------------------------------------

class MetricError(PvfdiError):
    """Base class for evaluation-series and metric errors."""


class LengthMismatch(MetricError):
    def __init__(self, n_actual: int, n_predicted: int):
        self.n_actual = n_actual
        self.n_predicted = n_predicted
        super().__init__(f"series lengths differ: {n_actual} actual vs {n_predicted} predicted")


class EmptySeries(MetricError):
    def __init__(self):
        super().__init__("evaluation series is empty")


class ZeroBaseline(MetricError):
    def __init__(self, baseline: float):
        self.baseline = baseline
        super().__init__(f"percentage change undefined for baseline {baseline!r}")


# --- models ------------------------------------------------------------------

class ModelError(PvfdiError):
    """Base class for model specification and fitting errors."""


class InvalidSpec(ModelError, ValueError):
    """Hyperparameters inconsistent with the model kind.

    Also a ValueError, the type the fitting routines raise for the same
    out-of-range arguments.
    """


class DimensionMismatch(ModelError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"feature vector has {got} entries, model expects {expected}")


class KTooLarge(ModelError):
    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        super().__init__(f"k={k} exceeds training size n={n}")


class NotPositiveDefinite(ModelError):
    def __init__(self, jitter: float):
        self.jitter = jitter
        super().__init__(f"kernel matrix not positive definite even with jitter {jitter:g}")


class NonFiniteLoss(ModelError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")


# --- sweep workers -----------------------------------------------------------

class WorkerDied(PvfdiError):
    """A forked sweep worker ended before it sent its jobs' outcomes.

    ``exitcode`` is the worker's exit status as multiprocessing reports
    it: negative for the signal that killed it (-9 for the OOM killer).
    """

    def __init__(self, exitcode):
        self.exitcode = exitcode
        super().__init__(f"a sweep worker ended with exit code {exitcode} "
                         "before sending its model results")


# --- output ------------------------------------------------------------------

class IoError(PvfdiError):
    """Failed to write report or series files, or to read a model file."""
