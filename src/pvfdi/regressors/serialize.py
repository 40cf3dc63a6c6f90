"""Text serialization for trained models.

The format is versioned, line-oriented, and binary-free:

    pvfdi-model 1
    kind GBRT
    int n_features 12
    float base_score 0x1.7ae147ae147aep-2
    array coefficients 3: 0x1p+0 0x1p-1 0x0p+0
    matrix X_train 2 3
    0x1p+0 0x1p-1 0x0p+0
    ...
    end

Floats are written with float.hex(), so reload is bit-exact. After the
header come the fields of the model class's ``schema``, in schema order.
Each schema name is an attribute of the class and a keyword of its
constructor: dumping reads the attributes, and loading calls the class
with the parsed fields and ``n_features``. A "tree" field is written as
its ``TREE_PARTS``, unprefixed; a "trees" field as "int rounds" followed
by one "tree{t}."-prefixed block per tree. Every model kind in the suite
round-trips through save_model/load_model to a model with identical
predictions and fields of the same types. Loading checks each field
name, the closing ``end`` line, and that every tree routes each row to a
leaf; the constructor checks the fields against each other and the
declared feature count. A malformed file raises IoError.
"""

import numpy as np

from ..errors import IoError
from .base import TREE_PARTS
from .registry import REGISTRY

__all__ = ["save_model", "load_model", "dumps", "loads", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MAGIC = "pvfdi-model"

_INT64 = np.iinfo(np.int64)


class _Writer:
    """Appends fields; ``field`` dispatches on the schema tag."""

    def __init__(self, kind, n_features):
        self.lines = [f"{_MAGIC} {FORMAT_VERSION}"]
        self._str("kind", kind)
        self._int("n_features", n_features)

    def field(self, tag, name, value):
        getattr(self, "_" + tag)(name, value)

    def _str(self, name, value):
        self.lines.append(f"str {name} {value}")

    def _int(self, name, value):
        self.lines.append(f"int {name} {int(value)}")

    def _float(self, name, value):
        self.lines.append(f"float {name} {float(value).hex()}")

    def _array(self, name, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        body = " ".join(float(v).hex() for v in values)
        self.lines.append(f"array {name} {values.size}:{' ' if values.size else ''}{body}")

    def _iarray(self, name, values):
        values = np.asarray(values, dtype=np.intp).ravel()
        body = " ".join(str(int(v)) for v in values)
        self.lines.append(f"iarray {name} {values.size}:{' ' if values.size else ''}{body}")

    def _matrix(self, name, values):
        values = np.asarray(values, dtype=np.float64)
        self.lines.append(f"matrix {name} {values.shape[0]} {values.shape[1]}")
        for row in values:
            self.lines.append(" ".join(float(v).hex() for v in row))

    def _tree(self, name, arrays):
        self._tree_arrays("", arrays)

    def _trees(self, name, trees):
        self._int("rounds", len(trees))
        for t, arrays in enumerate(trees):
            self._tree_arrays(f"tree{t}.", arrays)

    def _tree_arrays(self, prefix, arrays):
        for (tag, part), values in zip(TREE_PARTS, arrays):
            self.field(tag, prefix + part, values)

    def text(self):
        self.lines.append("end")
        return "\n".join(self.lines) + "\n"


def _parse_float(token):
    try:
        return float.fromhex(token)
    except ValueError:
        raise IoError(f"malformed float token {token!r}") from None


def _parse_int(token):
    try:
        value = int(token)
    except ValueError:
        raise IoError(f"malformed integer token {token!r}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise IoError(f"integer token {token!r} out of range")
    return value


class _Reader:
    """Sequential field reader; field names are checked as they come."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0
        self.n_features = 0

    def header(self):
        """Check the magic line, record the feature count, return the kind."""
        magic = self._next().split()
        if magic[:1] != [_MAGIC] or len(magic) != 2:
            raise IoError("not a model file: bad magic line")
        if _parse_int(magic[1]) != FORMAT_VERSION:
            raise IoError(f"unsupported model format version {magic[1]}")
        kind = self._str("kind")
        self.n_features = self._int("n_features")
        if self.n_features < 0:
            raise IoError(f"negative n_features {self.n_features}")
        return kind

    def field(self, tag, name):
        return getattr(self, "_" + tag)(name)

    def end(self):
        if self._next() != "end" or self.pos != len(self.lines):
            raise IoError("model file must close with a single 'end' line")

    def _next(self):
        if self.pos >= len(self.lines):
            raise IoError("model file truncated")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def _payload(self, tag, name):
        line = self._next()
        head, _, rest = line.partition(" ")
        got_name, _, payload = rest.partition(" ")
        if head != tag or got_name != name:
            raise IoError(f"expected {tag} {name!r}, found {line!r}")
        return payload

    def _str(self, name):
        return self._payload("str", name)

    def _int(self, name):
        return _parse_int(self._payload("int", name))

    def _float(self, name):
        return _parse_float(self._payload("float", name))

    def _values(self, tag, name, parse):
        count, _, body = self._payload(tag, name).partition(":")
        values = [parse(tok) for tok in body.split()]
        if len(values) != _parse_int(count):
            raise IoError(f"{tag} {name!r} declares {count} entries, has {len(values)}")
        return values

    def _array(self, name):
        return np.asarray(self._values("array", name, _parse_float), dtype=np.float64)

    def _iarray(self, name):
        return np.asarray(self._values("iarray", name, _parse_int), dtype=np.intp)

    def _matrix(self, name):
        dims = [_parse_int(tok) for tok in self._payload("matrix", name).split()]
        if len(dims) != 2 or min(dims) < 0:
            raise IoError(f"matrix {name!r} header needs two non-negative dimensions")
        rows, cols = dims
        data = []
        for i in range(rows):
            row = [_parse_float(tok) for tok in self._next().split()]
            if len(row) != cols:
                raise IoError(f"matrix {name!r} row {i} has {len(row)} of {cols} columns")
            data.append(row)
        return np.array(data, dtype=np.float64).reshape(rows, cols)

    def _tree(self, name):
        return self._tree_arrays("")

    def _trees(self, name):
        rounds = self._int("rounds")
        if rounds < 0:
            raise IoError(f"negative tree count {rounds}")
        return [self._tree_arrays(f"tree{t}.") for t in range(rounds)]

    def _tree_arrays(self, prefix):
        arrays = tuple(self.field(tag, prefix + part) for tag, part in TREE_PARTS)
        feature, _, left, right, _ = arrays
        n = feature.size
        if n == 0 or any(a.size != n for a in arrays):
            raise IoError(f"{prefix}* tree arrays must be non-empty and of equal length")
        node = np.arange(n)
        # children numbered after their parent, as grow_tree does, so
        # routing a row always reaches a leaf
        valid = np.where(
            feature >= 0,
            (feature < self.n_features) & (node < left) & (left < n)
            & (node < right) & (right < n),
            (feature == -1) & (left == -1) & (right == -1),
        )
        if not valid.all():
            raise IoError(f"{prefix}* tree node {int(np.argmin(valid))} is malformed")
        return arrays


def dumps(model) -> str:
    """Serialize a trained model to the versioned text format."""
    entry = REGISTRY.get(model.kind)
    if entry is None:
        raise IoError(f"cannot serialize model kind {model.kind!r}")
    w = _Writer(model.kind, model.training_feature_count)
    for tag, name in entry.model.schema:
        w.field(tag, name, getattr(model, name))
    return w.text()


def loads(text: str):
    """Rebuild a trained model from its text serialization."""
    r = _Reader(text)
    kind = r.header()
    entry = REGISTRY.get(kind)
    if entry is None:
        raise IoError(f"unknown model kind {kind!r} in model file")
    fields = {name: r.field(tag, name) for tag, name in entry.model.schema}
    r.end()
    try:
        return entry.model(**fields, n_features=r.n_features)
    except ValueError as exc:
        raise IoError(f"inconsistent {kind} model file: {exc}") from None


def save_model(model, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps(model))
    except OSError as exc:
        raise IoError(f"cannot write model file {path}: {exc}") from None


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from None
    return loads(text)
