"""Text serialization for trained models.

The format is versioned, line-oriented, and binary-free:

    pvfdi-model 1
    str kind GBRT
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
with the parsed fields and ``n_features``. Each schema tag's line format
is one (write, read) pair in ``_FIELDS``. A "depth" field is an int
line, -1 for no limit; a "tree" field is written as its ``TREE_PARTS``,
unprefixed; a "trees" field as "int rounds" followed by one
"tree{t}."-prefixed block per tree. Every model kind in the suite
round-trips through save_model/load_model to a model with identical
predictions and fields of the same types. Loading only parses, checking
each field name and the closing ``end`` line; the constructor then checks
the fields as it checks a fitted model's. A malformed file raises IoError.
"""

import numpy as np

from ..errors import IoError, ModelError
from ..files import write_files
from .base import TREE_PARTS
from .registry import REGISTRY

__all__ = ["save_model", "load_model", "dumps", "loads", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MAGIC = "pvfdi-model"

_INT64 = np.iinfo(np.int64)


def _parse_float(token):
    try:
        return float.fromhex(token)
    except (ValueError, OverflowError):
        raise IoError(f"malformed float token {token!r}") from None


def _parse_int(token):
    try:
        value = int(token)
    except ValueError:
        raise IoError(f"malformed integer token {token!r}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise IoError(f"integer token {token!r} out of range")
    return value


class _Lines:
    """A model file's lines, read in order."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self):
        if self.pos >= len(self.lines):
            raise IoError("model file truncated")
        self.pos += 1
        return self.lines[self.pos - 1]

    def payload(self, tag, name):
        """The rest of the next line, which must read ``tag name``."""
        line = self.next()
        head, _, rest = line.partition(" ")
        got_name, _, payload = rest.partition(" ")
        if head != tag or got_name != name:
            raise IoError(f"expected {tag} {name!r}, found {line!r}")
        return payload

    def end(self):
        if self.next() != "end" or self.pos != len(self.lines):
            raise IoError("model file must close with a single 'end' line")


def _write_int(out, name, value):
    out.append(f"int {name} {int(value)}")


def _read_int(lines, name):
    return _parse_int(lines.payload("int", name))


def _vector(tag, dtype, render, parse):
    """The (write, read) pair of a one-line ``tag name count: v0 v1 ...`` field."""
    def write(out, name, values):
        values = np.asarray(values, dtype=dtype).ravel()
        out.append(f"{tag} {name} {values.size}:" + "".join(" " + render(v) for v in values))

    def read(lines, name):
        count, _, body = lines.payload(tag, name).partition(":")
        values = [parse(tok) for tok in body.split()]
        if len(values) != _parse_int(count):
            raise IoError(f"{tag} {name!r} declares {count} entries, has {len(values)}")
        return np.asarray(values, dtype=dtype)

    return write, read


def _read_depth(lines, name):
    value = _read_int(lines, name)
    return None if value == -1 else value


def _write_matrix(out, name, values):
    values = np.asarray(values, dtype=np.float64)
    out.append(f"matrix {name} {values.shape[0]} {values.shape[1]}")
    out.extend(" ".join(float(v).hex() for v in row) for row in values)


def _read_matrix(lines, name):
    dims = [_parse_int(tok) for tok in lines.payload("matrix", name).split()]
    if len(dims) != 2 or min(dims) < 0:
        raise IoError(f"matrix {name!r} header needs two non-negative dimensions")
    rows, cols = dims
    data = []
    for i in range(rows):
        row = [_parse_float(tok) for tok in lines.next().split()]
        if len(row) != cols:
            raise IoError(f"matrix {name!r} row {i} has {len(row)} of {cols} columns")
        data.append(row)
    return np.array(data, dtype=np.float64).reshape(rows, cols)


def _write_tree(out, prefix, arrays):
    for (tag, part), values in zip(TREE_PARTS, arrays):
        _FIELDS[tag][0](out, prefix + part, values)


def _read_tree(lines, prefix):
    return tuple(_FIELDS[tag][1](lines, prefix + part) for tag, part in TREE_PARTS)


def _write_trees(out, name, trees):
    _write_int(out, "rounds", len(trees))
    for t, arrays in enumerate(trees):
        _write_tree(out, f"tree{t}.", arrays)


def _read_trees(lines, name):
    rounds = _read_int(lines, "rounds")
    if rounds < 0:
        raise IoError(f"negative tree count {rounds}")
    return [_read_tree(lines, f"tree{t}.") for t in range(rounds)]


# schema tag -> (write(out, name, value) appending to the list of lines,
# read(lines, name) returning the parsed field)
_FIELDS = {
    "int": (_write_int, _read_int),
    "float": (lambda out, name, value: out.append(f"float {name} {float(value).hex()}"),
              lambda lines, name: _parse_float(lines.payload("float", name))),
    "depth": (lambda out, name, value: _write_int(out, name, -1 if value is None else value),
              _read_depth),
    "array": _vector("array", np.float64, lambda v: float(v).hex(), _parse_float),
    "iarray": _vector("iarray", np.intp, lambda v: str(int(v)), _parse_int),
    "matrix": (_write_matrix, _read_matrix),
    "tree": (lambda out, name, arrays: _write_tree(out, "", arrays),
             lambda lines, name: _read_tree(lines, "")),
    "trees": (_write_trees, _read_trees),
}


def dumps(model) -> str:
    """Serialize a trained model to the versioned text format."""
    cls = REGISTRY.get(model.kind)
    if cls is None:
        raise IoError(f"cannot serialize model kind {model.kind!r}")
    out = [f"{_MAGIC} {FORMAT_VERSION}", f"str kind {model.kind}"]
    _write_int(out, "n_features", model.training_feature_count)
    for tag, name in cls.schema:
        _FIELDS[tag][0](out, name, getattr(model, name))
    out.append("end")
    return "\n".join(out) + "\n"


def loads(text: str):
    """Rebuild a trained model from its text serialization."""
    lines = _Lines(text)
    magic = lines.next().split()
    if magic[:1] != [_MAGIC] or len(magic) != 2:
        raise IoError("not a model file: bad magic line")
    if _parse_int(magic[1]) != FORMAT_VERSION:
        raise IoError(f"unsupported model format version {magic[1]}")
    kind = lines.payload("str", "kind")
    n_features = _read_int(lines, "n_features")
    if n_features < 0:
        raise IoError(f"negative n_features {n_features}")
    cls = REGISTRY.get(kind)
    if cls is None:
        raise IoError(f"unknown model kind {kind!r} in model file")
    fields = {name: _FIELDS[tag][1](lines, name) for tag, name in cls.schema}
    lines.end()
    try:
        return cls(**fields, n_features=n_features)
    except (ValueError, ModelError) as exc:
        raise IoError(f"inconsistent {kind} model file: {exc}") from None


def save_model(model, path) -> None:
    write_files([(path, dumps(model))])


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from None
    return loads(text)
