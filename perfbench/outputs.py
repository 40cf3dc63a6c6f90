"""Correctness gate on an emitted output tree.

A run passes when its tree has no ERROR cell, its noise_rmse 0% column
equals the clean RMSE of every model, and its sha256 tree digest equals
the reference stored in references.json for that workload and seed. The
stored digests hold only under the conditions recorded with them (numpy
and scipy versions, BLAS thread variables: GPR and SVR outputs differ in
the last digits between one and two OpenBLAS threads). For a seed or
conditions without a stored digest, the first run in the process becomes
the reference for the rest, and the result says so.
"""

import csv
import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"
TABLES = ("clean_metrics.csv", "noise_rmse.csv", "sensitivity.csv")


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path, size and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def table_problems(root: Path) -> list:
    """ERROR rows and 0%-column mismatches in the emitted tables."""
    problems = []
    for name in TABLES:
        for row in _rows(root / name)[1:]:
            if "ERROR" in row:
                problems.append(f"{name}: ERROR row for {row[0]}")
    clean = {row[0]: row[1] for row in _rows(root / "clean_metrics.csv")[1:]}
    header, *grid = _rows(root / "noise_rmse.csv")
    zero = header.index("0%")
    noisy = {row[0]: row[zero] for row in grid}
    if noisy != clean:
        problems.append(f"noise_rmse 0% column {noisy} != clean rmse {clean}")
    return problems


def load_references(conditions: dict) -> dict:
    """The stored digests if taken under ``conditions``, else an empty set."""
    if REFERENCES.is_file():
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        if refs.get("conditions") == conditions:
            return refs
    return {"conditions": conditions, "digests": {}}


class OutputCheck:
    """Checks every run of one (workload, seed) against one digest."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.source = "references.json" if expected else "first run"

    def problems(self, root: Path) -> tuple:
        """(digest, problems) for one emitted tree; problems empty means pass."""
        problems = table_problems(root)
        digest = tree_digest(root)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"tree digest {digest} != {self.source} {self.expected}")
        return digest, problems
