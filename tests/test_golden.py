"""Committed golden sweep: catches numeric drift across code changes.

``tests/data/golden/sweep/`` is the emitted tree of a small all-kinds
noise sweep (``synth_n=600``, seed 42) and ``versions.json`` records the
numpy and scipy versions that wrote it. The test regenerates the tree in
a fresh process pinned to one BLAS thread, because GPR and MLPR bytes
depend on the thread count.

Under the recorded versions the trees must match byte for byte. Under
other versions the file set, every non-numeric token and every CSV shape
must match exactly, and numeric tokens must agree to ``RTOL``; the test
warns which comparison ran.

Rewrite the golden files (only on code known to be right) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
RTOL = 1e-9
ATOL = 1e-12  # numbers this close to zero carry no relative precision

GENERATE = """\
import sys
from pvfdi.experiment import ExperimentConfig, emit_report, run_noise_sweep
emit_report(run_noise_sweep(ExperimentConfig(synth_n=600, seed=42)), sys.argv[1])
"""

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def generate(out_dir: Path):
    """Emit the golden sweep into ``out_dir`` from a fresh one-thread process."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", GENERATE, str(out_dir)],
                   env=env, check=True, timeout=300)


def tree_files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _split_numbers(text: str):
    """(non-numeric skeleton, numeric tokens) of one file's text."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def tolerance_mismatches(expected: dict, actual: dict) -> list:
    """Names of files whose structure differs or whose numbers disagree.

    Numbers printed with a fixed number of decimals (the aligned
    report.txt) may also differ by one unit in their last place, since a
    change below RTOL can still flip their rounding.
    """
    if sorted(expected) != sorted(actual):
        return [f"file set: {sorted(set(expected) ^ set(actual))}"]
    bad = []
    for name in expected:
        want_skeleton, want = _split_numbers(expected[name].decode())
        got_skeleton, got = _split_numbers(actual[name].decode())
        if want_skeleton != got_skeleton or len(want) != len(got):
            bad.append(f"{name}: structure")
            continue
        for w, g in zip(want, got):
            if w == g:
                continue
            a, b = float(w), float(g)
            decimals = len(w.partition(".")[2]) if "e" not in w.lower() else 0
            slack = 10.0 ** -decimals if name.endswith(".txt") and decimals else 0.0
            if not np.isclose(b, a, rtol=RTOL, atol=ATOL + slack):
                bad.append(f"{name}: {w} != {g}")
                break
    return bad


def test_golden_sweep_reproduces(tmp_path):
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    generate(tmp_path)
    expected = tree_files(GOLDEN / "sweep")
    actual = tree_files(tmp_path)
    if {k: recorded[k] for k in ("numpy", "scipy")} == versions():
        changed = [name for name in expected if actual.get(name) != expected[name]]
        assert sorted(actual) == sorted(expected)
        assert changed == [], f"byte comparison: {changed} differ from the golden run"
    else:
        warnings.warn(
            f"golden run recorded under {recorded}, running {versions()}: compared "
            f"structure exactly and numbers to rtol={RTOL}, not bytes")
        assert tolerance_mismatches(expected, actual) == []


def test_tolerance_comparison_tells_drift_from_rounding():
    base = {"a.csv": b"model,rmse\nLR,0.125\n", "report.txt": b"LR  0.125000\n"}
    assert tolerance_mismatches(base, dict(base)) == []
    close = {"a.csv": b"model,rmse\nLR,0.12500000000001\n",
             "report.txt": b"LR  0.125001\n"}
    assert tolerance_mismatches(base, close) == []
    assert tolerance_mismatches(base, {**base, "a.csv": b"model,rmse\nLR,0.1251\n"})
    assert tolerance_mismatches(base, {**base, "a.csv": b"model,mse\nLR,0.125\n"})
    assert tolerance_mismatches(base, {**base, "a.csv": b"model,rmse\nLR,0.125,1\n"})
    assert tolerance_mismatches(base, {"a.csv": base["a.csv"]})


if __name__ == "__main__":
    import shutil

    shutil.rmtree(GOLDEN / "sweep", ignore_errors=True)
    generate(GOLDEN / "sweep")
    record = {**versions(), "threads": 1, "python": sys.version.split()[0]}
    (GOLDEN / "versions.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
