"""Committed golden runs: catch numeric drift across code changes.

``tests/data/golden/sweep/`` is the emitted tree of a small all-kinds
noise sweep (``synth_n=600``, seed 42) and ``versions.json`` records the
numpy and scipy versions that wrote every tree. The test regenerates the
sweep in a fresh process with no BLAS thread variable set. GPR and MLPR
bytes depend on the thread count, so this checks that ``import pvfdi``
pins one BLAS thread by itself.

Each other directory is one config of ``MATRIX``: CLI runs that pin the
option paths the default sweep leaves out. A path that moves the same
way in every mode passes the tests that compare the code with itself
(pool against serial, rerun against run); it fails here.

Under the recorded versions the trees must match byte for byte. Under
other versions the file set, every non-numeric token and every CSV shape
must match exactly, and numeric tokens must agree to ``RTOL``; the test
warns which comparison ran.

Rewrite the golden files (only on code known to be right) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
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

import pvfdi
from pvfdi.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
RTOL = 1e-9
ATOL = 1e-12  # numbers this close to zero carry no relative precision

GENERATE = """\
import sys
from pvfdi.experiment import ExperimentConfig, emit_report, run_noise_sweep
emit_report(run_noise_sweep(ExperimentConfig(synth_n=600, seed=42)), sys.argv[1])
"""

# config name -> its (exit code, CLI command) runs. Every config runs in
# one working directory holding the files ``write_inputs`` makes, and
# writes its tree under its own name; commands split on spaces.
MATRIX = {
    # repeat averaging over unsorted fractions; the noisy series is
    # repeat 0 of the largest fraction
    "repeats": [(0, "sweep --n 200 --seed 5 --models LR,KNN,DT --fractions 0,0.5,0.1,1"
                    " --repeats 3 --out repeats")],
    # noise on POWER alone leaves every prediction clean
    "power": [(0, "sweep --n 200 --seed 6 --models LR,GBRT --noise-target power"
                  " --fractions 0,0.3,1 --out power")],
    # both targets on a column subset, predictions clipped to [0, 1]
    "both": [(0, "sweep --n 200 --seed 7 --models LR,KNN,DT --noise-target both"
                 " --noise-columns ssrd,tcc --clamp-predictions --out both")],
    # a duplicate kind (KNN.2), [model.*] sections (an SVR kernel cache of
    # two rows, which evicts) and a diverging MLPR's ERROR rows
    "models": [(3, "sweep --n 200 --seed 8 --models KNN,KNN,SVR,MLPR,LASSO"
                   " --config models.ini --out models")],
    # a CSV with a TIMESTAMP column and '#' lines; report rewrites the
    # sensitivity table from the sweep's grid
    "csv": [(0, "sweep --data stamped.csv --models LR,GPR --fractions 0,0.2,1 --out csv/sweep"),
            (0, "report --data csv/sweep --out csv/report")],
    # a constant POWER: LR's clean RMSE is 0, so its sensitivity row reads ERROR
    "constant": [(3, "sweep --data constant.csv --models LR,MLPR --out constant/sweep"),
                 (0, "report --data constant/sweep --out constant/report")],
    "bench": [(0, "bench --n 200 --seed 9 --models LR,KNN,GPR,DT --out bench")],
    # every model fails, and the grid still has its fraction columns
    "all-failed": [(3, "sweep --n 60 --models LR --noise-mean 1e308 --out all-failed/sweep"),
                   (0, "report --data all-failed/sweep --out all-failed/report")],
}


def write_inputs():
    """Write the matrix's input files into the working directory."""
    Path("models.ini").write_text(
        "[model.KNN]\nk = 3\n[model.SVR]\ncache_mb = 0.001\n[model.MLPR]\nlearning_rate = 1e300\n")
    data = pvfdi.synth_generate(200, 11)
    stamps = [f"2014-04-{1 + i // 24:02d} {i % 24:02d}:00" for i in range(len(data))]
    pvfdi.save_csv(pvfdi.Dataset(data.features, data.power, timestamps=stamps),
                   "stamped.csv", header_comment="golden matrix input")
    lines = Path("stamped.csv").read_text().splitlines(keepends=True)
    lines.insert(100, "# a gap in the record\n")
    Path("stamped.csv").write_text("".join(lines))
    data = pvfdi.synth_generate(60, 1)
    pvfdi.save_csv(data.replace(power=np.full(len(data), 0.5)), "constant.csv")


def run_matrix(work):
    """Write the inputs into ``work`` and run every MATRIX command there."""
    os.chdir(work)
    write_inputs()
    for runs in MATRIX.values():
        for code, command in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                got = main(command.split())
            if got != code:
                raise SystemExit(f"{command!r} exited {got}, not {code}:\n{err.getvalue()}")


def generate_matrix(work: Path):
    """Run the matrix in ``work`` from a fresh process with one BLAS thread."""
    run = f"import sys; sys.path.insert(0, {str(ROOT / 'tests')!r}); " \
          "import test_golden; test_golden.run_matrix(sys.argv[1])"
    subprocess.run([sys.executable, "-c", run, str(work)],
                   env=child_env(**ONE_THREAD), check=True, timeout=300)


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ONE_THREAD = dict.fromkeys(THREAD_VARIABLES, "1")


def child_env(**values) -> dict:
    """This environment without the BLAS thread variables, plus ``values``,
    with the source tree first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(values)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def generate(out_dir: Path):
    """Emit the golden sweep into ``out_dir`` from a fresh process that sets
    no BLAS thread count, so pvfdi's own default applies."""
    subprocess.run([sys.executable, "-c", GENERATE, str(out_dir)],
                   env=child_env(), check=True, timeout=300)


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


def assert_reproduces(name: str, out_dir: Path):
    """``out_dir`` holds the tree of ``tests/data/golden/<name>/``."""
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    expected = tree_files(GOLDEN / name)
    actual = tree_files(out_dir)
    if {k: recorded[k] for k in ("numpy", "scipy")} == versions():
        changed = [file for file in expected if actual.get(file) != expected[file]]
        assert sorted(actual) == sorted(expected)
        assert changed == [], f"byte comparison: {changed} differ from the golden run"
    else:
        warnings.warn(
            f"golden run recorded under {recorded}, running {versions()}: compared "
            f"structure exactly and numbers to rtol={RTOL}, not bytes")
        assert tolerance_mismatches(expected, actual) == []


def test_golden_sweep_reproduces(tmp_path):
    generate(tmp_path)
    assert_reproduces("sweep", tmp_path)


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("matrix")
    generate_matrix(work)
    return work


@pytest.mark.parametrize("name", MATRIX)
def test_golden_matrix_reproduces(matrix_run, name):
    assert_reproduces(name, matrix_run / name)


def test_import_keeps_a_thread_count_the_environment_sets():
    probe = ("import os, pvfdi; print(os.environ['OPENBLAS_NUM_THREADS'], "
             "os.environ['OMP_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(OPENBLAS_NUM_THREADS="2"),
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["2", "1"]


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
    import tempfile

    shutil.rmtree(GOLDEN / "sweep", ignore_errors=True)
    generate(GOLDEN / "sweep")
    with tempfile.TemporaryDirectory() as work:
        generate_matrix(Path(work))
        for name in MATRIX:
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(Path(work) / name, GOLDEN / name)
    record = {**versions(), "threads": 1, "python": sys.version.split()[0]}
    (GOLDEN / "versions.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
