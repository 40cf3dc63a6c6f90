"""The package's surface: what each module exports, and what it takes from its siblings."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pvfdi
from pvfdi.regressors import gpr
from tests.test_golden import child_env

SRC = Path(pvfdi.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["pvfdi"] + sorted(m.name for m in pkgutil.walk_packages(pvfdi.__path__, "pvfdi."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def private_imports(path: Path) -> list:
    """``file:line name`` of each ``_name`` (not ``__name__``) a pvfdi import takes."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "pvfdi":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno} {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    assert [hit for path in sorted(SRC.rglob("*.py")) for hit in private_imports(path)] == []


def test_readme_library_list_is_the_top_level_exports():
    text = README.read_text(encoding="utf-8")
    start = text.index("`pvfdi.__all__` holds exactly these names:")
    block = text[start:text.index("\n\n", text.index("\n- ", start))]
    listed = re.findall(r"`(\w+)`", block.split("\n", 1)[1])
    assert sorted(listed) == sorted(pvfdi.__all__)


@pytest.mark.parametrize("run", [
    "import pvfdi",
    "from pvfdi.cli import main; assert main(['synth', '--n', '60', '--out', sys.argv[1]]) == 0",
])
def test_start_up_leaves_scipy_linalg_unloaded(tmp_path, run):
    # GPR reaches LAPACK through the OpenBLAS that scipy vendors; where it
    # vendors none, gpr imports scipy.linalg.lapack instead
    if gpr._openblas_lapack() is None:
        pytest.skip("this scipy vendors no OpenBLAS with scipy_dpotrf_ and scipy_dpotrs_")
    check = f"import sys; {run}; assert 'scipy.linalg' not in sys.modules"
    subprocess.run([sys.executable, "-c", check, str(tmp_path / "data.csv")],
                   env=child_env(), check=True, timeout=120)


MAPS_SCIPY_OPENBLAS = "'scipy.libs/libscipy_openblas' in open('/proc/self/maps').read()"


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/self/maps")
def test_only_a_gpr_fit_maps_scipys_openblas():
    # numpy's own OpenBLAS (numpy.libs/libscipy_openblas64_*) is always
    # mapped; scipy's second one is bound on the first factorization
    if gpr._openblas_lapack() is None:
        pytest.skip("this scipy vendors no OpenBLAS with scipy_dpotrf_ and scipy_dpotrs_")
    check = f"""
import numpy as np
import pvfdi
from pvfdi import experiment
from pvfdi.regressors import ModelSpec, fit_gpr
assert not {MAPS_SCIPY_OPENBLAS}
if experiment._worker_count(2) > 1:  # the workers fit GPR; the parent does not
    experiment.run_noise_sweep(experiment.ExperimentConfig(
        synth_n=60, models=(ModelSpec("GPR"), ModelSpec("LR"))))
    assert not {MAPS_SCIPY_OPENBLAS}
fit_gpr(np.eye(3), np.ones(3))
assert {MAPS_SCIPY_OPENBLAS}
"""
    subprocess.run([sys.executable, "-c", check], env=child_env(), check=True, timeout=120)
