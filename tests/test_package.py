"""The package's surface: what each module exports, and what it takes from its siblings."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pvfdi

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
