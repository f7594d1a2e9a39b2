"""The package runs on the standard library alone: every import in
``src/traceloc``, function-local ones included, names a standard-library
module or ``traceloc`` itself, and ``pyproject.toml`` declares no runtime
dependency."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "traceloc").glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """The top-level module of each absolute import anywhere in ``path``;
    a relative import counts as ``traceloc``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("traceloc" if node.level else node.module.partition(".")[0])
    return names


def test_sources_found():
    assert ROOT / "src" / "traceloc" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = imported_modules(path) - set(sys.stdlib_module_names) - {"traceloc"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
