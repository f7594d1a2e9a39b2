"""The package runs on the standard library alone: every import in
``src/traceloc``, function-local ones included, names a standard-library
module or ``traceloc`` itself, and ``pyproject.toml`` declares no runtime
dependency.  No module uses another module's ``_``-prefixed names.  Nor
does the package carry code for the tests alone: every function and class
it defines at module level is named by the package or the benchmark.
Each module imports first, in a fresh interpreter: no import cycle."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "traceloc").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_uses_no_private_name_of_another_module(path):
    """A ``_``-prefixed name stays in the module that defines it: no module
    imports one from another ``traceloc`` module, or reads one off a
    ``traceloc`` module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "traceloc")
    ]
    modules = {
        alias.asname or alias.name
        for node in imports if node.module in (None, "traceloc") for alias in node.names
    }
    private = [
        f"{node.module or '.'} import {alias.name}"
        for node in imports for alias in node.names if alias.name.startswith("_")
    ] + [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert not private, f"{path.name} uses private names of other modules: {private}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_first_in_a_fresh_interpreter(path):
    """No import cycle: whichever module a caller loads first imports (the
    shared test setup has ``geo`` and ``refine`` loaded before any test)."""
    module = "traceloc" if path.stem == "__init__" else f"traceloc.{path.stem}"
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def top_level_names(path: Path) -> list[tuple[str | None, set[str]]]:
    """Per module-level statement of ``path``: the function or class it
    defines (None for any other statement), and every identifier it names,
    as a variable, an attribute, an imported name or a whole string."""
    statements = []
    for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        defines = getattr(stmt, "name", None)
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        statements.append((defines, names))
    return statements


def test_every_definition_is_used_outside_the_tests():
    statements = [
        (path, defines, names)
        for path in SOURCES + PERFBENCH
        for defines, names in top_level_names(path)
    ]
    unused = [
        f"{path.stem}.{defines}"
        for i, (path, defines, _) in enumerate(statements)
        if path in SOURCES and defines is not None
        and not any(defines in names for j, (_, _, names) in enumerate(statements) if j != i)
    ]
    assert not unused, f"defined in src/traceloc but named only by the tests: {unused}"
