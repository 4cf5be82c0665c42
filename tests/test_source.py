"""Checks on the package source itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "conebands").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    # python -O strips assert statements, so none may carry a check
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_imports_are_declared():
    # every module the package imports, lazily or not, is the standard
    # library, the package itself or a declared dependency
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    allowed = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
               for dep in project["dependencies"]}
    allowed |= set(sys.stdlib_module_names) | {project["name"]}
    undeclared = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {name}" for name in names
                           if name.split(".")[0] not in allowed]
    assert undeclared == []
