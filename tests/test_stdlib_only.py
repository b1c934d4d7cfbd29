"""The package is pure standard-library Python with no floating point."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lenumbers"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = sorted(name for name in imported
                     if name.split(".")[0] not in sys.stdlib_module_names)
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    floats = [node.lineno for node in ast.walk(_tree(path))
              if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
              or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float")]
    assert floats == []
