"""The package is pure standard-library Python with no floating point and no
pseudo-random numbers."""

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


def _absolute_imports(path: Path) -> set[str]:
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    return imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    outside = sorted(name for name in _absolute_imports(path)
                     if name.split(".")[0] not in sys.stdlib_module_names)
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_random(path):
    # so that every output depends only on the job and the seed
    assert "random" not in {name.split(".")[0] for name in _absolute_imports(path)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    floats = [node.lineno for node in ast.walk(_tree(path))
              if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
              or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float")]
    assert floats == []
