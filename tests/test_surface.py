"""README.md documents the package: every export is named there, and its
Python examples run.  Every function and module-level name of the package
has a reader."""

import ast
import re
from pathlib import Path
from types import ModuleType

import lenumbers

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "lenumbers"
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_export_is_named_in_the_readme():
    text = README.read_text(encoding="utf-8")
    exported = [name for name, value in vars(lenumbers).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert exported
    assert [name for name in exported if f"`{name}`" not in text] == []


def test_readme_python_blocks_run_in_order():
    # one namespace, as a reader pasting them into one session would have
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(block, namespace)


def _traced_functions() -> set[tuple[str, str]]:
    """The (module, function) keys of ``SPANNED`` and ``COUNTED`` in the
    benchmark's tracer, read from its source."""
    traced = set()
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and {t.id for t in node.targets} & {"SPANNED", "COUNTED"}:
            traced |= {(key.elts[0].id, key.elts[1].value) for key in node.value.keys}
    return traced


def test_every_package_function_has_a_caller():
    # a module-level function is read somewhere in the package or exported;
    # only mora_reduce is kept by the benchmark's tracer alone, which names it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    kept = used | {name for name in vars(lenumbers) if not name.startswith("__")}
    uncalled = {(module, node.name) for module, tree in trees.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name not in kept}
    assert uncalled == {("localring", "mora_reduce")}
    assert uncalled <= _traced_functions()
    # so is every other module-level name, such as a constant or a sentinel
    assigned = {(module, name.id) for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and not name.id.startswith("__")}
    assert {(module, name) for module, name in assigned if name not in kept} == set()
