"""README.md documents the package: every export is named there, and its
Python examples run."""

import re
from pathlib import Path
from types import ModuleType

import lenumbers

README = Path(__file__).resolve().parent.parent / "README.md"


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
