"""The package's public names: everything it exports or documents exists."""

import ast
import importlib
import re
from pathlib import Path

import metaudit

README = Path(__file__).parent.parent / "README.md"


def test_every_name_in_all_resolves():
    assert len(set(metaudit.__all__)) == len(metaudit.__all__)
    for name in metaudit.__all__:
        assert hasattr(metaudit, name), name


def test_names_the_readme_imports_exist():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imported = [
        (node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("metaudit", "run_simulation") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
