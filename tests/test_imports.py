"""Every module of the package and of the test suite uses each name it imports.

The package's `__init__.py` is left out: its imports are the public API.  A
name counts as used when the module reads it somewhere (a store, such as a
dataclass field of the same name, does not count).
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "indefsaddle"
# package modules by file name, test modules as tests/<file name>
MODULES = {path.name: path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
MODULES.update((f"tests/{path.name}", path) for path in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from math import pi, tau as turn\n"
        "class A:\n"
        "    pi: float\n"
        "sys.exit(turn)\n"
    )
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []
