"""Every name a qorbit module imports is read in that module.

A deletion that leaves an import behind (a table that replaced the names,
a helper that moved) fails here. ``__init__.py`` imports only to re-export,
so it is not checked.
"""

import ast
import pathlib

import pytest

import qorbit

SRC = pathlib.Path(qorbit.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """``line name`` of each imported name that no expression of source reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unread += [f"{node.lineno} {name}" for name in names if name not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_unread_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .invariants import FAMILIES, NAMES2\n"
        "def f(x: np.ndarray):\n"
        "    return FAMILIES[x.ndim]\n"
    )
    assert unread_imports(source) == ["3 os", "4 NAMES2"]
