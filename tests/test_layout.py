"""Only ``bloch`` knows the Bloch component layout.

Every other qorbit module reads a batch of components through ``bloch``'s
helpers (``_split``, ``_flat``, ``_site_vectors``, ``_top``, ``_rotate``),
so none of them may hold a component name, or the ``pair_`` prefix that
builds one, as a string constant. Docstrings may name components.
"""

import ast
import pathlib

import pytest

import qorbit

SRC = pathlib.Path(qorbit.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "bloch.py")
LAYOUT_STRINGS = {"alpha", "beta", "gamma", "pair_12", "pair_13", "pair_23", "triple", "pair_"}


def layout_strings(source: str) -> list[str]:
    """``line value`` of each string constant of source, docstrings aside, that names a component."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    found = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in LAYOUT_STRINGS and id(node) not in docstrings
    ]
    return [f"{node.lineno} {node.value}" for node in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


def test_modules_found():
    assert "invariants.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_bloch_names_components(path):
    assert layout_strings(path.read_text()) == []


def test_layout_string_is_caught():
    source = (
        '"""Reads alpha from the tensor."""\n'
        "def f(parts, key):\n"
        '    """The "triple" block."""\n'
        '    return parts["triple"], parts["pair_" + key], getattr(parts, "gamma")\n'
        "x = 'alphabet'\n"
    )
    assert layout_strings(source) == ["4 triple", "4 pair_", "4 gamma"]
