"""Every threshold lives in ``qorbit.tolerances``; the other modules only import it."""

import ast
import pathlib

import pytest

import qorbit

SRC = pathlib.Path(qorbit.__file__).parent

# Threshold names each module still exposes, with their values.
EXPOSED = {
    "states": {"HERMITICITY_RTOL": 1e-12, "TRACE_TOL": 1e-12, "EIGENVALUE_FLOOR": -1e-10},
    "local_action": {"UNITARITY_TOL": 1e-12, "SPECIAL_TOL": 1e-10},
    "invariants": {"COMPARE_RTOL": 1e-8, "COMPARE_ABS_FLOOR": 1e-12},
    "canonical": {"EIGENGAP_RTOL": 1e-8, "COMPONENT_TOL": 1e-8, "SIGN_INVARIANT_TOL": 1e-24},
    "equivalence": {"SPECTRUM_TOL": 1e-10, "CANONICAL_TOL": 1e-6, "IDENTICAL_TOL": 1e-14},
    "orbit_dim": {"RANK_RTOL": 1e-9},
    "reconstruction": {
        "NEGATIVE_SQUARE_HARD": -1e-6,
        "DIAGONALITY_RTOL": 1e-6,
        "SIGN_CONSISTENCY_RTOL": 1e-6,
        "VANDER_DET_RTOL": 1e-10,
        "DET_PRODUCT_RTOL": 1e-8,
        "EIGENGAP_RTOL": 1e-8,
        "SIGN_INVARIANT_TOL": 1e-24,
    },
}

# Division-by-zero guards, not thresholds.
GUARD = 1e-300


def small_float_literals(path):
    tree = ast.parse(path.read_text())
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-2
        and node.value != GUARD
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "tolerances.py"), ids=lambda p: p.name
)
def test_no_threshold_literal_outside_tolerances(path):
    assert small_float_literals(path) == []


@pytest.mark.parametrize("module", sorted(EXPOSED))
def test_old_paths_resolve_to_the_same_values(module):
    from qorbit import tolerances

    mod = getattr(qorbit, module)
    for name, value in EXPOSED[module].items():
        assert getattr(mod, name) == value == getattr(tolerances, name)


def test_every_threshold_is_read_somewhere():
    from qorbit import tolerances

    names = [n for n in vars(tolerances) if n.isupper()]
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "tolerances.py":
            used |= {n.id for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Name)}
    assert sorted(set(names) - used) == []
