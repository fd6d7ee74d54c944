"""Output checks that need no qorbit import (the runner uses them too)."""

from __future__ import annotations

import json
import os

import numpy as np

COMPONENTS3 = ("alpha", "beta", "gamma", "pair_12", "pair_13", "pair_23", "triple")
ORACLE_RESIDUAL = 1e-6
# Criterion 6's tolerance, scaled by the largest canonical coefficient so
# that depolarized states (tiny coefficients) do not pass vacuously.
ROUND_TRIP_RTOL = 1e-5
EXIT_FOR_VERDICT = {"equivalent": 0, "distinct": 1, "inconclusive": 2}
GENERIC_COUNT_222 = 54


def tensor_deviation(rebuilt: dict, canonical: dict) -> tuple[float, float]:
    """Largest component difference, and the largest canonical coefficient."""
    a = np.concatenate([np.ravel(rebuilt[k]) for k in COMPONENTS3])
    b = np.concatenate([np.ravel(canonical[k]) for k in COMPONENTS3])
    return float(np.max(np.abs(a - b))), float(np.max(np.abs(b)))


def round_trip_holds(rebuilt_text: str, canonical_text: str) -> bool:
    deviation, scale = tensor_deviation(json.loads(rebuilt_text), json.loads(canonical_text))
    return deviation <= ROUND_TRIP_RTOL * scale


def cli_ok(command: str, exit_code: int, stdout: str, workdir: str) -> bool:
    """Exit code and output of a real CLI process on the on-orbit CLI pair."""
    if command == "count":
        return exit_code == 0 and stdout.strip() == str(GENERIC_COUNT_222)
    if command == "equiv":
        try:
            verdict = json.loads(stdout)["verdict"]
        except (ValueError, KeyError):
            return False
        return exit_code == EXIT_FOR_VERDICT.get(verdict) and verdict != "distinct"
    with open(os.path.join(workdir, "cli_a.canon.json"), encoding="utf-8") as fh:
        canonical = fh.read()
    return exit_code == 0 and round_trip_holds(stdout, canonical)
