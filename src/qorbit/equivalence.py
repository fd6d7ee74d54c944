"""Decide local-unitary equivalence of two states, with a witness per verdict.

The decision pipeline is: global spectra (cheapest witness), then the
polynomial invariant fingerprint, then the canonical forms, both on the
pair scaled exactly to a coefficient norm in [0.5, 1) and under one
roundoff budget. On a generic orbit the canonical point is a complete
invariant, so it decides either way; on a non-generic one matching
invariants yield ``inconclusive``. A verdict carries its witness and the
genericity reports, not a local unitary mapping one state to the other.

``oracle_search`` is an independent cross check, run only on request
(``decide`` never calls it): a multi-start local minimization of the conjugation residual over per-site special unitaries,
each parametrized by a 3-vector (axis times angle).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bloch import PAULI, _expand, _flat, _split, _top
from .canonical import GenericityReport, _canonical
from .errors import ShapeMismatch, UnsupportedShape, ValidationError
from .invariants import _fingerprint, _gram_mats, first_disagreement
from .local_action import LocalUnitary
from .states import DensityMatrix, _rng
from .tolerances import COMPARE_RTOL, IDENTICAL_TOL, ORACLE_GTOL, ROUNDOFF_FACTOR, SPECTRUM_TOL


@dataclass(frozen=True)
class Witness:
    """What decided the verdict: an invariant name and the values seen."""

    name: str
    values: tuple[float, ...] | None
    difference: float


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str  # "equivalent" | "distinct" | "inconclusive"
    witness: Witness
    genericity: tuple[GenericityReport, GenericityReport] | None = None

    def payload(self) -> dict:
        out = {
            "verdict": self.verdict,
            "witness": {
                "name": self.witness.name,
                "values": None if self.witness.values is None else list(self.witness.values),
                "difference": self.witness.difference,
            },
        }
        if self.genericity is not None:
            out["genericity"] = [r.payload() for r in self.genericity]
        return out


def _check_pair(rho1: DensityMatrix, rho2: DensityMatrix) -> int:
    if rho1.shape != rho2.shape:
        raise ShapeMismatch(f"shapes differ: {rho1.shape} vs {rho2.shape}")
    if not rho1.shape.is_qubits or rho1.shape.n not in (2, 3):
        raise UnsupportedShape(
            f"equivalence decision covers 2- and 3-qubit states, got {rho1.shape}"
        )
    return rho1.shape.n


def decide(rho1: DensityMatrix, rho2: DensityMatrix,
           rtol: float = COMPARE_RTOL) -> EquivalenceVerdict:
    """Equivalence verdict for two 2- or 3-qubit states.

    Past the spectrum, the pair is scaled by the power of two that puts nu,
    its larger coefficient norm (an orbit invariant), in [0.5, 1). ``rtol``
    (finite, >= 0) is then relative to nu^k for a degree-k invariant and to
    nu for a canonical component, with ``ROUNDOFF_FACTOR``'s budget on top.
    If both genericity reports (judged on the scaled pair) are generic, the
    canonical deviation decides; otherwise matching invariants give
    ``inconclusive``. Witness values and margins are at the input's scale.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValidationError(f"comparison tolerance must be finite and >= 0, got {rtol!r}")
    n = _check_pair(rho1, rho2)

    entry_scale = max(float(np.abs(rho1.matrix).max()), float(np.abs(rho2.matrix).max()))
    ident_dev = float(np.abs(rho1.matrix - rho2.matrix).max())
    if ident_dev <= IDENTICAL_TOL * entry_scale:
        return EquivalenceVerdict("equivalent", Witness("identical", None, ident_dev))

    spectra = rho1.eigenvalues(), rho2.eigenvalues()
    spec_diff = float(np.abs(spectra[0] - spectra[1]).max())
    if spec_diff > SPECTRUM_TOL:
        return EquivalenceVerdict("distinct", Witness("spectrum", None, spec_diff))

    # Both states as one batch of two; each state's Gram matrices feed its invariants and its gauge.
    coeffs = _expand(np.array((rho1.matrix, rho2.matrix)), n)
    nu = max(math.hypot(*row) for row in coeffs.tolist())
    if nu == 0.0:  # the states differ only in anti-Hermitian roundoff, which the expansion drops
        return EquivalenceVerdict("equivalent", Witness("identical", None, ident_dev))
    e = math.frexp(nu)[1]
    nu = math.ldexp(nu, -e)
    # The input's rounding: eps times its entries, bounded in any gauge by the top eigenvalue.
    top = max(float(spectra[0][-1]), float(spectra[1][-1]))
    roundoff = ROUNDOFF_FACTOR * sys.float_info.epsilon * max(nu, math.ldexp(top, -e))
    parts = _split(np.ldexp(coeffs, -e), n)
    g = _gram_mats(_top(parts))
    family, (inv1, inv2) = _fingerprint(parts, g, n)
    bad = first_disagreement(inv1, inv2, family.DEGREES, nu, rtol=rtol + roundoff / nu)
    if bad is not None:
        k = family.DEGREES[bad] * e
        values = math.ldexp(inv1[bad], k), math.ldexp(inv2[bad], k)
        return EquivalenceVerdict("distinct", Witness(family.NAMES[bad], values, abs(values[0] - values[1])))

    canonical, _, reports = _canonical(parts, n, g)
    at_input = tuple(report._scaled(e) for report in reports)
    if not (reports[0].generic and reports[1].generic):
        return EquivalenceVerdict("inconclusive", Witness("non-generic", None, 0.0), at_input)
    points = _flat(canonical)
    deviation = float(np.abs(points[0] - points[1]).max())
    relgap = min(gap / trace for r in reports for gap, trace in zip(r.eigengaps, r.gram_traces) if gap is not None)
    verdict = "equivalent" if deviation <= roundoff * (1.0 + 1.0 / relgap) + rtol * nu else "distinct"
    return EquivalenceVerdict(verdict, Witness("canonical", None, math.ldexp(deviation, e)), at_input)


@dataclass(frozen=True)
class OracleResult:
    residual: float
    unitary: LocalUnitary
    spectral_lower_bound: float
    restarts_used: int


def _su2(v: np.ndarray) -> np.ndarray:
    """exp(-i v.sigma / 2): rotation by |v| about the axis v."""
    theta = float(np.linalg.norm(v))
    c = np.cos(theta / 2.0)
    # sin(theta/2) / theta, accurate down to theta = 0.
    g = 0.5 * np.sinc(theta / (2.0 * np.pi))
    vs = v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]
    return c * np.eye(2, dtype=complex) - 1j * g * vs


def spectral_lower_bound(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Frobenius distance can never beat the sorted-spectra distance."""
    return float(np.linalg.norm(rho1.eigenvalues() - rho2.eigenvalues()))


def oracle_search(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    restarts: int = 20,
    seed: int = 0,
    stop_residual: float | None = None,
) -> OracleResult:
    """Best local unitary mapping rho1 toward rho2 by multi-start descent.

    Minimizes the Frobenius norm of (U rho1 U^dag - rho2) over per-site
    special unitaries using BFGS with finite-difference gradients; the
    identity is always the first start, the rest are seeded uniform angle
    draws. A large residual is a result, not an error. ``restarts`` must be
    at least 1.
    """
    try:
        restarts = operator.index(restarts)
    except TypeError:
        raise ValidationError(f"oracle restarts must be an integer, got {restarts!r}") from None
    if restarts < 1:
        raise ValidationError(f"oracle needs at least one restart, got {restarts}")
    n = _check_pair(rho1, rho2)
    m1 = rho1.matrix
    m2 = rho2.matrix
    rng = _rng(seed)

    def objective(params: np.ndarray) -> float:
        full = functools.reduce(np.kron, [_su2(params[3 * site:3 * site + 3]) for site in range(n)])
        delta = full @ m1 @ full.conj().T - m2
        return float(np.sum(delta.real**2 + delta.imag**2))

    best_val = np.inf
    best_params = np.zeros(3 * n)
    used = 0
    for restart in range(restarts):
        x0 = np.zeros(3 * n) if restart == 0 else rng.uniform(-np.pi, np.pi, 3 * n)
        result = minimize(objective, x0, method="BFGS",
                          options={"gtol": ORACLE_GTOL, "maxiter": 400})
        used = restart + 1
        if result.fun < best_val:
            best_val = float(result.fun)
            best_params = result.x
        if stop_residual is not None and np.sqrt(max(best_val, 0.0)) <= stop_residual:
            break
    factors = tuple(_su2(best_params[3 * site:3 * site + 3]) for site in range(n))
    return OracleResult(
        residual=float(np.sqrt(max(best_val, 0.0))),
        unitary=LocalUnitary(rho1.shape, factors),
        spectral_lower_bound=spectral_lower_bound(rho1, rho2),
        restarts_used=used,
    )
