"""Decide local-unitary equivalence of two states, with a witness per verdict.

The decision pipeline is: global spectra (cheapest witness), then the
polynomial invariant fingerprint under a degree-aware tolerance, then the
canonical forms. Both states are canonicalized once, and their points are
compared only when both genericity reports (which travel with the points)
certify a generic orbit. Matching invariants on a non-generic orbit yield
``inconclusive`` -- the canonical construction carries no uniqueness
guarantee there. A verdict carries its witness and those reports, not a
local unitary mapping one state to the other.

``oracle_search`` is an independent cross check, run only on request
(``decide`` never calls it): a multi-start local minimization of the conjugation residual over per-site special unitaries,
each parametrized by a 3-vector (axis times angle).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bloch import PAULI, _expand, _flat, _split, _top
from .canonical import GenericityReport, _canonical
from .errors import ShapeMismatch, UnsupportedShape, ValidationError
from .invariants import _fingerprint, _gram_mats, coefficient_scale, first_disagreement
from .local_action import LocalUnitary
from .states import DensityMatrix, _rng
from .tolerances import CANONICAL_TOL, COMPARE_RTOL, IDENTICAL_TOL, ORACLE_GTOL, SPECTRUM_TOL


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

    ``distinct`` always names the first differing invariant (or the
    spectrum) as a witness. Past the invariants both tensors are
    canonicalized, and the verdict is gated on the two canonical points'
    genericity reports: ``equivalent`` reports the largest canonical
    component deviation, and a non-generic report gives ``inconclusive``.
    ``rtol`` rescales the degree-aware invariant comparison tolerance; it
    must be finite and at least 0.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValidationError(f"comparison tolerance must be finite and >= 0, got {rtol!r}")
    n = _check_pair(rho1, rho2)

    entry_scale = max(float(np.abs(rho1.matrix).max()), float(np.abs(rho2.matrix).max()))
    ident_dev = float(np.abs(rho1.matrix - rho2.matrix).max())
    if ident_dev <= IDENTICAL_TOL * max(entry_scale, 1e-300):
        return EquivalenceVerdict(
            verdict="equivalent",
            witness=Witness("identical", None, ident_dev),
        )

    spec_diff = float(np.abs(rho1.eigenvalues() - rho2.eigenvalues()).max())
    if spec_diff > SPECTRUM_TOL:
        return EquivalenceVerdict(
            verdict="distinct",
            witness=Witness("spectrum", None, spec_diff),
        )

    # Both states as one batch of two: each state's Gram matrices feed both
    # its invariants and its canonical gauge.
    coeffs = _expand(np.array((rho1.matrix, rho2.matrix)), n)
    parts = _split(coeffs, n)
    g = _gram_mats(_top(parts))
    family, (inv1, inv2) = _fingerprint(parts, g, n)
    bad = first_disagreement(inv1, inv2, family.DEGREES, coefficient_scale(coeffs), rtol=rtol)
    if bad is not None:
        return EquivalenceVerdict(
            verdict="distinct",
            witness=Witness(
                family.NAMES[bad],
                (float(inv1[bad]), float(inv2[bad])),
                float(abs(inv1[bad] - inv2[bad])),
            ),
        )

    canonical, _, reports = _canonical(parts, n, g)
    if not (reports[0].generic and reports[1].generic):
        return EquivalenceVerdict(
            verdict="inconclusive",
            witness=Witness("non-generic", None, 0.0),
            genericity=reports,
        )
    points = _flat(canonical)
    deviation = float(np.abs(points[0] - points[1]).max())
    # Matching invariants with distant canonical points are numerically
    # contradictory data: refuse to guess.
    return EquivalenceVerdict(
        verdict="equivalent" if deviation <= CANONICAL_TOL else "inconclusive",
        witness=Witness("canonical", None, deviation),
        genericity=reports,
    )


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
