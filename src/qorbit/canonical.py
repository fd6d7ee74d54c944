"""Canonical gauge for generic 2- and 3-qubit Bloch tensors.

Three qubits: rotate each site into the eigenframe of its Gram matrix
(eigenvalues decreasing), which leaves a per-site Klein four-group of even
sign flips undetermined; that residual is fixed by the unique element
making all components of the site's Bloch vector share one sign. Two
qubits: a det-+1 signed singular value decomposition diagonalizes the
pair matrix, and the 16-element product of the two Klein groups is
resolved by exhaustive lexicographic minimization.

On a generic orbit the resulting point is unique, so two states are
locally equivalent exactly when their canonical tensors coincide.
Degeneracy (coincident Gram eigenvalues, vanishing vector components or
sign invariants) is reported, never raised: the best-effort point comes
back with ``generic = False``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochTensor, bloch_payload
from .errors import UnsupportedShape
from .invariants import GramTriple, _sign_invariant, gram
from .local_action import RotationTriple, transform_bloch
from .tolerances import COMPONENT_TOL, EIGENGAP_RTOL, KLEIN_SIGN_RTOL, SIGN_INVARIANT_TOL

KLEIN = (
    np.eye(3),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
)
_KLEIN_DIAGONALS = tuple(tuple(np.diag(k).tolist()) for k in KLEIN)
# The diagonals of the first and second factor of each KLEIN x KLEIN pair, in product order.
_KLEIN_FIRST = np.repeat(_KLEIN_DIAGONALS, 4, axis=0)
_KLEIN_SECOND = np.tile(_KLEIN_DIAGONALS, (4, 1))


@dataclass(frozen=True)
class GenericityReport:
    """Margins certifying that the canonical construction is well posed.

    Per-site entries are None where a site has no such margin (n = 2 has
    no third Gram matrix). ``generic`` is True when every present margin
    clears its threshold: eigengaps relative to the Gram trace, component
    minima absolutely, sign invariants on a degree-9 absolute scale.
    """

    n: int
    eigengaps: tuple[float | None, ...]
    gram_traces: tuple[float | None, ...]
    min_components: tuple[float | None, ...]
    sign_invariants: tuple[float | None, ...]
    generic: bool

    def payload(self) -> dict:
        return {
            "n": self.n,
            "eigengaps": list(self.eigengaps),
            "gram_traces": list(self.gram_traces),
            "min_components": list(self.min_components),
            "sign_invariants": list(self.sign_invariants),
            "generic": bool(self.generic),
        }


@dataclass(frozen=True)
class CanonicalPoint:
    """A Bloch tensor in canonical gauge, the gauge used, and its report."""

    tensor: BlochTensor
    gauge: RotationTriple
    report: GenericityReport


def _gap_and_trace(spectrum: np.ndarray) -> tuple[float, float]:
    """The smallest gap and the trace of a decreasing 3-spectrum."""
    s0, s1, s2 = spectrum.tolist()
    # np.sum's order, signed zeros included
    return min(s0 - s1, s1 - s2), 0.0 + s0 + s1 + s2


def _report_from_gram(g: GramTriple, vectors: list[np.ndarray]) -> GenericityReport:
    """Margins from Gram eigen data plus site vectors in eigenframe gauge."""
    n = g.n
    gaps: list[float | None] = [None, None, None]
    traces: list[float | None] = [None, None, None]
    mins: list[float | None] = [None, None, None]
    signs: list[float | None] = [None, None, None]
    generic = True
    for site in range(n):
        gaps[site], traces[site] = _gap_and_trace(g.spectra[site])
        mins[site] = min(map(abs, vectors[site].tolist()))
        signs[site] = abs(_sign_invariant(vectors[site], np.diag(g.spectra[site])))
        generic = generic and (
            gaps[site] > EIGENGAP_RTOL * traces[site]
            and mins[site] > COMPONENT_TOL
            and signs[site] > SIGN_INVARIANT_TOL
        )
    return GenericityReport(
        n=n,
        eigengaps=tuple(gaps),
        gram_traces=tuple(traces),
        min_components=tuple(mins),
        sign_invariants=tuple(signs),
        generic=generic,
    )


def _frame_vectors(t: BlochTensor, g: GramTriple) -> list[np.ndarray]:
    """Site vectors rotated into their Gram eigenframes."""
    return [f.T @ v for f, v in zip(g.frames, (t.alpha, t.beta, t.gamma))]


def genericity(t: BlochTensor) -> GenericityReport:
    """Report the genericity margins of a tensor without moving it.

    Component minima are evaluated at the canonical point (vectors rotated
    into the Gram eigenframes); all reported quantities are orbit
    invariants.
    """
    if t.n not in (2, 3):
        raise UnsupportedShape(f"genericity is defined for n=2 or 3, got n={t.n}")
    g = gram(t)
    return _report_from_gram(g, _frame_vectors(t, g))


def _signs(vec, tol: float) -> tuple[float, ...]:
    return tuple(0.0 if abs(v) <= tol else (1.0 if v > 0 else -1.0) for v in vec)


def _uniform_sign_element(vec: np.ndarray) -> np.ndarray:
    """The Klein element making all (nonzero) components share one sign.

    Unique when every component is nonzero; with zero components, zeros
    act as wildcards and the first matching element in the fixed KLEIN
    order is taken, which keeps the choice deterministic.
    """
    values = vec.tolist()
    signs = _signs(values, KLEIN_SIGN_RTOL * (1.0 + max(map(abs, values))))
    for k, flips in zip(KLEIN, _KLEIN_DIAGONALS):
        # A Klein element only flips signs, so k @ vec has these sign patterns.
        nonzero = {f * v for f, v in zip(flips, signs) if v != 0.0}
        if len(nonzero) <= 1:
            return k
    raise AssertionError("unreachable: some Klein element always aligns signs")


def canonicalize3(t: BlochTensor) -> CanonicalPoint:
    """Move a three-qubit tensor to the canonical point of its orbit.

    Diagonalizes the three Gram matrices by per-site special orthogonal
    eigenframes (eigenvalues decreasing), then applies the per-site Klein
    element that makes alpha, beta, gamma each uniform in sign. Orbit
    uniqueness holds on generic inputs; otherwise the best-effort point is
    returned with ``generic = False`` in the report.
    """
    if t.n != 3:
        raise UnsupportedShape(f"canonicalize3 needs n=3, got n={t.n}")
    g = gram(t)
    klein = [_uniform_sign_element(v) for v in _frame_vectors(t, g)]
    # One composed transform, so replaying the gauge reproduces the
    # canonical tensor bit for bit.
    gauge = RotationTriple(tuple(k @ f.T for k, f in zip(klein, g.frames)))
    canonical = transform_bloch(t, gauge)
    report = _report_from_gram(g, [canonical.alpha, canonical.beta, canonical.gamma])
    return CanonicalPoint(tensor=canonical, gauge=gauge, report=report)


def canonicalize2(t: BlochTensor) -> CanonicalPoint:
    """Move a two-qubit tensor to the canonical point of its orbit.

    The pair matrix is diagonalized by a signed SVD with both factors in
    SO(3) (any sign deficit is pushed into the last diagonal entry, so the
    diagonal is sorted by decreasing magnitude). The residual Klein x
    Klein gauge is fixed by the exhaustive lexicographic minimum of the
    key (sign pattern of alpha, of beta, of the diagonal) over all 16
    elements, the first in element order on ties.
    """
    if t.n != 2:
        raise UnsupportedShape(f"canonicalize2 needs n=2, got n={t.n}")
    u, s, vt = np.linalg.svd(t.pair_12)
    du = float(np.sign(np.linalg.det(u))) or 1.0
    dv = float(np.sign(np.linalg.det(vt))) or 1.0
    # C-ordered copies, as RotationTriple holds them, so the SVD point's
    # blocks below carry transform_bloch's bits.
    r1 = np.array((u @ np.diag([1.0, 1.0, du])).T)
    r2 = np.array((vt.T @ np.diag([1.0, 1.0, dv])).T)
    alpha, beta, pair = r1 @ t.alpha, r2 @ t.beta, r1 @ t.pair_12 @ r2.T
    tol = KLEIN_SIGN_RTOL * (1.0 + float(np.abs(np.concatenate((alpha, beta, pair), axis=None)).max()))
    sa, sb, sd = (np.array(_signs(v, tol)) for v in (alpha, beta, np.diag(pair)))
    # Klein elements flip signs exactly, so row 4i + j holds the key of
    # (KLEIN[i], KLEIN[j]). lexsort is stable and sorts by its last key
    # first, so its [0] is the first smallest key.
    keys = np.hstack((_KLEIN_FIRST * sa, _KLEIN_SECOND * sb, _KLEIN_FIRST * _KLEIN_SECOND * sd))
    best = int(np.lexsort(keys.T[::-1])[0])
    gauge = RotationTriple((KLEIN[best // 4] @ r1, KLEIN[best % 4] @ r2))
    canonical = transform_bloch(t, gauge)
    g = gram(canonical)
    report = _report_from_gram(g, [canonical.alpha, canonical.beta])
    return CanonicalPoint(tensor=canonical, gauge=gauge, report=report)


def canonicalize(t: BlochTensor) -> CanonicalPoint:
    """Dispatch to the 2- or 3-qubit canonical construction."""
    if t.n == 2:
        return canonicalize2(t)
    if t.n == 3:
        return canonicalize3(t)
    raise UnsupportedShape(f"canonical forms cover n=2 or 3, got n={t.n}")


def canonical_payload(point: CanonicalPoint) -> dict:
    payload = bloch_payload(point.tensor)
    payload["gauge"] = [m.tolist() for m in point.gauge.mats]
    payload["report"] = point.report.payload()
    return payload
