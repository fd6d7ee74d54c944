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

import functools
import itertools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .bloch import BlochTensor, _flat, _mv, _parts, _rotate, _site_vectors, _tensor, _top, bloch_payload
from .errors import NumericalError, UnsupportedShape
from .invariants import _eigen, _gram_mats, _triple_product
from .local_action import RotationTriple
from .tolerances import COMPONENT_TOL, EIGENGAP_RTOL, KLEIN_SIGN_RTOL, SIGN_INVARIANT_TOL

KLEIN = (
    np.eye(3),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
)
_KLEIN_DIAGONALS = tuple(tuple(np.diag(k).tolist()) for k in KLEIN)
_KLEIN_STACK = np.array(KLEIN)
# Sign pattern (-1, 0 or 1 per component) -> the first KLEIN element making its nonzero signs
# uniform. A Klein element only flips signs, and one always aligns them: flips = s0 s1 s2 *
# signs when no sign is zero, and a zero sign frees its flip.
_ALIGNING = {
    signs: next(k for k, flips in zip(KLEIN, _KLEIN_DIAGONALS)
                if len({f * s for f, s in zip(flips, signs) if s != 0.0}) <= 1)
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=3)
}


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


# The margins of a site, in the order _reports checks them for finiteness, and their degrees.
_MARGINS = ("eigengap", "Gram trace", "smallest component", "sign invariant")
_DEGREES = (2, 2, 1, 9)


def _gap_and_trace(s0: float, s1: float, s2: float) -> tuple[float, float]:
    """The smallest gap and the trace of a decreasing 3-spectrum."""
    # np.sum's order, signed zeros included
    return min(s0 - s1, s1 - s2), 0.0 + s0 + s1 + s2


def _reports(spectra: np.ndarray, vecs: np.ndarray, e: int = 0) -> tuple[GenericityReport, ...]:
    """One report per batch member from site-major Gram spectra (n, B, 3) and site vectors in
    eigenframe gauge (n, B, 3) of the tensors scaled by 2^-e. ``generic`` and finiteness are judged
    on these margins, and each is stored times 2^(ke), exactly: k = 2 for gaps and traces, 1 for
    components, 9 for sign invariants. The first margin of the first member that is not finite (a
    degree-9 sign invariant or a trace out of float range) raises."""
    n = len(spectra)
    # The sign invariant of v under diag(s), with diag(s) v taken as s * v: the
    # matrix product only adds exact zeros, which can change the sign of a zero
    # result and nothing else, and abs() drops that sign.
    with np.errstate(over="ignore", invalid="ignore"):
        signs = np.abs(_triple_product(np.stack((vecs, spectra * vecs, spectra * (spectra * vecs)), axis=-2)))
    reports = []
    for member in zip(spectra.swapaxes(0, 1).tolist(), vecs.swapaxes(0, 1).tolist(), signs.T.tolist()):
        margins = [[None] * 3 for _ in _MARGINS]
        generic = True
        for site, (spectrum, vec, sign) in enumerate(zip(*member)):
            site_margins = (*_gap_and_trace(*spectrum), min(map(abs, vec)), sign)
            if not all(map(math.isfinite, site_margins)):
                name = next(name for name, margin in zip(_MARGINS, site_margins) if not math.isfinite(margin))
                raise NumericalError(f"site {site + 1} {name} is not finite: the tensor's scale overflows it")
            gap, trace, least, _ = site_margins
            generic = generic and gap > EIGENGAP_RTOL * trace and least > COMPONENT_TOL and sign > SIGN_INVARIANT_TOL
            for values, margin, k in zip(margins, site_margins, _DEGREES):
                values[site] = math.ldexp(margin, k * e)
        reports.append(GenericityReport(n, *map(tuple, margins), generic))
    return tuple(reports)


def genericity(t: BlochTensor) -> GenericityReport:
    """Report the genericity margins of a tensor without moving it.

    Component minima are evaluated at the canonical point (vectors rotated
    into the Gram eigenframes); all reported quantities are orbit
    invariants.
    """
    if t.n not in (2, 3):
        raise UnsupportedShape(f"genericity is defined for n=2 or 3, got n={t.n}")
    parts = _parts(t)
    return _genericity(parts, _gram_mats(_top(parts)))[0]


def _genericity(parts: dict, g: np.ndarray) -> tuple[GenericityReport, ...]:
    """The reports of a batch whose Gram stack g is known (see ``genericity``)."""
    spectra, frames = _eigen(g)
    return _reports(spectra, _mv(frames.swapaxes(-1, -2), _site_vectors(parts)))


def _signs(vec, tol: float) -> tuple[float, ...]:
    return tuple(0.0 if abs(v) <= tol else (1.0 if v > 0 else -1.0) for v in vec)


def _uniform_sign_element(vec: np.ndarray) -> np.ndarray:
    """The Klein element making all (nonzero) components share one sign.

    Unique when every component is nonzero; with zero components, zeros
    act as wildcards and the first matching element in the fixed KLEIN
    order is taken, which keeps the choice deterministic.
    """
    values = vec.tolist()
    return _ALIGNING[_signs(values, KLEIN_SIGN_RTOL * (1.0 + max(map(abs, values))))]


@functools.lru_cache(maxsize=None)
def _klein_pair(sa: tuple, sb: tuple, sd: tuple) -> int:
    """4i + j of the first (KLEIN[i], KLEIN[j]) whose flips give the lexicographically smallest
    key (sign patterns of alpha, beta and the diagonal); -0.0 and 0.0 hash and compare equal,
    so at most 3^9 patterns are cached."""
    def key(ij: int) -> list:
        first, second = _KLEIN_DIAGONALS[ij // 4], _KLEIN_DIAGONALS[ij % 4]
        return [*map(mul, first, sa), *map(mul, second, sb), *map(mul, map(mul, first, second), sd)]
    return min(range(16), key=key)


def _canonical3(parts: dict, g: np.ndarray):
    """The canonical gauge of a batch of three-qubit tensors with Gram stack g (3, B, 3, 3).

    Diagonalizes the three Gram matrices by per-site special orthogonal
    eigenframes (eigenvalues decreasing), then applies the per-site Klein
    element that makes alpha, beta, gamma each uniform in sign. Returns
    the canonical components, the site-major gauge (3, B, 3, 3) and the Gram
    spectra (3, B, 3) for ``_reports``; raises the first failing member's error.
    """
    spectra, frames = _eigen(g)
    to_frame = frames.swapaxes(-1, -2)
    klein = np.array([_uniform_sign_element(v) for v in _mv(to_frame, _site_vectors(parts)).reshape(-1, 3)])
    # One composed transform, so replaying the gauge reproduces the
    # canonical tensor bit for bit.
    gauge = klein.reshape(g.shape) @ to_frame
    return _rotate(parts, gauge), gauge, spectra


def _canonical2(parts: dict):
    """The canonical gauge of a batch of two-qubit tensors, returned as by ``_canonical3``.

    The pair matrix is diagonalized by a signed SVD with both factors in
    SO(3) (any sign deficit is pushed into the last diagonal entry, so the
    diagonal is sorted by decreasing magnitude). The residual Klein x
    Klein gauge is fixed by the exhaustive lexicographic minimum of the
    key (sign pattern of alpha, of beta, of the diagonal) over all 16
    elements, the first in element order on ties, looked up per sign
    pattern (``_klein_pair``).
    """
    u, _, vt = np.linalg.svd(_top(parts))
    # C-ordered rotations, as RotationTriple holds them, so the SVD point's
    # blocks below carry the canonical tensor's bits.
    r1 = np.ascontiguousarray((u @ _last_sign(u)).swapaxes(1, 2))
    r2 = np.ascontiguousarray((vt.swapaxes(1, 2) @ _last_sign(vt)).swapaxes(1, 2))
    svd_point = _rotate(parts, np.array((r1, r2)))
    alpha, beta = _site_vectors(svd_point).tolist()
    scales = np.abs(_flat(svd_point)).max(axis=1).tolist()
    best = np.array([
        _klein_pair(*(_signs(v, KLEIN_SIGN_RTOL * (1.0 + scale)) for v in (a, be, d)))
        for a, be, d, scale in zip(alpha, beta, np.diagonal(_top(svd_point), axis1=1, axis2=2).tolist(), scales)
    ])
    gauge = np.array((_KLEIN_STACK[best // 4] @ r1, _KLEIN_STACK[best % 4] @ r2))
    canonical = _rotate(parts, gauge)
    return canonical, gauge, _eigen(_gram_mats(_top(canonical)))[0]


def _last_sign(f: np.ndarray) -> np.ndarray:
    """diag(1, 1, sign det f) per member of a stack of orthogonal matrices (det +-1)."""
    d = np.zeros(f.shape)
    d[:, 0, 0] = d[:, 1, 1] = 1.0
    d[:, 2, 2] = np.sign(np.linalg.det(f))
    return d


def _canonical(parts: dict, n: int, g: np.ndarray | None = None):
    """Dispatch a batch to ``_canonical2`` or ``_canonical3``; g is the Gram stack when known."""
    if n == 2:
        return _canonical2(parts)
    return _canonical3(parts, _gram_mats(_top(parts)) if g is None else g)


def _point(t: BlochTensor) -> CanonicalPoint:
    canonical, gauge, spectra = _canonical(_parts(t), t.n)
    report = _reports(spectra, _site_vectors(canonical))[0]
    return CanonicalPoint(tensor=_tensor(canonical, t.n, 0), gauge=RotationTriple(tuple(gauge[:, 0])),
                          report=report)


def canonicalize3(t: BlochTensor) -> CanonicalPoint:
    """Move a three-qubit tensor to the canonical point of its orbit (see ``_canonical3``).

    Orbit uniqueness holds on generic inputs; otherwise the best-effort
    point is returned with ``generic = False`` in the report.
    """
    if t.n != 3:
        raise UnsupportedShape(f"canonicalize3 needs n=3, got n={t.n}")
    return _point(t)


def canonicalize2(t: BlochTensor) -> CanonicalPoint:
    """Move a two-qubit tensor to the canonical point of its orbit (see ``_canonical2``)."""
    if t.n != 2:
        raise UnsupportedShape(f"canonicalize2 needs n=2, got n={t.n}")
    return _point(t)


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
