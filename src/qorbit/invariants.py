"""Polynomial local-unitary invariants of 1-, 2-, and 3-qubit states.

For three qubits the separating family has 75 members built from the
per-site Gram matrices of the triple tensor (X = QQ contracted over the
last two indices, Y and Z cyclically):

* 9 traces          tr X^r, tr Y^r, tr Z^r                     (r = 1..3)
* 9 quadratics      A_2r = a.X^{r-1}a, B_2r, C_2r              (r = 1..3)
* 3 sign fixers     A9 = a.(Xa)x(X^2a), B9, C9
* 27 pair members   I12_rs = (X^{r-1}a).pair_12.(Y^{s-1}b), I13, I23
* 27 triple members I123_rst contracting one power-weighted vector per site
  into the triple tensor

The flattening order above is frozen (NAMES3 / DEGREES3) so invariant
fingerprints compare across runs. The two-qubit family is the minimal ten
(NAMES2[:10]) plus four redundant members used for cross checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .bloch import BlochTensor, _flat, _mv, _parts, _rotate, _site_vectors, _top, reconstruct
from .errors import NumericalError, ParseError, ShapeMismatch, UnsupportedShape, ValidationError
from .tolerances import COEFFICIENT_SCALE_FLOOR, COMPARE_ABS_FLOOR, COMPARE_RTOL, PURITY_IDENTITY_TOL

PAIR_KEYS = ("12", "13", "23")

# Each family as (name, degree) pairs in its frozen order.
_FAMILY3 = (
    [(f"tr{g}{r}", 2 * r) for g in "XYZ" for r in (1, 2, 3)]
    + [(f"{f}{2 * r}", 2 * r) for f in "ABC" for r in (1, 2, 3)]
    + [("A9", 9), ("B9", 9), ("C9", 9)]
    + [(f"I{p}_{r}{s}", 2 * r + 2 * s - 1) for p in PAIR_KEYS for r in (1, 2, 3) for s in (1, 2, 3)]
    + [(f"I123_{r}{s}{t}", 2 * (r + s + t) - 2) for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
)

_FAMILY2 = [
    ("trX1", 2), ("trX2", 4), ("detR", 3),
    ("A2", 2), ("A4", 4), ("A6", 6),
    ("mix1", 3), ("mix2", 5), ("mix3", 7),
    ("A9", 9),
    # redundant members beyond the minimal ten
    ("B2", 2), ("B4", 4), ("B6", 6), ("B9", 9),
]

NAMES3, DEGREES3 = map(tuple, zip(*_FAMILY3))
NAMES2, DEGREES2 = map(tuple, zip(*_FAMILY2))

MINIMAL2 = 10

# Cross product index order: (b x c)_i = b[_NEXT[i]] c[_LAST[i]] - b[_LAST[i]] c[_NEXT[i]].
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


@dataclass(frozen=True)
class GramTriple:
    """Per-site Gram matrices with their eigen data.

    ``mats[r]`` is the symmetric PSD 3x3 contraction of the top-rank
    tensor over all indices except site r's; ``spectra`` are eigenvalues
    sorted decreasing and ``frames`` the matching orthonormal eigenvector
    columns with determinant +1. A spectrum may hold roundoff negatives of
    about eps times its largest eigenvalue.
    """

    n: int
    mats: tuple[np.ndarray, ...]
    spectra: tuple[np.ndarray, ...]
    frames: tuple[np.ndarray, ...]


@np.errstate(over="ignore")
def _gram_mats(top: np.ndarray) -> np.ndarray:
    """Per-site Gram matrices of a batch of top-rank tensors, site-major (n, B, 3, 3).

    Two of a (B, 3, 3) pair matrix, three of a (B, 3, 3, 3) triple tensor. Entries that
    overflow are inf, with no warning, for ``_eigen`` to refuse.
    """
    if top.ndim == 3:
        return np.array((top @ top.swapaxes(1, 2), top.swapaxes(1, 2) @ top))
    return np.array((
        np.einsum("zijk,zljk->zil", top, top),
        np.einsum("zijk,zilk->zjl", top, top),
        np.einsum("zijk,zijl->zkl", top, top),
    ))


def _eigen(mats: np.ndarray):
    """Decreasing spectra (n, B, 3) and det-+1 eigenframes (n, B, 3, 3) of a site-major
    Gram stack. Only overflowing Gram entries are refused: eigh fails to converge on them,
    or returns a non-finite eigenvalue, and then the first batch member with one raises."""
    # One stacked eigh and det: LAPACK still factors each matrix on its own.
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError:
        raise NumericalError("Gram eigendecomposition did not converge: its entries overflow") from None
    spectra = vals[..., ::-1].copy()
    if not np.isfinite(spectra).all():
        _, site, _ = np.argwhere(~np.isfinite(spectra.swapaxes(0, 1)))[0]
        raise NumericalError(f"site {site + 1} Gram matrix has a non-finite eigenvalue: its entries overflow")
    frames = vecs[..., ::-1].copy()
    frames[..., -1] *= np.where(np.linalg.det(frames) < 0, -1.0, 1.0)[..., None]
    return spectra, frames


def gram(t: BlochTensor) -> GramTriple:
    """Gram matrices of the top-rank tensor with their eigen data, one per site.

    For n = 3 these contract the triple tensor; for n = 2 they are
    pair_12 pair_12^T and its transpose partner, which share a spectrum up
    to roundoff. The invariant families use the matrices alone; the
    eigenframes and spectra serve the canonical gauge and the genericity
    margins. A spectrum may hold roundoff negatives of about eps times its
    largest eigenvalue; only Gram matrices that overflow raise ``NumericalError``.
    """
    if t.n not in (2, 3):
        raise UnsupportedShape(f"Gram matrices are defined for n=2 or 3, got n={t.n}")
    mats = _gram_mats(_top(_parts(t)))
    spectra, frames = _eigen(mats)
    return GramTriple(n=t.n, mats=tuple(mats[:, 0]), spectra=tuple(spectra[:, 0]), frames=tuple(frames[:, 0]))


def _power_vectors(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rows (v, M v, M^2 v) for stacks of matrices (..., 3, 3) and vectors (..., 3)."""
    pv = np.empty(vecs.shape[:-1] + (3, 3))
    pv[..., 0, :] = vecs
    np.matmul(mats, vecs[..., None], out=pv[..., 1, :, None])
    np.matmul(mats, pv[..., 1, :, None], out=pv[..., 2, :, None])
    return pv


def _triple_product(pv: np.ndarray) -> np.ndarray:
    """pv[0] . (pv[1] x pv[2]) over the last two axes: the cross product rounded exactly as
    np.cross rounds it, the dot product summed as np.dot sums it."""
    nxt, lst = pv[..., 1:, _NEXT], pv[..., 1:, _LAST]
    cross = nxt[..., 0, :] * lst[..., 1, :] - lst[..., 0, :] * nxt[..., 1, :]
    return (pv[..., :1, :] @ cross[..., None])[..., 0, 0]


def _trace_powers(mats: np.ndarray) -> np.ndarray:
    """tr M, tr M^2, tr M^3 of a stack (..., 3, 3), along a new first axis."""
    m2 = mats @ mats
    return np.trace(np.array((mats, m2, m2 @ mats)), axis1=-2, axis2=-1)


def _values3(parts: dict, g: np.ndarray) -> np.ndarray:
    """The 75 three-qubit invariants (B, 75) of a batch, from its Gram stack (3, B, 3, 3): the
    quadratics, pair and triple members are the components with site r's power vectors
    (v_r, X_r v_r, X_r^2 v_r) contracted into each of its axes."""
    pv = _power_vectors(g, _site_vectors(parts))
    mixed = _flat(_rotate(parts, pv))
    return np.concatenate([
        _trace_powers(g).transpose(2, 1, 0).reshape(len(mixed), 9),
        mixed[:, :9],
        _triple_product(pv).T,
        mixed[:, 9:],
    ], axis=1)


def _values2(parts: dict, g: np.ndarray) -> np.ndarray:
    """The fourteen two-qubit invariants (B, 14) of a batch, from its Gram stack (2, B, 3, 3)."""
    r, vecs = _top(parts), _site_vectors(parts)
    alpha, beta = vecs
    av, bv = pv = _power_vectors(g, vecs)
    signs = _triple_product(pv)[..., None]
    return np.concatenate([
        _trace_powers(g[0])[:2].T, np.linalg.det(r)[:, None],
        _mv(av, alpha), _mv(av, _mv(r, beta)), signs[0],
        _mv(bv, beta), signs[1],
    ], axis=1)


@dataclass(frozen=True)
class _InvariantSet:
    """A family's values, read-only; each subclass sets its N, NAMES and DEGREES."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (len(self.NAMES),):
            raise ShapeMismatch(f"expected {len(self.NAMES)} values, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("invariant vector has a non-finite entry")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def _payload(self, names: tuple[str, ...]) -> dict:
        return {"n": self.N, "names": list(names), "values": self.values[:len(names)].tolist()}

    def payload(self) -> dict:
        return self._payload(self.NAMES)


class InvariantSet3(_InvariantSet):
    """The 75-member three-qubit family in the frozen NAMES3 order."""

    N, NAMES, DEGREES = 3, NAMES3, DEGREES3

    def trace_family(self, site: int) -> np.ndarray:
        return self.values[3 * site:3 * site + 3]

    def quad_family(self, site: int) -> np.ndarray:
        return self.values[9 + 3 * site:12 + 3 * site]

    def sign_family(self) -> np.ndarray:
        return self.values[18:21]

    def pair_family(self, key: str) -> np.ndarray:
        i = PAIR_KEYS.index(key)
        return self.values[21 + 9 * i:30 + 9 * i].reshape(3, 3)

    def triple_family(self) -> np.ndarray:
        return self.values[48:75].reshape(3, 3, 3)


class InvariantSet2(_InvariantSet):
    """Minimal ten two-qubit invariants plus four redundant members."""

    N, NAMES, DEGREES = 2, NAMES2, DEGREES2

    def minimal(self) -> np.ndarray:
        return self.values[:MINIMAL2]

    def payload(self, minimal: bool = False) -> dict:
        return self._payload(self.NAMES[:MINIMAL2] if minimal else self.NAMES)


def _fingerprint(parts: dict, g: np.ndarray, n: int):
    """The family ``decide`` compares and its values (B, len) for a batch with Gram stack g."""
    return (InvariantSet2, _values2(parts, g)) if n == 2 else (InvariantSet3, _values3(parts, g))


@np.errstate(over="ignore", invalid="ignore")
def _invariant_set(t: BlochTensor):
    """One tensor's family; NumericalError names the first member that leaves float range."""
    parts = _parts(t)
    family, (values,) = _fingerprint(parts, _gram_mats(_top(parts)), t.n)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericalError(f"invariant {family.NAMES[finite.argmin()]} overflows float range")
    return family(values)


def invariants3(t: BlochTensor) -> InvariantSet3:
    """Evaluate all 75 three-qubit invariants in the canonical order."""
    if t.n != 3:
        raise UnsupportedShape(f"invariants3 needs n=3, got n={t.n}")
    return _invariant_set(t)


def invariants2(t: BlochTensor) -> InvariantSet2:
    """Evaluate the two-qubit invariants in the canonical order."""
    if t.n != 2:
        raise UnsupportedShape(f"invariants2 needs n=2, got n={t.n}")
    return _invariant_set(t)


def fingerprint(t: BlochTensor) -> InvariantSet2 | InvariantSet3:
    """The set ``decide`` compares: invariants2(t) for n = 2, else invariants3(t), each looked
    up per call so that a wrapper on its module attribute (perfbench's tracer) sees the call."""
    return invariants2(t) if t.n == 2 else invariants3(t)


@dataclass(frozen=True)
class Invariant1:
    """The single-qubit invariant |alpha|^2 with its spectral cross check."""

    value: float
    purity: float

    NAMES = ("I", "purity")
    IDENTITY_NOTE = (
        "purity identity: tr(rho^2) = 1/2 + 2*I with I = |alpha|^2; "
        "note the factor of 2 -- I equals (tr(rho^2) - 1/2) / 2, "
        "not tr(rho^2) - 1/2."
    )

    def payload(self) -> dict:
        return {"n": 1, "names": list(self.NAMES), "values": [self.value, self.purity],
                "note": self.IDENTITY_NOTE}


def invariant1(t: BlochTensor) -> Invariant1:
    """|alpha|^2, cross-checked against tr(rho^2) = 1/2 + 2 |alpha|^2.

    The purity is computed independently from the reconstructed matrix,
    and the identity is asserted to ``PURITY_IDENTITY_TOL``.
    """
    if t.n != 1:
        raise UnsupportedShape(f"invariant1 needs n=1, got n={t.n}")
    value = float(np.dot(t.alpha, t.alpha))
    rho = reconstruct(t)
    purity = rho.purity()
    if abs(purity - (0.5 + 2.0 * value)) > PURITY_IDENTITY_TOL:
        raise NumericalError(
            f"purity identity violated: tr(rho^2) = {purity!r}, 1/2 + 2|alpha|^2 = {0.5 + 2 * value!r}"
        )
    return Invariant1(value=value, purity=purity)


def coefficient_scale(*coeffs: np.ndarray) -> float:
    """Largest magnitude across arrays of Bloch coefficients, floored away from 0."""
    return max(COEFFICIENT_SCALE_FLOOR, *(float(np.abs(c).max()) for c in coeffs))


def first_disagreement(
    values_a: np.ndarray,
    values_b: np.ndarray,
    degrees: tuple[int, ...],
    scale: float,
    rtol: float = COMPARE_RTOL,
) -> int | None:
    """Index of the first invariant differing beyond its degree tolerance.

    A degree-k invariant is compared against rtol * scale^k with an
    absolute floor, because the families mix polynomial degrees 2 to 16
    and a flat relative test would over- or under-weigh the extremes.
    Both vectors must hold one value per degree, else ``ShapeMismatch``.
    ``scale`` must be finite and positive (``ValidationError``); one whose
    degree-k power overflows raises ``NumericalError``.
    """
    values_a, values_b = np.asarray(values_a), np.asarray(values_b)
    if not values_a.shape == values_b.shape == (len(degrees),):
        raise ShapeMismatch(f"invariant vectors of shapes {values_a.shape} and {values_b.shape} "
                            f"for {len(degrees)} degrees")
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValidationError(f"coefficient scale must be finite and positive, got {scale!r}")
    distinct, index = _degree_index(tuple(degrees))
    diffs = np.abs(values_a - values_b)
    # One tolerance per distinct degree, with Python's ** (numpy's power may round differently).
    try:
        tols = np.array([max(COMPARE_ABS_FLOOR, rtol * scale**k) for k in distinct])
    except OverflowError:
        raise NumericalError(f"coefficient scale {scale!r} overflows at degree {distinct[-1]}") from None
    hits = np.flatnonzero(diffs > tols[index])
    return int(hits[0]) if hits.size else None


@functools.lru_cache(maxsize=8)
def _degree_index(degrees: tuple) -> tuple[tuple, np.ndarray]:
    """The distinct degrees of a family, and the position of each member's degree among them."""
    distinct = tuple(sorted(set(degrees)))
    index = np.array([distinct.index(k) for k in degrees], dtype=int)
    index.setflags(write=False)  # cached: every caller shares it
    return distinct, index


def invariant_payload_to_values(payload) -> tuple[int, np.ndarray]:
    """Parse an invariant file payload, checking the canonical name list."""
    n = fileio.qubit_count(payload, "invariant")
    names = payload.get("names")
    values = payload.get("values")
    if not isinstance(names, list) or not isinstance(values, list):
        raise ParseError("fields 'names' and 'values' must be arrays")
    if len(names) != len(values):
        raise ParseError("'names' and 'values' have different lengths")
    accepted = {1: [Invariant1.NAMES], 2: [InvariantSet2.NAMES[:MINIMAL2], InvariantSet2.NAMES],
                3: [InvariantSet3.NAMES]}[n]
    if tuple(names) not in accepted:
        raise ParseError("invariant names do not match the canonical list")
    return n, fileio.real_array(values, (len(values),), "values")
