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

from dataclasses import dataclass

import numpy as np

from . import fileio
from .bloch import BlochTensor, reconstruct
from .errors import NumericalError, ParseError, UnsupportedShape
from .tolerances import (
    COEFFICIENT_SCALE_FLOOR, COMPARE_ABS_FLOOR, COMPARE_RTOL, GRAM_PAIR_SPECTRA_TOL, GRAM_PSD_TOL,
    PURITY_IDENTITY_TOL,
)

PAIR_KEYS = ("12", "13", "23")

NAMES3: tuple[str, ...] = tuple(
    [f"tr{g}{r}" for g in "XYZ" for r in (1, 2, 3)]
    + [f"{f}{2 * r}" for f in "ABC" for r in (1, 2, 3)]
    + ["A9", "B9", "C9"]
    + [f"I{p}_{r}{s}" for p in PAIR_KEYS for r in (1, 2, 3) for s in (1, 2, 3)]
    + [f"I123_{r}{s}{t}" for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
)

DEGREES3: tuple[int, ...] = tuple(
    [2 * r for _ in "XYZ" for r in (1, 2, 3)]
    + [2 * r for _ in "ABC" for r in (1, 2, 3)]
    + [9, 9, 9]
    + [2 * r + 2 * s - 1 for _ in PAIR_KEYS for r in (1, 2, 3) for s in (1, 2, 3)]
    + [2 * (r + s + t) - 2 for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
)

NAMES2: tuple[str, ...] = (
    "trX1", "trX2", "detR",
    "A2", "A4", "A6",
    "mix1", "mix2", "mix3",
    "A9",
    # redundant members beyond the minimal ten
    "B2", "B4", "B6", "B9",
)

DEGREES2: tuple[int, ...] = (2, 4, 3, 2, 4, 6, 3, 5, 7, 9, 2, 4, 6, 9)

MINIMAL2 = 10


@dataclass(frozen=True)
class GramTriple:
    """Per-site Gram matrices with their eigen data.

    ``mats[r]`` is the symmetric PSD 3x3 contraction of the top-rank
    tensor over all indices except site r's; ``spectra`` are eigenvalues
    sorted decreasing and ``frames`` the matching orthonormal eigenvector
    columns with determinant +1.
    """

    n: int
    mats: tuple[np.ndarray, ...]
    spectra: tuple[np.ndarray, ...]
    frames: tuple[np.ndarray, ...]


def _gram_mats(top: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-site Gram matrices: two of a 3x3 pair matrix, three of a 3x3x3 triple."""
    if top.ndim == 2:
        return top @ top.T, top.T @ top
    return (
        np.einsum("ijk,ljk->il", top, top),
        np.einsum("ijk,ilk->jl", top, top),
        np.einsum("ijk,ijl->kl", top, top),
    )


def gram(t: BlochTensor) -> GramTriple:
    """Gram matrices of the top-rank tensor with their eigen data, one per site.

    For n = 3 these contract the triple tensor; for n = 2 they are
    pair_12 pair_12^T and its transpose partner, which share a spectrum.
    The invariant families use the matrices alone; the eigenframes and
    spectra serve the canonical gauge and the genericity margins.
    """
    if t.n not in (2, 3):
        raise UnsupportedShape(f"Gram matrices are defined for n=2 or 3, got n={t.n}")
    mats = _gram_mats(t.triple if t.n == 3 else t.pair_12)
    # One stacked eigh and det: LAPACK still factors each matrix on its own.
    vals, vecs = np.linalg.eigh(np.array(mats))
    spectra = vals[:, ::-1].copy()
    frames = vecs[:, :, ::-1].copy()
    for frame, det in zip(frames, np.linalg.det(frames).tolist()):
        if det < 0:
            frame[:, -1] *= -1.0
    for low in spectra[:, -1].tolist():
        if low < GRAM_PSD_TOL:
            raise NumericalError(f"Gram matrix has negative eigenvalue {low:.3e}")
    if t.n == 2 and np.abs(spectra[0] - spectra[1]).max() > GRAM_PAIR_SPECTRA_TOL:
        raise NumericalError(f"two-qubit Gram spectra disagree beyond {GRAM_PAIR_SPECTRA_TOL:.0e}")
    return GramTriple(n=t.n, mats=tuple(mats), spectra=tuple(spectra), frames=tuple(frames))


def _power_vectors(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Rows (vec, mat vec, mat^2 vec)."""
    pv = np.empty((3, 3))
    pv[0] = vec
    np.matmul(mat, vec, out=pv[1])
    np.matmul(mat, pv[1], out=pv[2])
    return pv


def _triple_product(pv: np.ndarray) -> float:
    """pv[0] . (pv[1] x pv[2]), the cross product rounded exactly as np.cross rounds it."""
    (b0, b1, b2), (c0, c1, c2) = pv[1:].tolist()
    return float(np.dot(pv[0], [b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0]))


def _sign_invariant(vec: np.ndarray, mat: np.ndarray) -> float:
    return _triple_product(_power_vectors(mat, vec))


def _trace_powers(mat: np.ndarray) -> list[float]:
    m2 = mat @ mat
    return [float(mat.trace()), float(m2.trace()), float((m2 @ mat).trace())]


@dataclass(frozen=True)
class InvariantSet3:
    """The 75-member three-qubit family in the frozen NAMES3 order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (75,):
            raise ValueError(f"expected 75 values, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

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

    def payload(self) -> dict:
        return {"n": 3, "names": list(NAMES3), "values": self.values.tolist()}


@dataclass(frozen=True)
class InvariantSet2:
    """Minimal ten two-qubit invariants plus four redundant members."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (len(NAMES2),):
            raise ValueError(f"expected {len(NAMES2)} values, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def minimal(self) -> np.ndarray:
        return self.values[:MINIMAL2]

    def payload(self, minimal: bool = False) -> dict:
        names = NAMES2[:MINIMAL2] if minimal else NAMES2
        values = self.values[:len(names)]
        return {"n": 2, "names": list(names), "values": values.tolist()}


def invariants3(t: BlochTensor) -> InvariantSet3:
    """Evaluate all 75 three-qubit invariants in the canonical order."""
    if t.n != 3:
        raise UnsupportedShape(f"invariants3 needs n=3, got n={t.n}")
    x, y, z = _gram_mats(t.triple)
    av = _power_vectors(x, t.alpha)
    bv = _power_vectors(y, t.beta)
    cv = _power_vectors(z, t.gamma)
    values = np.concatenate([
        _trace_powers(x), _trace_powers(y), _trace_powers(z),
        av @ t.alpha, bv @ t.beta, cv @ t.gamma,
        [_triple_product(av), _triple_product(bv), _triple_product(cv)],
        (av @ t.pair_12 @ bv.T).ravel(),
        (av @ t.pair_13 @ cv.T).ravel(),
        (bv @ t.pair_23 @ cv.T).ravel(),
        np.einsum("ri,sj,tk,ijk->rst", av, bv, cv, t.triple).ravel(),
    ])
    return InvariantSet3(values)


def invariants2(t: BlochTensor) -> InvariantSet2:
    """Evaluate the two-qubit invariants in the canonical order."""
    if t.n != 2:
        raise UnsupportedShape(f"invariants2 needs n=2, got n={t.n}")
    r = t.pair_12
    x, y = _gram_mats(r)
    av = _power_vectors(x, t.alpha)
    bv = _power_vectors(y, t.beta)
    tr = _trace_powers(x)
    values = np.concatenate([
        [tr[0], tr[1], float(np.linalg.det(r))],
        av @ t.alpha,
        av @ (r @ t.beta),
        [_triple_product(av)],
        bv @ t.beta,
        [_triple_product(bv)],
    ])
    return InvariantSet2(values)


@dataclass(frozen=True)
class Invariant1:
    """The single-qubit invariant |alpha|^2 with its spectral cross check."""

    value: float
    purity: float

    IDENTITY_NOTE = (
        "purity identity: tr(rho^2) = 1/2 + 2*I with I = |alpha|^2; "
        "note the factor of 2 -- I equals (tr(rho^2) - 1/2) / 2, "
        "not tr(rho^2) - 1/2."
    )


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


def coefficient_scale(*tensors: BlochTensor) -> float:
    """Largest coefficient magnitude across tensors, floored away from 0."""
    return max(COEFFICIENT_SCALE_FLOOR, *(t.max_abs() for t in tensors))


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
    """
    diffs = np.abs(np.asarray(values_a) - np.asarray(values_b))
    for i, (diff, k) in enumerate(zip(diffs.tolist(), degrees)):
        if diff > max(COMPARE_ABS_FLOOR, rtol * scale**k):
            return i
    return None


def invariant_payload_to_values(payload) -> tuple[int, np.ndarray]:
    """Parse an invariant file payload, checking the canonical name list."""
    if not isinstance(payload, dict):
        raise ParseError("invariant file must contain a single object")
    n = payload.get("n")
    if isinstance(n, bool) or n not in (1, 2, 3):
        raise ParseError("field 'n' must be 1, 2, or 3")
    names = payload.get("names")
    values = payload.get("values")
    if not isinstance(names, list) or not isinstance(values, list):
        raise ParseError("fields 'names' and 'values' must be arrays")
    if len(names) != len(values):
        raise ParseError("'names' and 'values' have different lengths")
    expected = {3: list(NAMES3), 2: list(NAMES2), 1: ["I", "purity"]}[n]
    if names != expected[:len(names)] or (n == 3 and len(names) != 75):
        raise ParseError("invariant names do not match the canonical list")
    return n, fileio.real_array(values, (len(values),), "values")
