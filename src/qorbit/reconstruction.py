"""Recover the canonical point of a generic 3-qubit orbit from invariants.

The inversion runs one linear stage per tensor rank. Gram spectra come
from the trace triples via Newton's identities and a trigonometric cubic
solve. Each canonical site vector solves a 3x3 Vandermonde system in the
squared components, with the common sign read off the degree-9 sign
invariant. Pair matrices and the triple tensor then solve Kronecker
systems whose factors are the (Vandermonde x diagonal-component) products,
inverted factor by factor: the mixed blocks are contracted with one inverse
factor per site, the per-site contraction that also rotates a tensor.

Every stage is gated on genericity: coincident spectra or vanishing sign
invariants make the factors singular, and inconsistent invariant vectors
surface as negative squares or violated diagonality constraints rather
than silently wrong output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import _contract, _rotate, _split, _tensor, _top
from .canonical import CanonicalPoint, _gap_and_trace, genericity
from .errors import (
    ConstraintViolation,
    DegenerateSpectrum,
    InconsistentTraces,
    NegativeSquare,
    ShapeMismatch,
    SingularSystem,
    ValidationError,
    ZeroSignInvariant,
)
from .invariants import InvariantSet3, _gram_mats
from .local_action import RotationTriple
from .tolerances import (
    CUBIC_DEPRESSED_TOL, CUBIC_DISCRIMINANT_TOL, CUBIC_TRIPLE_ROOT_TOL, DET_PRODUCT_RTOL,
    DIAGONALITY_RTOL, EIGENGAP_RTOL, NEGATIVE_ROOT_RTOL, NEGATIVE_SQUARE_HARD, PINNED_DRIFT_RTOL,
    SIGN_CONSISTENCY_RTOL, SIGN_INVARIANT_TOL, VANDER_DET_RTOL,
)


def _three(name: str, values) -> np.ndarray:
    """values as a float array of one finite entry per Bloch axis, else ShapeMismatch or ValidationError."""
    a = np.asarray(values, dtype=float)
    if a.shape != (3,):
        raise ShapeMismatch(f"{name} must have 3 entries, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise ValidationError(f"{name} has a non-finite entry")
    return a


def _vander_scaled(spectrum: np.ndarray) -> tuple[np.ndarray, float]:
    """Rows (1, x, x^2) over the spectrum divided by its sum.

    Scaling the nodes to order one keeps the solve well conditioned; the
    true Vandermonde matrix is diag(1, s, s^2) times the scaled one.
    """
    s = max(float(np.sum(spectrum)), 1e-300)
    xt = np.asarray(spectrum, dtype=float) / s
    return np.vstack([np.ones(3), xt, xt * xt]), s


def _det_vander(spectrum: np.ndarray) -> float:
    x1, x2, x3 = np.asarray(spectrum, dtype=float).tolist()
    return (x1 - x2) * (x2 - x3) * (x3 - x1)


def spectra_from_traces(traces) -> np.ndarray:
    """Eigenvalues of a PSD 3x3 matrix from (tr M, tr M^2, tr M^3).

    Newton's identities give the elementary symmetric polynomials and the
    resulting cubic is solved by the three-real-roots trigonometric
    method, which is branch-free for the real nonnegative spectra that
    arise here. Roots are returned sorted decreasing.
    """
    t1, t2, t3 = _three("traces", traces).tolist()
    scale = max(abs(t1), math.sqrt(max(t2, 0.0)), abs(t3) ** (1.0 / 3.0))
    if scale < 1e-300:
        return np.zeros(3)
    p1, p2, p3 = t1 / scale, t2 / scale**2, t3 / scale**3
    e1 = p1
    e2 = (p1 * p1 - p2) / 2.0
    e3 = (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0
    p = e2 - e1 * e1 / 3.0
    q = -2.0 * e1**3 / 27.0 + e1 * e2 / 3.0 - e3
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc < CUBIC_DISCRIMINANT_TOL or p > CUBIC_DEPRESSED_TOL:
        raise InconsistentTraces(
            f"traces ({t1:.6g}, {t2:.6g}, {t3:.6g}) admit no real spectrum "
            f"(discriminant {disc:.3e}, depressed coefficient {p:.3e})"
        )
    if p >= CUBIC_TRIPLE_ROOT_TOL:
        roots = np.full(3, e1 / 3.0)
    else:
        arg = np.clip((3.0 * q / (2.0 * p)) * math.sqrt(-3.0 / p), -1.0, 1.0)
        phi = math.acos(arg) / 3.0
        amp = 2.0 * math.sqrt(-p / 3.0)
        roots = amp * np.cos(phi - 2.0 * np.pi * np.arange(3) / 3.0) + e1 / 3.0
    roots = np.sort(roots)[::-1] * scale
    if roots[-1] < NEGATIVE_ROOT_RTOL * max(1.0, abs(t1)):
        raise InconsistentTraces(
            f"recovered spectrum has negative eigenvalue {roots[-1]:.3e}"
        )
    return roots


def vector_from_quadratics(quads, sign_invariant: float, spectrum) -> np.ndarray:
    """Canonical site vector from its three quadratics and sign invariant.

    Solves the Vandermonde system for the squared components, takes square
    roots, and orients them with the common sign implied by the degree-9
    invariant (which equals the component product times the Vandermonde
    determinant). The square root halves the accuracy of the smallest
    component, so that one is re-derived from the degree-9 identity, whose
    inputs are known to near machine precision; afterwards the identity is
    re-verified on the result.
    """
    return _vector_from_quadratics(quads, sign_invariant, spectrum)


def _vector_from_quadratics(quads, sign_invariant: float, spectrum, scaled=None) -> np.ndarray:
    """``vector_from_quadratics`` on the site's ``_vander_scaled`` pair when it is given."""
    spectrum = _three("spectrum", spectrum)
    quads = _three("quadratics", quads)
    if not math.isfinite(sign_invariant):
        raise ValidationError(f"sign invariant {sign_invariant!r} is not finite")
    gap, trace = _gap_and_trace(*spectrum.tolist())
    if gap <= EIGENGAP_RTOL * max(trace, 1e-300):
        raise DegenerateSpectrum(
            f"eigenvalue gap {gap:.3e} below {EIGENGAP_RTOL:.0e} * trace ({trace:.3e})"
        )
    if abs(sign_invariant) <= SIGN_INVARIANT_TOL:
        raise ZeroSignInvariant(
            f"sign invariant {sign_invariant:.3e} below {SIGN_INVARIANT_TOL:.0e}"
        )
    lam, s = scaled or _vander_scaled(spectrum)
    squares = np.linalg.solve(lam, quads / s ** np.arange(3))
    floor = max(float(np.max(np.abs(squares))), 1e-300)
    if float(np.min(squares)) < NEGATIVE_SQUARE_HARD * floor:
        raise NegativeSquare(
            f"squared component {float(np.min(squares)):.3e} is significantly negative"
        )
    magnitudes = np.sqrt(np.clip(squares, 0.0, None))
    det = _det_vander(spectrum)
    common = math.copysign(1.0, sign_invariant) * math.copysign(1.0, det)
    vec = common * magnitudes
    smallest = int(np.argmin(np.abs(vec)))
    others = float(np.prod(np.delete(vec, smallest)))
    if abs(others * det) > 1e-300:
        pinned = sign_invariant / (det * others)
        drift = abs(pinned - vec[smallest]) / max(abs(pinned), abs(vec[smallest]), 1e-300)
        if drift > PINNED_DRIFT_RTOL:
            raise ConstraintViolation(
                f"quadratics and sign invariant disagree on component {smallest + 1}: "
                f"{vec[smallest]:.6e} vs {pinned:.6e}"
            )
        vec[smallest] = pinned
    recovered = float(np.prod(vec)) * det
    if abs(recovered - sign_invariant) > SIGN_CONSISTENCY_RTOL * abs(sign_invariant):
        raise ConstraintViolation(
            f"sign invariant mismatch: recovered {recovered:.6e}, given {sign_invariant:.6e}"
        )
    return vec


def _inverse_factor(spectrum, vector, scaled=None) -> np.ndarray:
    """(Vandermonde * diag(vector))^{-1} for one site, kept well scaled; ``scaled`` is the
    site's ``_vander_scaled`` pair when it is known."""
    spectrum, vector = _three("spectrum", spectrum), _three("vector", vector)
    det_product = _det_vander(spectrum) * float(np.prod(vector))
    if abs(det_product) <= SIGN_INVARIANT_TOL:
        raise SingularSystem(
            f"site factor determinant {det_product:.3e} below {SIGN_INVARIANT_TOL:.0e}"
        )
    lam, s = scaled or _vander_scaled(spectrum)
    k = np.linalg.inv(lam @ np.diag(vector))
    return k / (s ** np.arange(3))[None, :]


def _check_diagonal(triple: np.ndarray) -> None:
    """Refuse a recovered triple tensor (a batch of one) whose Gram matrices are not diagonal,
    as the canonical gauge requires: its invariant vector is inconsistent."""
    for site, g in enumerate(_gram_mats(triple)[:, 0]):
        off = g - np.diag(np.diag(g))
        worst = float(np.max(np.abs(off)))
        scale = max(float(np.max(np.abs(np.diag(g)))), 1e-300)
        if worst > DIAGONALITY_RTOL * scale:
            raise ConstraintViolation(
                f"site {site + 1} Gram matrix of the recovered tensor is not diagonal "
                f"(off-diagonal {worst:.3e} vs scale {scale:.3e})"
            )


def pair_from_mixed(mixed, row_spectrum, row_vector, col_spectrum, col_vector) -> np.ndarray:
    """Canonical pair matrix from its nine mixed invariants: two 3x3 factors, not a 9x9 solve."""
    factors = np.array((_inverse_factor(row_spectrum, row_vector), _inverse_factor(col_spectrum, col_vector)))
    return _contract(np.asarray(mixed, dtype=float).reshape(1, 3, 3), factors[:, None], (0, 1))[0]


def triple_from_mixed(mixed, spectra, vectors) -> np.ndarray:
    """Canonical triple tensor from its 27 mixed invariants, checked for diagonal Gram matrices."""
    factors = np.array([_inverse_factor(sp, vec) for sp, vec in zip(spectra, vectors)])
    q = _contract(np.asarray(mixed, dtype=float).reshape(1, 3, 3, 3), factors[:, None], (0, 1, 2))
    _check_diagonal(q)
    return q[0]


@dataclass(frozen=True)
class VandermondeSystem:
    """Per-site Vandermonde and component factors of the inversion.

    ``spectra`` holds the Gram eigenvalues sorted decreasing, ``vectors``
    the canonical site vectors; the factor determinants must equal the
    degree-9 sign invariants for the inversion to be defensible.
    """

    spectra: tuple[np.ndarray, np.ndarray, np.ndarray]
    vectors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def det_vander(self, site: int) -> float:
        return _det_vander(self.spectra[site])

    def det_product(self, site: int) -> float:
        return self.det_vander(site) * float(np.prod(self.vectors[site]))

    def verify_determinants(self, rtol: float = VANDER_DET_RTOL) -> None:
        """Product formula vs direct determinant, on scaled nodes."""
        self._verify_determinants([_vander_scaled(spectrum) for spectrum in self.spectra], rtol)

    def _verify_determinants(self, scaled, rtol: float = VANDER_DET_RTOL) -> None:
        """``verify_determinants`` on each site's ``_vander_scaled`` pair."""
        for site, (lam, s) in enumerate(scaled):
            direct = float(np.linalg.det(lam)) * s**3
            formula = self.det_vander(site)
            tol = rtol * max(abs(formula), abs(direct), 1e-300)
            if abs(direct - formula) > tol:
                raise ConstraintViolation(
                    f"site {site + 1} Vandermonde determinant mismatch: "
                    f"{direct:.6e} vs {formula:.6e}"
                )

    def verify_signs(self, sign_invariants, rtol: float = DET_PRODUCT_RTOL) -> None:
        """det(Vandermonde * diag) must reproduce each sign invariant."""
        for site in range(3):
            dp = self.det_product(site)
            target = float(sign_invariants[site])
            if abs(dp - target) > rtol * max(abs(target), 1e-300):
                raise ConstraintViolation(
                    f"site {site + 1} factor determinant {dp:.6e} does not match "
                    f"sign invariant {target:.6e}"
                )


def reconstruct_canonical(inv: InvariantSet3) -> CanonicalPoint:
    """Rebuild the canonical tensor of a generic orbit from its invariants.

    Raises ZeroSignInvariant / DegenerateSpectrum when the invariants sit
    outside the generic regime, and ConstraintViolation when they are
    mutually inconsistent. On success the returned point carries an
    identity gauge and a fresh genericity report.
    """
    signs = inv.sign_family()
    for label, value in zip(("site 1", "site 2", "site 3"), signs):
        if abs(value) <= SIGN_INVARIANT_TOL:
            raise ZeroSignInvariant(
                f"{label} sign invariant {value:.3e} below {SIGN_INVARIANT_TOL:.0e}"
            )
    spectra = tuple(spectra_from_traces(inv.trace_family(site)) for site in range(3))
    # One scaled Vandermonde matrix per site serves its vector, its determinant check and its factor.
    scaled = [_vander_scaled(spectrum) for spectrum in spectra]
    vectors = tuple(
        _vector_from_quadratics(inv.quad_family(site), float(signs[site]), spectra[site], scaled[site])
        for site in range(3)
    )
    system = VandermondeSystem(spectra=spectra, vectors=vectors)
    system._verify_determinants(scaled)
    system.verify_signs(signs)
    factors = np.array([_inverse_factor(*site) for site in zip(spectra, vectors, scaled)])[:, None]
    # The canonical vectors, then the 54 pair and triple members in flatten() order:
    # one contraction with the inverse factors turns those mixed blocks canonical.
    parts = _split(np.concatenate((np.ravel(vectors), inv.values[21:]))[None], 3)
    blocks = _rotate({name: arr for name, arr in parts.items() if arr.ndim > 2}, factors)
    _check_diagonal(_top(blocks))
    tensor = _tensor({**parts, **blocks}, 3, 0)
    return CanonicalPoint(
        tensor=tensor,
        gauge=RotationTriple.identity(3),
        report=genericity(tensor),
    )
