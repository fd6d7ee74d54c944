"""Recover the canonical point of a generic 3-qubit orbit from invariants.

Each stage runs over a site axis, the three sites as one batch: Gram spectra
from the trace triples (Newton's identities, a trigonometric cubic solve);
site vectors from one stacked Vandermonde solve in the squared components,
signed by the degree-9 sign invariants; the pair matrices and the triple
tensor from one contraction of the mixed blocks with the stacked inverse
(Vandermonde x diagonal-component) factors, the per-site contraction that
also rotates a tensor. The recovered triple's Gram matrices serve both its
diagonality check and its genericity report.

Degenerate spectra, vanishing sign invariants and inconsistent invariants
(negative squares, non-diagonal Gram matrices) raise rather than give
silently wrong output. A stage computes its stacked values without raising,
then checks the sites in the order of a site-by-site inversion. The public
per-site functions are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import _contract, _rotate, _split, _tensor, _top
from .canonical import CanonicalPoint, _gap_and_trace, _genericity
from .errors import (
    ConstraintViolation, DegenerateSpectrum, InconsistentTraces, NegativeSquare, NumericalError, ShapeMismatch,
    SingularSystem, ValidationError, ZeroSignInvariant,
)
from .invariants import InvariantSet3, _gram_mats
from .local_action import RotationTriple
from .tolerances import (
    CUBIC_DEPRESSED_TOL, CUBIC_DISCRIMINANT_TOL, CUBIC_TRIPLE_ROOT_TOL, DET_PRODUCT_RTOL, DIAGONALITY_RTOL,
    EIGENGAP_RTOL, NEGATIVE_ROOT_RTOL, NEGATIVE_SQUARE_HARD, PINNED_DRIFT_RTOL, SIGN_CONSISTENCY_RTOL,
    SIGN_INVARIANT_TOL, VANDER_DET_RTOL,
)

_POWERS = np.arange(3)
_ROOT_PHASES = 2.0 * np.pi * _POWERS / 3.0
_IDENTITY = RotationTriple.identity(3)


def _three(name: str, values) -> np.ndarray:
    """values as a float array of one finite entry per Bloch axis, else ShapeMismatch or ValidationError."""
    a = np.asarray(values, dtype=float)
    if a.shape != (3,):
        raise ShapeMismatch(f"{name} must have 3 entries, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise ValidationError(f"{name} has a non-finite entry")
    return a


def _vander_scaled(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (1, x, x^2) over each spectrum of a stack (k, 3) divided by its sum, and the sums.

    Scaling the nodes to order one keeps the solves well conditioned; a
    site's true Vandermonde matrix is diag(1, s, s^2) times its scaled one.
    """
    s = np.maximum(spectra.sum(axis=1), 1e-300)
    xt = spectra / s[:, None]
    return np.stack((np.ones_like(xt), xt, xt * xt), axis=1), s


def _det_vander(spectra) -> np.ndarray:
    """(x1 - x2)(x2 - x3)(x3 - x1) of each spectrum in a stack (k, 3)."""
    x1, x2, x3 = np.asarray(spectra, dtype=float).T
    return (x1 - x2) * (x2 - x3) * (x3 - x1)


def _spectra(traces: np.ndarray) -> np.ndarray:
    """The spectra (k, 3) of a stack of trace triples (see ``spectra_from_traces``); the first
    triple with no real spectrum raises."""
    spectra = np.zeros(traces.shape)
    for site, (t1, t2, t3) in enumerate(traces.tolist()):
        scale = max(abs(t1), math.sqrt(max(t2, 0.0)), abs(t3) ** (1.0 / 3.0))
        if scale < 1e-300:
            continue
        try:
            p1, p2, p3 = t1 / scale, t2 / scale**2, t3 / scale**3
        except (OverflowError, ZeroDivisionError):
            raise NumericalError(f"traces ({t1:.6g}, {t2:.6g}, {t3:.6g}) over- or underflow when scaled") from None
        e1, e2 = p1, (p1 * p1 - p2) / 2.0
        e3 = (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0
        p = e2 - e1 * e1 / 3.0
        q = -2.0 * e1**3 / 27.0 + e1 * e2 / 3.0 - e3
        disc = -4.0 * p**3 - 27.0 * q * q
        if disc < CUBIC_DISCRIMINANT_TOL or p > CUBIC_DEPRESSED_TOL:
            raise InconsistentTraces(f"traces ({t1:.6g}, {t2:.6g}, {t3:.6g}) admit no real spectrum "
                                     f"(discriminant {disc:.3e}, depressed coefficient {p:.3e})")
        if p >= CUBIC_TRIPLE_ROOT_TOL:
            roots = np.full(3, e1 / 3.0)
        else:
            arg = min(max((3.0 * q / (2.0 * p)) * math.sqrt(-3.0 / p), -1.0), 1.0)
            roots = 2.0 * math.sqrt(-p / 3.0) * np.cos(math.acos(arg) / 3.0 - _ROOT_PHASES) + e1 / 3.0
        spectra[site] = np.sort(roots)[::-1] * scale
        if spectra[site, 2] < NEGATIVE_ROOT_RTOL * max(1.0, abs(t1)):
            raise InconsistentTraces(f"recovered spectrum has negative eigenvalue {spectra[site, 2]:.3e}")
    return spectra


def spectra_from_traces(traces) -> np.ndarray:
    """Eigenvalues of a PSD 3x3 matrix from (tr M, tr M^2, tr M^3).

    Newton's identities give the elementary symmetric polynomials and the
    resulting cubic is solved by the three-real-roots trigonometric
    method, which is branch-free for the real nonnegative spectra that
    arise here. Roots are returned sorted decreasing.
    """
    return _spectra(_three("traces", traces)[None])[0]


def _vectors(quads: np.ndarray, signs: list, spectra: np.ndarray, scaled) -> np.ndarray:
    """The canonical site vectors (k, 3) from stacked quadratics, sign invariants and spectra, given
    the sites' ``_vander_scaled`` pair (see ``vector_from_quadratics``). Each site's checks all run
    before the next site's."""
    (lam, s), dets = scaled, _det_vander(spectra).tolist()
    gaps = [_gap_and_trace(*spectrum) for spectrum in spectra.tolist()]
    posed = [gap > EIGENGAP_RTOL * max(trace, 1e-300) and abs(sign) > SIGN_INVARIANT_TOL
             for (gap, trace), sign in zip(gaps, signs)]
    with np.errstate(all="ignore"):
        # A site refused before its solve solves the identity instead; a posed site's nodes differ by
        # more than EIGENGAP_RTOL of their sum, so no matrix in the stack is singular.
        squares = np.linalg.solve(np.where(np.array(posed)[:, None, None], lam, np.eye(3)),
                                  (quads / s[:, None] ** _POWERS)[..., None])[..., 0]
        vectors = (np.copysign(1.0, signs) * np.copysign(1.0, dets))[:, None] * np.sqrt(np.clip(squares, 0.0, None))
        floors = np.maximum(np.abs(squares).max(axis=1), 1e-300).tolist()
    for (gap, trace), sign, det, low, floor, i, vec in zip(
            gaps, signs, dets, squares.min(axis=1).tolist(), floors, np.abs(vectors).argmin(axis=1).tolist(), vectors):
        if gap <= EIGENGAP_RTOL * max(trace, 1e-300):
            raise DegenerateSpectrum(f"eigenvalue gap {gap:.3e} below {EIGENGAP_RTOL:.0e} * trace ({trace:.3e})")
        if abs(sign) <= SIGN_INVARIANT_TOL:
            raise ZeroSignInvariant(f"sign invariant {sign:.3e} below {SIGN_INVARIANT_TOL:.0e}")
        if low < NEGATIVE_SQUARE_HARD * floor:
            raise NegativeSquare(f"squared component {low:.3e} is significantly negative")
        v = vec.tolist()
        others = math.prod(v[:i] + v[i + 1:])
        if abs(others * det) > 1e-300:
            pinned = sign / (det * others)
            if abs(pinned - v[i]) / max(abs(pinned), abs(v[i]), 1e-300) > PINNED_DRIFT_RTOL:
                raise ConstraintViolation(f"quadratics and sign invariant disagree on component {i + 1}: "
                                          f"{v[i]:.6e} vs {pinned:.6e}")
            vec[i] = v[i] = pinned
        recovered = math.prod(v) * det
        if abs(recovered - sign) > SIGN_CONSISTENCY_RTOL * abs(sign):
            raise ConstraintViolation(f"sign invariant mismatch: recovered {recovered:.6e}, given {sign:.6e}")
    return vectors


def vector_from_quadratics(quads, sign_invariant: float, spectrum) -> np.ndarray:
    """Canonical site vector from its three quadratics and sign invariant.

    Solves the Vandermonde system for the squared components, takes square
    roots, and orients them with the common sign implied by the degree-9
    invariant (which equals the component product times the Vandermonde
    determinant). The square root halves the accuracy of the smallest
    component, so that one is re-derived from the degree-9 identity, whose
    inputs are known to near machine precision; afterwards the identity is
    re-verified on the result. A spectrum whose sum is not positive is
    refused (``ValidationError``) before the nodes are scaled by that sum.
    """
    spectrum, quads = _three("spectrum", spectrum)[None], _three("quadratics", quads)[None]
    if not math.isfinite(sign_invariant):
        raise ValidationError(f"sign invariant {sign_invariant!r} is not finite")
    total = float(spectrum.sum())
    if not total > 0.0:
        raise ValidationError(f"spectrum sum {total:.6g} is not positive", margin=total)
    return _vectors(quads, [float(sign_invariant)], spectrum, _vander_scaled(spectrum))[0]


def _inverse_factors(scaled, vectors: np.ndarray, products: list) -> np.ndarray:
    """(Vandermonde * diag(vector))^{-1} of each site (k, 3, 3), kept well scaled, from the sites'
    ``_vander_scaled`` pair and factor determinants; the first site too near singular raises."""
    for dp in products:
        if abs(dp) <= SIGN_INVARIANT_TOL:
            raise SingularSystem(f"site factor determinant {dp:.3e} below {SIGN_INVARIANT_TOL:.0e}")
    lam, s = scaled
    diag = np.zeros(lam.shape)
    diag[:, _POWERS, _POWERS] = vectors
    return np.linalg.inv(lam @ diag) / (s[:, None] ** _POWERS)[:, None, :]


def _inverse_factor(spectrum, vector) -> np.ndarray:
    """(Vandermonde * diag(vector))^{-1} for one site, a batch of one of ``_inverse_factors``."""
    system = VandermondeSystem(spectra=_three("spectrum", spectrum)[None], vectors=_three("vector", vector)[None])
    return _inverse_factors(_vander_scaled(system.spectra), system.vectors, system._det_products())[0]


def _check_diagonal(g: np.ndarray) -> None:
    """Refuse a recovered triple tensor (a batch of one) whose Gram matrices g (3, 1, 3, 3) are not
    diagonal, as the canonical gauge requires: its invariant vector is inconsistent."""
    diagonal = np.zeros(g.shape)
    diagonal[..., _POWERS, _POWERS] = g[..., _POWERS, _POWERS]
    worst = np.abs(g - diagonal).max(axis=(-2, -1))[:, 0].tolist()
    scales = np.maximum(np.abs(diagonal).max(axis=(-2, -1)), 1e-300)[:, 0].tolist()
    for site, (off, scale) in enumerate(zip(worst, scales)):
        if off > DIAGONALITY_RTOL * scale:
            raise ConstraintViolation(f"site {site + 1} Gram matrix of the recovered tensor is not diagonal "
                                      f"(off-diagonal {off:.3e} vs scale {scale:.3e})")


def pair_from_mixed(mixed, row_spectrum, row_vector, col_spectrum, col_vector) -> np.ndarray:
    """Canonical pair matrix from its nine mixed invariants: two 3x3 factors, not a 9x9 solve."""
    factors = np.array((_inverse_factor(row_spectrum, row_vector), _inverse_factor(col_spectrum, col_vector)))
    return _contract(np.asarray(mixed, dtype=float).reshape(1, 3, 3), factors[:, None], (0, 1))[0]


def triple_from_mixed(mixed, spectra, vectors) -> np.ndarray:
    """Canonical triple tensor from its 27 mixed invariants, checked for diagonal Gram matrices."""
    factors = np.array([_inverse_factor(sp, vec) for sp, vec in zip(spectra, vectors)])
    q = _contract(np.asarray(mixed, dtype=float).reshape(1, 3, 3, 3), factors[:, None], (0, 1, 2))
    _check_diagonal(_gram_mats(q))
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

    def _det_products(self) -> list[float]:
        """det(Vandermonde * diag(vector)) of each site."""
        return (_det_vander(self.spectra) * np.prod(self.vectors, axis=-1)).tolist()

    def verify_determinants(self) -> None:
        """Product formula vs direct determinant, on scaled nodes."""
        self._verify_determinants(_vander_scaled(np.array(self.spectra, dtype=float)))

    def _verify_determinants(self, scaled) -> None:
        """``verify_determinants`` on the sites' ``_vander_scaled`` pair."""
        (lam, s), formulas = scaled, _det_vander(self.spectra).tolist()
        for site, (direct, scale, formula) in enumerate(zip(np.linalg.det(lam).tolist(), s.tolist(), formulas)):
            direct *= scale**3
            if abs(direct - formula) > VANDER_DET_RTOL * max(abs(formula), abs(direct), 1e-300):
                raise ConstraintViolation(f"site {site + 1} Vandermonde determinant mismatch: "
                                          f"{direct:.6e} vs {formula:.6e}")

    def verify_signs(self, sign_invariants) -> None:
        """det(Vandermonde * diag) must reproduce each sign invariant."""
        for site, dp in enumerate(self._det_products()):
            target = float(sign_invariants[site])
            if abs(dp - target) > DET_PRODUCT_RTOL * max(abs(target), 1e-300):
                raise ConstraintViolation(f"site {site + 1} factor determinant {dp:.6e} does not match "
                                          f"sign invariant {target:.6e}")


def reconstruct_canonical(inv: InvariantSet3) -> CanonicalPoint:
    """Rebuild the canonical tensor of a generic orbit from its invariants.

    Raises ZeroSignInvariant / DegenerateSpectrum when the invariants sit
    outside the generic regime, and ConstraintViolation when they are
    mutually inconsistent. On success the returned point carries an
    identity gauge and a fresh genericity report.
    """
    # In NAMES3 order: the three sites' traces, their quadratics, then their sign invariants.
    values = inv.values
    signs = values[18:21].tolist()
    for site, value in enumerate(signs):
        if abs(value) <= SIGN_INVARIANT_TOL:
            raise ZeroSignInvariant(f"site {site + 1} sign invariant {value:.3e} below {SIGN_INVARIANT_TOL:.0e}")
    spectra = _spectra(values[:9].reshape(3, 3))
    # One scaled Vandermonde stack serves the vectors, the determinant check and the factors.
    scaled = _vander_scaled(spectra)
    vectors = _vectors(values[9:18].reshape(3, 3), signs, spectra, scaled)
    system = VandermondeSystem(spectra=spectra, vectors=vectors)
    system._verify_determinants(scaled)
    system.verify_signs(signs)
    factors = _inverse_factors(scaled, vectors, system._det_products())[:, None]
    # The canonical vectors, then the 54 pair and triple members in flatten() order:
    # one contraction with the inverse factors turns those mixed blocks canonical.
    parts = _split(np.concatenate((vectors.ravel(), values[21:]))[None], 3)
    parts.update(_rotate({name: arr for name, arr in parts.items() if arr.ndim > 2}, factors))
    g = _gram_mats(_top(parts))
    _check_diagonal(g)
    return CanonicalPoint(tensor=_tensor(parts, 3, 0), gauge=_IDENTITY, report=_genericity(parts, g)[0])
