"""The small per-state kernels against the implementations they replaced.

Each reference below is the earlier, call-per-component version of a
kernel, kept as the oracle. The rewrites only drop wrapper calls and
Python loops; every rounded operation stays, so results are compared bit
for bit (signed zeros included), never with a tolerance. The one
exception is ``bloch.reconstruct`` at n >= 2: its single flat tensordot
sums the Pauli words in another order than the per-component loop, so it
is held there to a rounding bound derived from the terms of the two sums,
and compared bit for bit at n = 1.

``orbit_dimension`` streams row blocks of rho instead of ranking the
materialized tangent frame; its reference materializes the folded frame
from the dense embedded generators, one gather of M = Re rho - Im rho or
N = Re rho + Im rho per nonzero, and the singular values are compared bit
for bit.

The kernels on ``decide``'s path take a leading batch axis, and ``decide``
runs both states of a pair as one batch of two. The single-state bodies
they replaced (``expand``, ``gram``, ``invariants2``, ``invariants3``,
``canonicalize2``, ``canonicalize3``, ``genericity`` and ``transform_bloch``
with their helpers) are kept below as ``*_head`` references. Every batched
kernel must equal them bit for bit as a batch of one (the public
functions) and as either member of a batch of two whose members pass. A
failing batch raises, at the first check stage that some member fails,
the error of the first member failing it.

The Bloch component layout, the Kronecker product of per-site factors and
the SO(3) -> SU(2) lift each have a reference written independently of the
library's tables: the layout as index patterns over sites with a literal
Pauli table, the product as an explicit loop, and the lift as one
hand-written branch per quaternion component.
"""

import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit import bloch, invariants, orbit_dim, reconstruction
from qorbit.bloch import BlochTensor, _expand, _flat, _rotate, _split
from qorbit.canonical import (
    KLEIN, KLEIN_SIGN_RTOL, CanonicalPoint, _canonical, _klein_pair, _reports, _uniform_sign_element,
    genericity,
)
from qorbit.errors import (
    ConstraintViolation, NotSpecialOrthogonal, NumericalError, ShapeMismatch, ToolkitError, ValidationError,
)
from qorbit.invariants import _eigen, _fingerprint, _gram_mats, _head, _power_vectors, _triple_product
from qorbit.local_action import (
    LIFT_BRANCH_TOL, SPECIAL_TOL, UNITARITY_TOL, RotationTriple, _check_rotations, transform_bloch,
)
from qorbit.orbit_dim import OrbitDimension
from qorbit.reconstruction import (
    DIAGONALITY_RTOL, SIGN_INVARIANT_TOL, VandermondeSystem, _inverse_factor, spectra_from_traces,
    vector_from_quadratics,
)
from qorbit.tolerances import HERMITICITY_RTOL, RANK_RTOL


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------- single-state bodies replaced
# by the batched kernels, kept as they were (helpers renamed *_head).


def gram_mats_head(top):
    if top.ndim == 2:
        return top @ top.T, top.T @ top
    return (
        np.einsum("ijk,ljk->il", top, top),
        np.einsum("ijk,ilk->jl", top, top),
        np.einsum("ijk,ijl->kl", top, top),
    )


def gram_head(t):
    mats = gram_mats_head(t.triple if t.n == 3 else t.pair_12)
    try:
        vals, vecs = np.linalg.eigh(np.array(mats))
    except np.linalg.LinAlgError:
        raise NumericalError("Gram eigendecomposition did not converge: its entries overflow") from None
    spectra = vals[:, ::-1].copy()
    frames = vecs[:, :, ::-1].copy()
    for frame, det in zip(frames, np.linalg.det(frames).tolist()):
        if det < 0:
            frame[:, -1] *= -1.0
    for site, spectrum in enumerate(spectra):
        if not np.isfinite(spectrum).all():
            raise NumericalError(f"site {site + 1} Gram matrix has a non-finite eigenvalue: its entries overflow")
    return invariants.GramTriple(n=t.n, mats=tuple(mats), spectra=tuple(spectra), frames=tuple(frames))


def power_vectors_head(mat, vec):
    pv = np.empty((3, 3))
    pv[0] = vec
    np.matmul(mat, vec, out=pv[1])
    np.matmul(mat, pv[1], out=pv[2])
    return pv


def triple_product_head(pv):
    (b0, b1, b2), (c0, c1, c2) = pv[1:].tolist()
    return float(np.dot(pv[0], [b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0]))


def sign_invariant_head(vec, mat):
    return triple_product_head(power_vectors_head(mat, vec))


def trace_powers_head(mat):
    m2 = mat @ mat
    return [float(mat.trace()), float(m2.trace()), float((m2 @ mat).trace())]


def invariants3_head(t):
    x, y, z = gram_mats_head(t.triple)
    av = power_vectors_head(x, t.alpha)
    bv = power_vectors_head(y, t.beta)
    cv = power_vectors_head(z, t.gamma)
    return np.concatenate([
        trace_powers_head(x), trace_powers_head(y), trace_powers_head(z),
        av @ t.alpha, bv @ t.beta, cv @ t.gamma,
        [triple_product_head(av), triple_product_head(bv), triple_product_head(cv)],
        (av @ t.pair_12 @ bv.T).ravel(),
        (av @ t.pair_13 @ cv.T).ravel(),
        (bv @ t.pair_23 @ cv.T).ravel(),
        np.einsum("ri,sj,tk,ijk->rst", av, bv, cv, t.triple).ravel(),
    ])


def invariants2_head(t):
    r = t.pair_12
    x, y = gram_mats_head(r)
    av = power_vectors_head(x, t.alpha)
    bv = power_vectors_head(y, t.beta)
    tr = trace_powers_head(x)
    return np.concatenate([
        [tr[0], tr[1], float(np.linalg.det(r))],
        av @ t.alpha,
        av @ (r @ t.beta),
        [triple_product_head(av)],
        bv @ t.beta,
        [triple_product_head(bv)],
    ])


def report_from_gram_head(g, vectors):
    n = g.n
    gaps, traces, mins, signs = [None] * 3, [None] * 3, [None] * 3, [None] * 3
    generic = True
    for site in range(n):
        s0, s1, s2 = g.spectra[site].tolist()
        gaps[site], traces[site] = min(s0 - s1, s1 - s2), 0.0 + s0 + s1 + s2
        mins[site] = min(map(abs, vectors[site].tolist()))
        signs[site] = abs(sign_invariant_head(vectors[site], np.diag(g.spectra[site])))
        for name, margin in (("eigengap", gaps[site]), ("Gram trace", traces[site]),
                             ("smallest component", mins[site]), ("sign invariant", signs[site])):
            if not np.isfinite(margin):
                raise NumericalError(f"site {site + 1} {name} is not finite: the tensor's scale overflows it")
        generic = generic and (
            gaps[site] > q.canonical.EIGENGAP_RTOL * traces[site]
            and mins[site] > q.canonical.COMPONENT_TOL
            and signs[site] > q.canonical.SIGN_INVARIANT_TOL
        )
    return q.GenericityReport(n=n, eigengaps=tuple(gaps), gram_traces=tuple(traces),
                              min_components=tuple(mins), sign_invariants=tuple(signs), generic=generic)


def frame_vectors_head(t, g):
    return [f.T @ v for f, v in zip(g.frames, (t.alpha, t.beta, t.gamma))]


def genericity_head(t):
    g = gram_head(t)
    return report_from_gram_head(g, frame_vectors_head(t, g))


def contract_head(arr, mats, sites):
    rank = len(sites)
    if rank == 1:
        return mats[sites[0]] @ arr
    if rank == 2:
        return mats[sites[0]] @ arr @ mats[sites[1]].T
    return np.einsum("im,jn,kp,mnp->ijk", mats[sites[0]], mats[sites[1]], mats[sites[2]], arr)


def transform_bloch_head(t, rotations):
    mats = rotations.mats
    return BlochTensor(n=t.n, **{
        name: contract_head(getattr(t, name), mats, sites) for name, sites in bloch._SITES[t.n].items()
    })


def expand_head(rho):
    n = rho.shape.n
    raw = np.einsum("wab,ba->w", bloch._flat_words(n), rho.matrix) / 2**n
    return BlochTensor.from_flat(n, raw.real)


def canonicalize3_head(t):
    g = gram_head(t)
    klein = [_uniform_sign_element(v) for v in frame_vectors_head(t, g)]
    gauge = RotationTriple(tuple(k @ f.T for k, f in zip(klein, g.frames)))
    canonical = transform_bloch_head(t, gauge)
    report = report_from_gram_head(g, [canonical.alpha, canonical.beta, canonical.gamma])
    return CanonicalPoint(tensor=canonical, gauge=gauge, report=report)


def signs_head(vec, tol):
    return tuple(0.0 if abs(v) <= tol else (1.0 if v > 0 else -1.0) for v in vec)


KLEIN_DIAGONALS_HEAD = tuple(tuple(np.diag(k).tolist()) for k in KLEIN)
KLEIN_FIRST_HEAD = np.repeat(KLEIN_DIAGONALS_HEAD, 4, axis=0)
KLEIN_SECOND_HEAD = np.tile(KLEIN_DIAGONALS_HEAD, (4, 1))


def canonicalize2_head(t):
    u, s, vt = np.linalg.svd(t.pair_12)
    du = float(np.sign(np.linalg.det(u))) or 1.0
    dv = float(np.sign(np.linalg.det(vt))) or 1.0
    r1 = np.array((u @ np.diag([1.0, 1.0, du])).T)
    r2 = np.array((vt.T @ np.diag([1.0, 1.0, dv])).T)
    alpha, beta, pair = r1 @ t.alpha, r2 @ t.beta, r1 @ t.pair_12 @ r2.T
    tol = KLEIN_SIGN_RTOL * (1.0 + float(np.abs(np.concatenate((alpha, beta, pair), axis=None)).max()))
    sa, sb, sd = (np.array(signs_head(v, tol)) for v in (alpha, beta, np.diag(pair)))
    keys = np.hstack((KLEIN_FIRST_HEAD * sa, KLEIN_SECOND_HEAD * sb, KLEIN_FIRST_HEAD * KLEIN_SECOND_HEAD * sd))
    best = int(np.lexsort(keys.T[::-1])[0])
    gauge = RotationTriple((KLEIN[best // 4] @ r1, KLEIN[best % 4] @ r2))
    canonical = transform_bloch_head(t, gauge)
    g = gram_head(canonical)
    report = report_from_gram_head(g, [canonical.alpha, canonical.beta])
    return CanonicalPoint(tensor=canonical, gauge=gauge, report=report)


def canonicalize_head(t):
    return canonicalize2_head(t) if t.n == 2 else canonicalize3_head(t)


def fingerprint_head(t):
    return invariants2_head(t) if t.n == 2 else invariants3_head(t)


# ---------------------------------------------------------------- references


def power_vectors_ref(mat, vec):
    mv = mat @ vec
    return np.stack([vec, mv, mat @ mv])


def sign_invariant_ref(vec, mat):
    pv = power_vectors_ref(mat, vec)
    return float(np.dot(pv[0], np.cross(pv[1], pv[2])))


def trace_powers_ref(mat):
    m2 = mat @ mat
    return [float(np.trace(mat)), float(np.trace(m2)), float(np.trace(m2 @ mat))]


def invariants3_ref(t):
    x, y, z = gram_mats_head(t.triple)
    av = power_vectors_ref(x, t.alpha)
    bv = power_vectors_ref(y, t.beta)
    cv = power_vectors_ref(z, t.gamma)
    return np.concatenate([
        trace_powers_ref(x), trace_powers_ref(y), trace_powers_ref(z),
        av @ t.alpha, bv @ t.beta, cv @ t.gamma,
        [sign_invariant_ref(t.alpha, x), sign_invariant_ref(t.beta, y), sign_invariant_ref(t.gamma, z)],
        (av @ t.pair_12 @ bv.T).ravel(),
        (av @ t.pair_13 @ cv.T).ravel(),
        (bv @ t.pair_23 @ cv.T).ravel(),
        np.einsum("ri,sj,tk,ijk->rst", av, bv, cv, t.triple).ravel(),
    ])


def invariants2_ref(t):
    r = t.pair_12
    x, y = gram_mats_head(r)
    av = power_vectors_ref(x, t.alpha)
    bv = power_vectors_ref(y, t.beta)
    tr = trace_powers_ref(x)
    return np.concatenate([
        [tr[0], tr[1], float(np.linalg.det(r))],
        av @ t.alpha,
        av @ (r @ t.beta),
        [sign_invariant_ref(t.alpha, x)],
        bv @ t.beta,
        [sign_invariant_ref(t.beta, y)],
    ])


def eig_desc_ref(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if np.linalg.det(vecs) < 0:
        vecs[:, -1] *= -1.0
    return vals, vecs


def gram_ref(t):
    """Spectra and frames from one eigh per site, or the error message."""
    mats = gram_mats_head(t.triple if t.n == 3 else t.pair_12)
    spectra, frames = [], []
    for m in mats:
        vals, vecs = eig_desc_ref(m)
        if not np.all(np.isfinite(vals)):
            return f"site {len(spectra) + 1} Gram matrix has a non-finite eigenvalue: its entries overflow"
        spectra.append(vals)
        frames.append(vecs)
    return spectra, frames


def report_ref(g, vectors):
    """The genericity margins, one numpy reduction per quantity."""
    out = {"gaps": [], "traces": [], "mins": [], "signs": []}
    for site in range(g.n):
        s = g.spectra[site]
        out["gaps"].append(float(min(s[0] - s[1], s[1] - s[2])))
        out["traces"].append(float(np.sum(s)))
        out["mins"].append(float(np.min(np.abs(vectors[site]))))
        out["signs"].append(abs(sign_invariant_ref(vectors[site], np.diag(s))))
    return out


def uniform_sign_element_ref(vec):
    tol = 1e-12 * (1.0 + float(np.max(np.abs(vec))))
    for k in KLEIN:
        s = tuple(0.0 if abs(v) <= tol else float(np.sign(v)) for v in k @ vec)
        nonzero = [v for v in s if v != 0.0]
        if all(v == nonzero[0] for v in nonzero) if nonzero else True:
            return k
    raise AssertionError("unreachable")


def canonicalize2_ref(t):
    """The SVD point built as a tensor, then 16 candidate keys scored by min."""
    u, s, vt = np.linalg.svd(t.pair_12)
    du = float(np.sign(np.linalg.det(u))) or 1.0
    dv = float(np.sign(np.linalg.det(vt))) or 1.0
    o1 = u @ np.diag([1.0, 1.0, du])
    o2 = vt.T @ np.diag([1.0, 1.0, dv])
    base_rot = RotationTriple((o1.T, o2.T))
    base = transform_bloch(t, base_rot)
    tol = KLEIN_SIGN_RTOL * (1.0 + base.max_abs())
    sa, sb, sd = (np.array(signs_head(v, tol)) for v in (base.alpha, base.beta, np.diag(base.pair_12)))

    def key(pair):
        s1, s2 = np.diag(pair[0]), np.diag(pair[1])
        return tuple(np.concatenate([s1 * sa, s2 * sb, s1 * s2 * sd]))

    k1, k2 = min(itertools.product(KLEIN, KLEIN), key=key)
    gauge = RotationTriple((k1 @ base_rot.mats[0], k2 @ base_rot.mats[1]))
    canonical = transform_bloch(t, gauge)
    report = report_from_gram_head(gram_head(canonical), [canonical.alpha, canonical.beta])
    return CanonicalPoint(tensor=canonical, gauge=gauge, report=report)


def expand_ref(rho):
    """One einsum per component."""
    n = rho.shape.n
    parts = {}
    for name, words in component_words_ref(n).items():
        raw = np.einsum("...ab,ba->...", words, rho.matrix) / 2**n
        parts[name] = raw.real
    return BlochTensor(n=n, **parts)


def max_abs_ref(t):
    return max(float(np.max(np.abs(arr))) for _, arr in t.component_items())


def rotation_error_ref(mats):
    """(r, message, margin) of the first rotation failing its checks, else None."""
    for r, o in enumerate(mats):
        o = np.array(o, dtype=float)
        if o.shape != (3, 3):
            return r, f"rotation {r} has shape {o.shape}", None
        dev = float(np.max(np.abs(o.T @ o - np.eye(3))))
        det_dev = abs(float(np.linalg.det(o)) - 1.0)
        if dev > UNITARITY_TOL or det_dev > UNITARITY_TOL:
            message = f"rotation {r}: orthogonality residue {dev:.3e}, |det - 1| = {det_dev:.3e}"
            return r, message, max(dev, det_dev)
    return None


def transform_bloch_ref(t, rotations):
    """One hand-written branch per n."""
    mats = rotations.mats
    if t.n == 1:
        return BlochTensor(n=1, alpha=mats[0] @ t.alpha)
    if t.n == 2:
        l, m = mats
        return BlochTensor(n=2, alpha=l @ t.alpha, beta=m @ t.beta, pair_12=l @ t.pair_12 @ m.T)
    l, m, nrot = mats
    return BlochTensor(
        n=3, alpha=l @ t.alpha, beta=m @ t.beta, gamma=nrot @ t.gamma,
        pair_12=l @ t.pair_12 @ m.T, pair_13=l @ t.pair_13 @ nrot.T, pair_23=m @ t.pair_23 @ nrot.T,
        triple=np.einsum("im,jn,kp,mnp->ijk", l, m, nrot, t.triple),
    )


def pair_from_mixed_ref(mixed, row_spectrum, row_vector, col_spectrum, col_vector):
    mixed = np.asarray(mixed, dtype=float).reshape(3, 3)
    row_inv = _inverse_factor(row_spectrum, row_vector)
    col_inv = _inverse_factor(col_spectrum, col_vector)
    return row_inv @ mixed @ col_inv.T


def triple_from_mixed_ref(mixed, spectra, vectors):
    mixed = np.asarray(mixed, dtype=float).reshape(3, 3, 3)
    factors = [_inverse_factor(sp, vec) for sp, vec in zip(spectra, vectors)]
    q_ = np.einsum("ir,js,kt,rst->ijk", factors[0], factors[1], factors[2], mixed)
    for site, g in enumerate(gram_mats_head(q_)):
        off = g - np.diag(np.diag(g))
        worst = float(np.max(np.abs(off)))
        scale = max(float(np.max(np.abs(np.diag(g)))), 1e-300)
        if worst > DIAGONALITY_RTOL * scale:
            raise ConstraintViolation(
                f"site {site + 1} Gram matrix of the recovered tensor is not diagonal "
                f"(off-diagonal {worst:.3e} vs scale {scale:.3e})"
            )
    return q_


def reconstruct_canonical_ref(inv):
    """Each pair and the triple recovered by hand, each inverting its own site factors."""
    signs = inv.sign_family()
    for label, value in zip(("site 1", "site 2", "site 3"), signs):
        if abs(value) <= reconstruction.SIGN_INVARIANT_TOL:
            raise q.ZeroSignInvariant(
                f"{label} sign invariant {value:.3e} below {reconstruction.SIGN_INVARIANT_TOL:.0e}"
            )
    spectra = tuple(spectra_from_traces(inv.trace_family(site)) for site in range(3))
    vectors = tuple(
        vector_from_quadratics(inv.quad_family(site), float(signs[site]), spectra[site])
        for site in range(3)
    )
    system = VandermondeSystem(spectra=spectra, vectors=vectors)
    system.verify_determinants()
    system.verify_signs(signs)
    tensor = BlochTensor(
        n=3, alpha=vectors[0], beta=vectors[1], gamma=vectors[2],
        pair_12=pair_from_mixed_ref(inv.pair_family("12"), spectra[0], vectors[0], spectra[1], vectors[1]),
        pair_13=pair_from_mixed_ref(inv.pair_family("13"), spectra[0], vectors[0], spectra[2], vectors[2]),
        pair_23=pair_from_mixed_ref(inv.pair_family("23"), spectra[1], vectors[1], spectra[2], vectors[2]),
        triple=triple_from_mixed_ref(inv.triple_family(), spectra, vectors),
    )
    return CanonicalPoint(tensor=tensor, gauge=RotationTriple.identity(3), report=genericity(tensor))


def reconstruct_ref(t):
    """1/2^n plus one tensordot per component, summed in component order."""
    d = 2**t.n
    m = np.eye(d, dtype=complex) / d
    for name, words in component_words_ref(t.n).items():
        coeff = getattr(t, name)
        m = m + np.tensordot(coeff, words, axes=coeff.ndim)
    return m


def kron_ref(mats):
    """The Kronecker product of mats, left to right, one np.kron per further factor."""
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


# sigma_x, sigma_y, sigma_z, written out rather than read from the library's generator basis.
PAULI_REF = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

# Component name -> index pattern over sites (None = identity at that site),
# in flatten() order.
COMPONENTS_REF = {
    1: [("alpha", (0,))],
    2: [("alpha", (0, None)), ("beta", (None, 0)), ("pair_12", (0, 1))],
    3: [
        ("alpha", (0, None, None)),
        ("beta", (None, 0, None)),
        ("gamma", (None, None, 0)),
        ("pair_12", (0, 1, None)),
        ("pair_13", (0, None, 1)),
        ("pair_23", (None, 0, 1)),
        ("triple", (0, 1, 2)),
    ],
}


def component_words_ref(n):
    """The Pauli-word stack of each component, built from its index pattern."""
    eye = np.eye(2, dtype=complex)
    words = {}
    for name, pattern in COMPONENTS_REF[n]:
        axes = sum(1 for p in pattern if p is not None)
        stack = np.empty((3,) * axes + (2**n, 2**n), dtype=complex)
        for idx in itertools.product(range(3), repeat=axes):
            stack[idx] = kron_ref([eye if p is None else PAULI_REF[idx[p]] for p in pattern])
        words[name] = stack
    return words


def lift_rotation_ref(o):
    """Shepperd's quaternion extraction, one hand-written branch per largest component."""
    o = np.asarray(o, dtype=float)
    if o.shape != (3, 3):
        raise ShapeMismatch(f"expected a 3x3 matrix, got {o.shape}")
    orth_dev = float(np.max(np.abs(o.T @ o - np.eye(3))))
    det_dev = abs(float(np.linalg.det(o)) - 1.0)
    if orth_dev > SPECIAL_TOL or det_dev > SPECIAL_TOL:
        raise NotSpecialOrthogonal(
            f"orthogonality residue {orth_dev:.3e}, |det - 1| = {det_dev:.3e}",
            margin=max(orth_dev, det_dev),
        )
    t = float(np.trace(o))
    candidates = [1.0 + t, 1.0 + 2.0 * o[0, 0] - t, 1.0 + 2.0 * o[1, 1] - t, 1.0 + 2.0 * o[2, 2] - t]
    best = int(np.argmax(candidates))
    q_ = np.empty(4)
    if best == 0:
        w = 0.5 * np.sqrt(max(candidates[0], 0.0))
        q_[:] = (w, (o[2, 1] - o[1, 2]) / (4 * w), (o[0, 2] - o[2, 0]) / (4 * w), (o[1, 0] - o[0, 1]) / (4 * w))
    elif best == 1:
        x = 0.5 * np.sqrt(max(candidates[1], 0.0))
        q_[:] = ((o[2, 1] - o[1, 2]) / (4 * x), x, (o[0, 1] + o[1, 0]) / (4 * x), (o[0, 2] + o[2, 0]) / (4 * x))
    elif best == 2:
        y = 0.5 * np.sqrt(max(candidates[2], 0.0))
        q_[:] = ((o[0, 2] - o[2, 0]) / (4 * y), (o[0, 1] + o[1, 0]) / (4 * y), y, (o[1, 2] + o[2, 1]) / (4 * y))
    else:
        z = 0.5 * np.sqrt(max(candidates[3], 0.0))
        q_[:] = ((o[1, 0] - o[0, 1]) / (4 * z), (o[0, 2] + o[2, 0]) / (4 * z), (o[1, 2] + o[2, 1]) / (4 * z), z)
    q_ /= np.linalg.norm(q_)
    for component in q_:
        if abs(component) > LIFT_BRANCH_TOL:
            if component < 0:
                q_ = -q_
            break
    w, x, y, z = q_
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=complex)


def folded_frame_ref(rho):
    """Each generator's folded frame row Re X + Im X of X = i[h, rho], written as
    [Re(h rho) - Im(h rho)] - [Re(rho h) - Im(rho h)] with h = 1 x t x 1 embedded at D x D.

    A nonzero h[p, q] is real c or imaginary i c, so row p of h rho contributes
    c M[q] or -c N[q], and column q of rho h contributes c M[:, p] or -c N[:, p],
    where M = Re rho - Im rho and N = Re rho + Im rho.
    """
    m, dims, d_total = rho.matrix, rho.shape.dims, rho.shape.total_dim
    sources = (m.real - m.imag, m.real + m.imag)
    rows = []
    for site, d in enumerate(dims):
        eye_b = np.eye(int(np.prod(dims[:site])), dtype=complex)
        eye_a = np.eye(int(np.prod(dims[site + 1:])), dtype=complex)
        for t in q.generator_basis(d).generators:
            h = np.kron(np.kron(eye_b, t), eye_a)
            left, right = np.zeros((d_total, d_total)), np.zeros((d_total, d_total))
            for p, k in zip(*np.nonzero(h)):
                imaginary = int(h[p, k].imag != 0)
                w = h[p, k].real - h[p, k].imag
                left[p] = w * sources[imaginary][k]
                right[:, k] = w * sources[imaginary][:, p]
            rows.append((left - right).ravel())
    return np.array(rows)


def orbit_dimension_ref(rho, tol=RANK_RTOL):
    """Rank the materialized folded frame: each QR_BLOCK of columns into the running factor."""
    folded = folded_frame_ref(rho)
    k, half = folded.shape
    buf = np.empty((k + orbit_dim._QR_BLOCK, k), order="F")
    rows = 0
    for start in range(0, half, orbit_dim._QR_BLOCK):
        stop = min(start + orbit_dim._QR_BLOCK, half)
        end = rows + stop - start
        buf[rows:end] = folded[:, start:stop].T
        r = np.linalg.qr(buf[:end], mode="r")
        rows = r.shape[0]
        buf[:rows] = r
    s = np.linalg.svd(buf[:rows], compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    dim = 0 if smax == 0.0 else int(np.sum(s > tol * smax))
    return OrbitDimension(dimension=dim, singular_values=s)


# ---------------------------------------------------------------- inputs

# Exact zeros of both signs, tied magnitudes and signs, values straddling
# the 1e-12 sign tolerance, and magnitudes from 1e-150 up.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-12, -1e-12, 2e-12, 1e-150, -1e-150, 5e-324]
scalars = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=True),
    st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=-1.0, max_value=1.0), st.integers(-150, 1)),
)


def arrays(shape):
    size = int(np.prod(shape))
    return st.lists(scalars, min_size=size, max_size=size).map(lambda v: np.array(v).reshape(shape))


def tensors(n):
    names = [name for name, _ in bloch._components(n)]
    return st.tuples(*(arrays(bloch._SHAPES[name]) for name in names)).map(
        lambda parts: BlochTensor(n=n, **dict(zip(names, parts))))


def depolarized(n: int, rank: int, seed: int, p: float) -> q.DensityMatrix:
    """A random n-qubit state of the given rank, mixed toward 1/2^n with weight 1 - p."""
    shape = q.SystemShape((2,) * n)
    rho = q.random_state(shape, rank=rank, seed=seed)
    d = 2**n
    return q.DensityMatrix(shape, (1.0 - p) * np.eye(d) / d + p * rho.matrix)


def states(n):
    """Random states of every rank, some depolarized toward 1e-150 contrast."""
    @st.composite
    def draw(draw_):
        rank = draw_(st.integers(1, 2**n))
        seed = draw_(st.integers(0, 10**6))
        return depolarized(n, rank, seed, draw_(st.sampled_from([1.0, 0.5, 1e-3, 1e-50, 1e-150])))
    return draw()


def rotation(seed: int, noise: float, reflect: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    o, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(o) < 0:
        o[:, 0] *= -1.0
    if reflect:
        o[:, 2] *= -1.0
    return o + noise * rng.standard_normal((3, 3))


rotations = st.builds(rotation, st.integers(0, 10**6),
                      st.sampled_from([0.0, 1e-15, 1e-13, 3e-13, 1e-12, 1e-11, 1e-6]), st.booleans())


def unchecked_rotations(mats) -> RotationTriple:
    """A RotationTriple over any 3x3 matrices, skipping the SO(3) checks.

    The contraction is the same arithmetic whether or not the matrices are
    rotations, so the noisy and reflected draws above are compared too.
    """
    triple = object.__new__(RotationTriple)
    object.__setattr__(triple, "mats", tuple(mats))
    return triple


tensors_and_rotations = st.integers(1, 3).flatmap(
    lambda n: st.tuples(tensors(n), st.lists(rotations, min_size=n, max_size=n)))


def outcome(fn, *args):
    """The result of fn, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)


def same_point(got, want) -> bool:
    """The same error, or the same tensor and gauge bytes and the same report repr."""
    if not isinstance(want, CanonicalPoint):
        return got == want
    return (isinstance(got, CanonicalPoint) and repr(got.report) == repr(want.report)
            and same_bits(got.tensor.flatten(), want.tensor.flatten())
            and len(got.gauge.mats) == len(want.gauge.mats)
            and all(same_bits(a, b) for a, b in zip(got.gauge.mats, want.gauge.mats)))


def two_qubit_cases() -> dict:
    """Tensors whose Klein keys tie: zero vector components, no vectors, low-rank pairs."""
    rng = np.random.default_rng(11)
    a, b, pair = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3))
    u, s, vt = np.linalg.svd(pair)
    zero = np.zeros(3)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    shape = q.SystemShape((2, 2))
    cases = {
        "zero tensor": (zero, zero, np.zeros((3, 3))),
        "no vectors": (zero, zero, pair),
        "no vectors, det < 0": (zero, zero, -pair),
        "rank-2 pair": (a, b, u @ np.diag([s[0], s[1], 0.0]) @ vt),
        "rank-2 pair, no vectors": (zero, zero, u @ np.diag([s[0], s[1], 0.0]) @ vt),
        "rank-1 pair": (a, b, np.outer(a, b)),
        "rank-1 pair, no vectors": (zero, zero, np.outer(a, b)),
        "diagonal pair, zero components": ([0.5, 0.0, -0.2], [0.0, 0.0, 0.3], np.diag([3.0, 2.0, 1.0])),
        "diagonal pair, signed zeros": ([-0.0, 0.25, 0.0], [0.0, -0.0, -0.5], np.diag([-3.0, 2.0, -1.0])),
        # KLEIN_SIGN_RTOL * (1 + 3) rounds to exactly 4e-12: components on the sign tolerance.
        "components on the sign tolerance": ([4e-12, 0.5, -0.2], [0.0, -4e-12, 0.3], np.diag([3.0, 2.0, 1.0])),
        "identity pair, one vector": ([0.0, 0.0, 0.1], zero, np.eye(3)),
    }
    tensors_ = {name: BlochTensor(n=2, alpha=np.array(x, dtype=float), beta=np.array(y, dtype=float),
                                  pair_12=p) for name, (x, y, p) in cases.items()}
    tensors_["bell state"] = q.expand(q.DensityMatrix(shape, np.outer(bell, bell)))
    tensors_["product state"] = q.expand(q.DensityMatrix(shape, np.diag([1.0, 0.0, 0.0, 0.0])))
    tensors_["maximally mixed"] = q.expand(q.maximally_mixed(shape))
    return tensors_


TWO_QUBIT_CASES = two_qubit_cases()


SITE_BREAKS = ("traces", "quadratics", "spectrum")


def broken_sites(seed: int, sites, kinds, size: float, exponent: int) -> q.InvariantSet3:
    """The invariants of a random 3-qubit state with ``sites[i]`` broken by ``kinds[i]``.

    "traces" raises tr X^2 above (tr X)^2, which no PSD spectrum allows
    (InconsistentTraces); "quadratics" scales each quadratic by 1 + size * u,
    u uniform in [-1, 1] (NegativeSquare or ConstraintViolation);
    "spectrum" gives the traces of the site's Gram spectrum with its top two
    eigenvalues 10^exponent apart, relatively (DegenerateSpectrum).
    """
    t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=seed))
    values, rng = q.invariants3(t).values.copy(), np.random.default_rng(seed)
    for site, kind in zip(sites, kinds):
        if kind == "traces":
            values[3 * site + 1] = values[3 * site] ** 2 * (1.0 + size)
        elif kind == "quadratics":
            values[9 + 3 * site:12 + 3 * site] *= 1.0 + size * rng.uniform(-1.0, 1.0, 3)
        else:
            lam = q.gram(t).spectra[site].copy()
            lam[1] = lam[0] * (1.0 - 10.0**exponent)
            values[3 * site:3 * site + 3] = [np.sum(lam**r) for r in (1, 2, 3)]
    return q.InvariantSet3(values)


# ---------------------------------------------------------------- tests


class TestInvariantKernels:
    @settings(max_examples=300, deadline=None)
    @given(arrays((3,)), arrays((3, 3)))
    def test_sign_invariant(self, vec, mat):
        assert same_bits(_triple_product(_power_vectors(mat, vec)), sign_invariant_ref(vec, mat))
        sym = mat @ mat.T
        assert same_bits(_triple_product(_power_vectors(sym, vec)), sign_invariant_ref(vec, sym))

    @settings(max_examples=300, deadline=None)
    @given(arrays((3, 3)))
    def test_triple_product_matches_np_cross(self, pv):
        assert same_bits(_triple_product(pv), float(np.dot(pv[0], np.cross(pv[1], pv[2]))))

    @settings(max_examples=100, deadline=None)
    @given(tensors(3))
    def test_invariants3(self, t):
        assert same_bits(q.invariants3(t).values, invariants3_ref(t))

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in det:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(tensors(2))
    def test_invariants2(self, t):
        assert same_bits(q.invariants2(t).values, invariants2_ref(t))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tensors(2), tensors(3)))
    def test_gram(self, t):
        ref = gram_ref(t)
        if isinstance(ref, str):
            with pytest.raises(NumericalError) as info:
                invariants.gram(t)
            assert str(info.value) == ref
            return
        g = invariants.gram(t)
        assert len(g.spectra) == len(g.frames) == len(ref[0]) == t.n
        for got, want in zip(g.spectra + g.frames, ref[0] + ref[1]):
            assert same_bits(got, want)
            assert got.flags.c_contiguous

    def test_gram_of_zero_tensor(self):
        t = BlochTensor.from_flat(3, np.zeros(63))
        g = invariants.gram(t)
        spectra, frames = gram_ref(t)
        for got, want in zip(g.spectra + g.frames, spectra + frames):
            assert same_bits(got, want)

    @settings(max_examples=200, deadline=None)
    @given(arrays((75,)), arrays((75,)), st.sampled_from([1e-30, 1e-3, 1.0, 7.5]),
           st.sampled_from([invariants.COMPARE_RTOL, 0.0, 1e-3, 1e-12]), st.booleans())
    def test_first_disagreement(self, a, b, scale, rtol, two_qubits):
        b = np.where(np.arange(75) % 3 == 0, a, b)  # plenty of exact agreements
        degrees = invariants.DEGREES2 if two_qubits else invariants.DEGREES3
        a, b = a[:len(degrees)], b[:len(degrees)]

        def ref():
            diffs = np.abs(a - b)
            for i, (diff, k) in enumerate(zip(diffs, degrees)):
                if diff > rtol * scale**k:
                    return i
            return None

        assert invariants.first_disagreement(a, b, degrees, scale, rtol) == ref()


class TestCanonicalKernels:
    @settings(max_examples=500, deadline=None)
    @given(arrays((3,)))
    def test_uniform_sign_element(self, vec):
        assert _uniform_sign_element(vec) is uniform_sign_element_ref(vec)

    @pytest.mark.parametrize("vec", [
        (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, -1.0, 1.0), (-1.0, -1.0, 1.0),
        (0.0, -1.0, 1.0), (1e-13, -1.0, 1.0), (-2e-12, 1.0, 1.0), (1e-150, -1e-150, 0.0),
    ])
    def test_uniform_sign_element_ties_and_zeros(self, vec):
        vec = np.array(vec)
        assert _uniform_sign_element(vec) is uniform_sign_element_ref(vec)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tensors(2), tensors(3)), st.lists(arrays((3,)), min_size=3, max_size=3))
    def test_report_from_gram(self, t, vectors):
        try:
            g = invariants.gram(t)
        except NumericalError:
            return
        vectors = vectors[:t.n]
        report = _reports(np.array(g.spectra)[:, None], np.array(vectors)[:, None])[0]
        ref = report_ref(g, vectors)
        for got, want in ((report.eigengaps, ref["gaps"]), (report.gram_traces, ref["traces"]),
                          (report.min_components, ref["mins"]), (report.sign_invariants, ref["signs"])):
            assert same_bits(np.array(got[:t.n], dtype=float), np.array(want))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tensors(2), states(2).map(q.expand)))
    def test_canonicalize2(self, t):
        assert same_point(outcome(q.canonicalize2, t), outcome(canonicalize2_ref, t))

    @pytest.mark.parametrize("name", list(TWO_QUBIT_CASES))
    def test_canonicalize2_ties_and_zeros(self, name):
        t = TWO_QUBIT_CASES[name]
        got, want = outcome(q.canonicalize2, t), outcome(canonicalize2_ref, t)
        assert isinstance(want, CanonicalPoint)
        assert same_point(got, want)

    def test_klein_pair_on_every_sign_pattern(self):
        """The cached lookup picks the element the lexsort of canonicalize2_head picks, on all
        3^9 sign patterns of (alpha, beta, diagonal), ties and zeros included; a -0.0 pattern
        reads the entry of its 0.0 twin."""
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=9):
            sa, sb, sd = (np.array(pattern[k:k + 3]) for k in (0, 3, 6))
            keys = np.hstack((KLEIN_FIRST_HEAD * sa, KLEIN_SECOND_HEAD * sb,
                              KLEIN_FIRST_HEAD * KLEIN_SECOND_HEAD * sd))
            best = _klein_pair(pattern[:3], pattern[3:6], pattern[6:])
            assert best == int(np.lexsort(keys.T[::-1])[0]), pattern
            negated = tuple(-0.0 if v == 0.0 else v for v in pattern)
            assert _klein_pair(negated[:3], negated[3:6], negated[6:]) == best, pattern

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(states(2).map(q.expand), states(3).map(q.expand), tensors(2), tensors(3)),
           st.one_of(st.none(), st.floats(0.0, 154.0)))
    def test_canonical_gauges_are_rotations(self, t, exponent):
        """Every gauge of the batched construction passes the SO(3) check it does not make,
        also with the tensor rescaled to a largest entry of 10^exponent, up to where the
        reports refuse the overflowing degree-9 sign invariants (about 10^34)."""
        scale = t.max_abs()
        if exponent is not None and scale > 0.0:
            t = BlochTensor.from_flat(t.n, t.flatten() / scale * 10.0**exponent)
        try:
            _, gauge, _ = _canonical(bloch._parts(t), t.n)
        except NumericalError:
            return
        _check_rotations(gauge)

    def test_trace_keeps_np_sum_signed_zero(self):
        spectra = np.full((2, 1, 3), -0.0)
        report = _reports(spectra, np.ones((2, 1, 3)))[0]
        assert same_bits(report.gram_traces[0], float(np.sum(spectra[0, 0])))


class TestBlochKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(states(1), states(2), states(3)))
    def test_expand(self, rho):
        t, ref = q.expand(rho), expand_ref(rho)
        for (name, got), (_, want) in zip(t.component_items(), ref.component_items()):
            assert same_bits(got, want), name
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("vec", [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 1], [1, 1j, 0, 0, 0, 0, 0, -1]])
    def test_expand_pure_states_with_exact_zeros(self, vec):
        v = np.array(vec, dtype=complex) / np.linalg.norm(vec)
        rho = q.DensityMatrix(q.SystemShape((2, 2, 2)), np.outer(v, v.conj()))
        assert same_bits(q.expand(rho).flatten(), expand_ref(rho).flatten())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(states(n), st.integers(0, 4**n - 2), st.booleans())))
    def test_dropped_imaginary_part_is_within_the_hermiticity_bound(self, case):
        """A state off Hermitian by 0.99 HERMITICITY_RTOL along a Pauli word W is valid, and the
        imaginary parts the expansion drops stay below HERMITICITY_RTOL * max|m| / 2 plus einsum
        roundoff. The W coefficient comes within 1 % of that bound."""
        rho, word, positive = case
        n = rho.shape.n
        words = bloch._flat_words(n)
        # i c W is anti-Hermitian, so max|m - m^H| = 2|c|.
        c = (1.0 if positive else -1.0) * 0.495 * HERMITICITY_RTOL * float(np.abs(rho.matrix).max())
        m = q.DensityMatrix(rho.shape, rho.matrix + 1j * c * words[word]).matrix
        raw = np.einsum("wab,ba->w", words, m) / 2**n
        scale = float(np.abs(m).max())
        assert float(np.abs(raw.imag).max()) <= 0.5 * HERMITICITY_RTOL * scale + 1e-14
        assert abs(raw[word].imag) >= 0.99 * 0.5 * HERMITICITY_RTOL * scale - 1e-14
        assert same_bits(_expand(m[None], n)[0], raw.real)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tensors(1), tensors(2), tensors(3)))
    def test_max_abs(self, t):
        assert same_bits(t.max_abs(), max_abs_ref(t))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(states(2), states(3)))
    def test_kernel_built_tensors_are_the_checked_ones(self, rho):
        """expand, canonicalize and reconstruct_canonical build their tensors without the constructor's checks."""
        t = q.expand(rho)
        built = [t, q.canonicalize(t).tensor]
        if t.n == 3:
            rebuilt = outcome(q.reconstruct_canonical, q.invariants3(t))
            built += [rebuilt.tensor] if isinstance(rebuilt, CanonicalPoint) else []
        for tensor in built:
            checked = BlochTensor(n=tensor.n, **dict(tensor.component_items()))
            assert same_bits(tensor.flatten(), checked.flatten())
            for (name, got), (_, want) in zip(tensor.component_items(), checked.component_items()):
                assert same_bits(got, want), name
                assert not got.flags.writeable, name

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_kernel_built_tensor_with_a_non_finite_component(self, n, bad):
        names = [name for name, _ in bloch._components(n)]
        for name in names:
            parts = bloch._split(np.zeros((2, sum(3 ** len(s) for _, s in bloch._components(n)))), n)
            parts[name][1].flat[-1] = bad
            with pytest.raises(ValidationError, match=f"component '{name}' has a non-finite entry"):
                bloch._tensor(parts, n, 1)
            assert same_bits(bloch._tensor(parts, n, 0).flatten(), np.zeros(len(_flat(parts)[0])))

    def test_from_flat_holds_no_view_of_its_input(self):
        vec = np.zeros(63)
        t = BlochTensor.from_flat(3, vec)
        vec[:] = 1.0
        assert not t.flatten().any()


def pi_turn(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2.0 * np.outer(n, n) - np.eye(3)


# Rotations whose Shepperd diagonal has exact ties, with the tied entries.
# The last four (identity and pi turns about the axes) are the Klein elements.
TIED_ROTATIONS = {
    "pi about (1,1,0)": ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], (1, 2)),
    "pi about (1,0,1)": ([[0, 0, 1], [0, -1, 0], [1, 0, 0]], (1, 3)),
    "pi about (0,1,1)": ([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], (2, 3)),
    "2pi/3 about (1,1,1)": ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], (0, 1, 2, 3)),
    "identity": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0,)),
    "pi about x": ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (1,)),
    "pi about y": ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (2,)),
    "pi about z": ([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], (3,)),
}


class TestLocalActionKernels:
    @staticmethod
    def assert_same_lift(o):
        got, want = outcome(q.lift_rotation, o), outcome(lift_rotation_ref, o)
        assert same_bits(got, want) if isinstance(want, np.ndarray) else got == want

    @settings(max_examples=300, deadline=None)
    @given(rotations)
    def test_lift_rotation(self, o):
        self.assert_same_lift(o)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any))
    def test_lift_rotation_after_pi_turn(self, seed, axis):
        """A pi turn about a small integer axis zeroes the trace entry of the diagonal
        and ties or nearly ties the others; composed with a rotation it is a generic draw."""
        o = rotation(seed, 0.0, False)
        self.assert_same_lift(o @ pi_turn(axis))
        self.assert_same_lift(pi_turn(axis))

    def test_klein_elements_are_tied_rotations(self):
        klein = [np.array(o, dtype=float) for o, _ in list(TIED_ROTATIONS.values())[-4:]]
        assert all(same_bits(a, b) for a, b in zip(klein, KLEIN))

    @pytest.mark.parametrize("name", TIED_ROTATIONS)
    def test_lift_rotation_on_exact_ties(self, name):
        o, tied = TIED_ROTATIONS[name]
        o = np.array(o, dtype=float)
        t = np.trace(o)
        diagonal = np.array([1.0 + t, *(1.0 + 2.0 * np.diag(o) - t)])
        assert [i for i, c in enumerate(diagonal) if c == diagonal.max()] == list(tied)
        self.assert_same_lift(o)

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (4, 2), (2, 2, 2), (3, 2, 4), (2,) * 5])
    def test_full_matrix(self, dims):
        u = q.haar_local(q.SystemShape(dims), seed=len(dims) + sum(dims))
        got = u.full_matrix()
        assert same_bits(got, kron_ref(u.factors))
        if len(dims) == 1:
            assert got is u.factors[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_component_words_match_index_patterns(self, n):
        want = component_words_ref(n)
        assert list(want) == [name for name, _ in bloch._components(n)]
        for name, words in want.items():
            assert words.shape[:-2] == bloch._SHAPES[name]
        d = 2**n
        assert same_bits(bloch._flat_words(n), np.concatenate([words.reshape(-1, d, d) for words in want.values()]))

    def test_pauli_basis_is_the_literal_table(self):
        assert same_bits(bloch.PAULI, PAULI_REF)
        assert not bloch.PAULI.flags.writeable


class TestRotationChecks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rotations, min_size=1, max_size=3))
    def test_stacked_checks_match_per_rotation(self, mats):
        ref = rotation_error_ref(mats)
        if ref is None:
            built = RotationTriple(tuple(mats))
            for got, want in zip(built.mats, mats):
                assert same_bits(got, want) and not got.flags.writeable
            return
        with pytest.raises(NotSpecialOrthogonal) as info:
            RotationTriple(tuple(mats))
        assert str(info.value) == ref[1]
        assert same_bits(info.value.margin, ref[2])

    def test_bad_second_rotation_named_with_margin(self):
        good = rotation(1, 0.0, False)
        bad = rotation(2, 1e-9, False)
        _, message, margin = rotation_error_ref([good, bad, good])
        with pytest.raises(NotSpecialOrthogonal) as info:
            RotationTriple((good, bad, good))
        assert str(info.value).startswith("rotation 1: ")
        assert str(info.value) == message
        assert info.value.margin == margin and margin > UNITARITY_TOL

    @pytest.mark.parametrize("first_ok", [True, False])
    def test_error_order_with_a_misshapen_rotation(self, first_ok):
        first = rotation(1, 0.0, not first_ok)
        mats = (first, np.eye(2))
        r, message, _ = rotation_error_ref(mats)
        expected = ShapeMismatch if first_ok else NotSpecialOrthogonal
        with pytest.raises(expected) as info:
            RotationTriple(mats)
        assert r == (1 if first_ok else 0)
        assert str(info.value) == message



class TestTransformBloch:
    @settings(max_examples=300, deadline=None)
    @given(tensors_and_rotations)
    def test_matches_per_n_branches(self, drawn):
        t, mats = drawn
        rotations = unchecked_rotations(mats)
        got, want = q.transform_bloch(t, rotations), transform_bloch_ref(t, rotations)
        assert [name for name, _ in got.component_items()] == [name for name, _ in want.component_items()]
        for (name, a), (_, b) in zip(got.component_items(), want.component_items()):
            assert same_bits(a, b), name


def same_outcome(got, want) -> bool:
    """same_point for canonical points, bytes for arrays, equality otherwise."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and same_bits(got, want)
    if isinstance(want, q.GenericityReport):
        return repr(got) == repr(want)
    if isinstance(want, invariants.GramTriple):
        return (isinstance(got, invariants.GramTriple)
                and all(same_bits(a, b) for a, b in zip(got.mats + got.spectra + got.frames,
                                                         want.mats + want.spectra + want.frames)))
    return same_point(got, want)


def canonical_with_reports(parts: dict, n: int, g: np.ndarray):
    """``_canonical``'s components and gauges with the reports that ``canonicalize`` builds from its
    spectra, as a batched canonical result."""
    canonical, gauge, spectra = _canonical(parts, n, g)
    return canonical, gauge, _reports(spectra, bloch._site_vectors(canonical))


def batch_member_point(batch, n: int, b: int) -> CanonicalPoint:
    """Member b of a batched canonical result, as a point."""
    canonical, gauge, reports = batch
    return CanonicalPoint(tensor=bloch._tensor(canonical, n, b), gauge=RotationTriple(tuple(gauge[:, b])),
                          report=reports[b])


def rescaled(t: BlochTensor, exponent: float) -> BlochTensor:
    """t with its largest entry moved to 10^exponent; the zero tensor stays as it is."""
    scale = t.max_abs()
    return t if scale == 0.0 else BlochTensor.from_flat(t.n, t.flatten() / scale * 10.0**exponent)


def generic_state(n: int, seed: int, exponent: float) -> BlochTensor:
    return rescaled(q.expand(q.random_state(q.SystemShape((2,) * n), seed=seed)), exponent)


def tensor_pairs(n):
    """Pairs of random tensors and expanded states, some rescaled to a largest entry of 10^35
    to 10^60, where the reports' degree-9 sign invariants overflow, or of 10^160 to 10^200,
    where the Gram matrices do: random pairs often have two failing members."""
    members = [tensors(n), states(n).map(q.expand)]
    members.append(st.builds(rescaled, st.one_of(*members), st.one_of(st.floats(35, 60), st.floats(160, 200))))
    return st.tuples(st.one_of(*members), st.one_of(*members))


state_pairs = st.integers(2, 3).flatmap(lambda n: st.tuples(states(n), states(n)))


def raised(fn, *args):
    """The result of fn, or the error it raised."""
    try:
        return fn(*args)
    except ToolkitError as exc:
        return exc


def same_error(got, want) -> bool:
    """The same type, message and margin (bit for bit, or None for both)."""
    margins = getattr(got, "margin", None), getattr(want, "margin", None)
    return (type(got) is type(want) and str(got) == str(want)
            and (margins == (None, None) or same_bits(*margins)))


# The check stages of each canonical construction, in the order it runs them.
# Each stage is an error type and a part of its message. The Gram stages: eigh fails for the
# whole batch, then a member has a non-finite eigenvalue.
GRAM_STAGES = ((NumericalError, "did not converge"), (NumericalError, "non-finite eigenvalue"))
REPORT_STAGE = (NumericalError, "scale overflows it")
CANONICAL_STAGES = {2: ((NotSpecialOrthogonal, ""),) + GRAM_STAGES + (REPORT_STAGE,),
                    3: GRAM_STAGES + (REPORT_STAGE, (NotSpecialOrthogonal, ""))}


def first_failure(results, stages):
    """The error a batch raises, from each member's result or error alone: at the first
    stage that some member fails, the error of the first member failing it (None if all pass)."""
    failing = [(next(i for i, (kind, text) in enumerate(stages) if isinstance(r, kind) and text in str(r)), b)
               for b, r in enumerate(results) if isinstance(r, ToolkitError)]
    return results[min(failing)[1]] if failing else None


class TestPairBatch:
    """The batched kernels against the single-state bodies they replaced."""

    @staticmethod
    def assert_batch_of_one(t):
        n = t.n
        pairs = [
            (q.invariants.fingerprint, fingerprint_head),
            (q.canonicalize, canonicalize_head),
            (q.genericity, genericity_head),
            (q.gram, gram_head),
        ]
        for fn, head in pairs:
            got, want = outcome(fn, t), outcome(head, t)
            if fn is q.invariants.fingerprint:
                got = got.values
            assert same_outcome(got, want), fn.__name__
        rotations = unchecked_rotations([rotation(n + k, 1e-13, False) for k in range(n)])
        got, want = q.transform_bloch(t, rotations), transform_bloch_head(t, rotations)
        assert same_bits(got.flatten(), want.flatten())

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(states(2), states(3)))
    def test_batch_of_one_on_states(self, rho):
        t, want = q.expand(rho), expand_head(rho)
        assert same_bits(t.flatten(), want.flatten())
        self.assert_batch_of_one(t)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in det:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tensors(2), tensors(3)))
    def test_batch_of_one_on_tensors(self, t):
        self.assert_batch_of_one(t)

    @staticmethod
    def assert_either_member(tensors_, n, g=None):
        parts = {name: np.array([getattr(t, name) for t in tensors_]) for name, _ in bloch._components(n)}
        if g is None:
            g = _gram_mats(parts["triple"] if n == 3 else parts["pair_12"])
        _, values = _fingerprint(parts, g, n)
        # decide compares the head (members 0-20 of n = 3, all 14 of n = 2) first; _fingerprint
        # appends the rest to it, so fingerprint_head below pins both.
        _, head, _ = _head(parts, g, n)
        assert head.shape == (2, 14 if n == 2 else 21) and same_bits(head, values[:, :head.shape[1]])
        mats = np.array([[rotation(7 * b + k, 1e-13, b == 1) for b in range(2)] for k in range(n)])
        rotated = _flat(_rotate(parts, mats))
        for b, t in enumerate(tensors_):
            assert same_bits(g[:, b], np.array(gram_mats_head(t.triple if n == 3 else t.pair_12)))
            assert same_bits(values[b], fingerprint_head(t))
            moved = transform_bloch_head(t, unchecked_rotations([m[b] for m in mats]))
            assert same_bits(rotated[b], moved.flatten())
        heads = [raised(gram_head, t) for t in tensors_]
        got, want = raised(_eigen, g), first_failure(heads, GRAM_STAGES)
        if want is not None:
            assert same_error(got, want)
        else:
            for b, head in enumerate(heads):
                assert same_bits(got[0][:, b], np.array(head.spectra))
                assert same_bits(got[1][:, b], np.array(head.frames))
        heads = [raised(canonicalize_head, t) for t in tensors_]
        got, want = raised(canonical_with_reports, parts, n, g), first_failure(heads, CANONICAL_STAGES[n])
        if want is not None:
            assert same_error(got, want)
        else:
            for b, head in enumerate(heads):
                assert same_point(batch_member_point(got, n, b), head)

    @settings(max_examples=100, deadline=None)
    @given(state_pairs)
    def test_either_member_of_a_state_pair(self, pair):
        rho1, rho2 = pair
        n = rho1.shape.n
        coeffs = _expand(np.array((rho1.matrix, rho2.matrix)), n)
        tensors_ = [expand_head(rho) for rho in pair]
        for b, t in enumerate(tensors_):
            assert same_bits(np.array(coeffs[b]), np.array(t.flatten()))
        parts = _split(coeffs, n)
        assert all(same_bits(parts[name][b], arr) for b, t in enumerate(tensors_) for name, arr in t.component_items())
        self.assert_either_member(tensors_, n)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in det:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3).flatmap(tensor_pairs))
    @example((generic_state(3, 1, 40.0), generic_state(3, 2, 180.0)))
    @example((generic_state(3, 1, 0.0), generic_state(3, 8, 40.0)))
    @example((generic_state(2, 3, 50.0), generic_state(2, 4, 45.0)))
    def test_either_member_of_a_tensor_pair(self, pair):
        # Where a member's Gram matrices or sign invariants overflow, the references warn.
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_either_member(list(pair), pair[0].n)

    def test_gram_error_of_the_first_member_first(self):
        """Each member as its list of Gram matrices, some with a non-finite entry or with
        entries so large that an eigenvalue overflows; the message names the failing site."""
        ok, nan, inf = np.diag([3.0, 2.0, 1.0]), np.diag([3.0, np.nan, 1.0]), np.diag([np.inf, 2.0, 1.0])
        huge = np.full((3, 3), 1e308)
        cases = [
            (((ok, ok, nan), (inf, ok, ok)), 3),
            (((ok, inf, ok), (ok, ok, nan)), 2),
            (((ok, ok, ok), (ok, huge, ok)), 2),
            (((ok, huge), (nan, ok)), 2),
            (((ok, ok), (inf, nan)), 1),
        ]
        for members, site in cases:
            with pytest.raises(NumericalError) as info:
                _eigen(np.array(members).swapaxes(0, 1))
            assert str(info.value) == f"site {site} Gram matrix has a non-finite eigenvalue: its entries overflow"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(rotations, min_size=3, max_size=3), st.lists(rotations, min_size=3, max_size=3))
    def test_rotation_errors_of_either_member(self, first, second):
        got = raised(_check_rotations, np.array([first, second]).swapaxes(0, 1))
        want = next((ref for ref in map(rotation_error_ref, (first, second)) if ref is not None), None)
        if want is None:
            assert got is None
        else:
            assert type(got) is NotSpecialOrthogonal and str(got) == want[1] and same_bits(got.margin, want[2])

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(states(2), states(3)), st.integers(0, 10**6))
    def test_decide_reports_are_the_canonical_reports(self, rho, seed):
        """decide canonicalizes the pair scaled by a power of two and scales each margin back,
        exactly: the margins are canonicalize's bit for bit. ``generic`` is judged on the scaled
        pair, where the absolute thresholds act relative to its norm, so it may only turn True."""
        partners = (q.apply(q.haar_local(rho.shape, seed=seed), rho),
                    q.DensityMatrix(rho.shape, rho.matrix.conj()))
        for partner in partners:
            verdict = q.decide(rho, partner)
            if verdict.genericity is None:
                continue
            for state, report in zip((rho, partner), verdict.genericity):
                alone = q.canonicalize(q.expand(state)).report
                assert repr(dataclasses.replace(report, generic=alone.generic)) == repr(alone)
                assert report.generic or not alone.generic


class TestReconstruction:
    @settings(max_examples=60, deadline=None)
    @given(states(1))
    def test_reconstruct_one_qubit_bits(self, rho):
        t = q.expand(rho)
        assert same_bits(q.reconstruct(t).matrix, reconstruct_ref(t))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(states(2), states(3)))
    # Two states whose sums differ by 2^-52, more than a truncated eps.
    @example(depolarized(3, rank=1, seed=1823, p=1.0))
    @example(depolarized(2, rank=1, seed=1078, p=1.0))
    def test_reconstruct_within_one_rounding(self, rho):
        """One tensordot over the flat stack sums the words in another order than per component.

        Every product in either sum is exact: a real coefficient times a
        Pauli word entry of 0, +-1 or +-i. At each entry 2^n words are
        nonzero, counting the identity word (the 1/2^n term) on the
        diagonal, so the real and the imaginary part each sum at most 2^n
        nonzero terms, with k = 2^n - 1 roundings. In any order such a sum
        lands within gamma_k * A of the exact sum, where gamma_k =
        k u / (1 - k u), u = 2^-53 and A is the sum of the terms' magnitudes
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4). So
        the two orders differ by at most 2 gamma_k A. A is the same
        reconstruction from |c_w| and |P_w|; its own rounding, about 1e-15
        relative, is far inside the bound's slack.
        """
        t = q.expand(rho)
        got, want = q.reconstruct(t).matrix, reconstruct_ref(t)
        d = 2**t.n
        k, u = d - 1, 2.0**-53
        magnitudes = np.eye(d) / d + np.tensordot(np.abs(t.flatten()), np.abs(bloch._flat_words(t.n)), axes=1)
        bound = 2.0 * k * u / (1.0 - k * u) * magnitudes
        assert (np.abs(got.real - want.real) <= bound).all()
        assert (np.abs(got.imag - want.imag) <= bound).all()

    @settings(max_examples=100, deadline=None)
    @given(states(3))
    def test_reconstruct_canonical(self, rho):
        inv = q.invariants3(q.expand(rho))
        assert same_point(outcome(q.reconstruct_canonical, inv), outcome(reconstruct_canonical_ref, inv))

    @pytest.mark.parametrize("seed", range(12))
    def test_perturbed_triple_block(self, seed):
        inv = q.invariants3(q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=seed)))
        values = inv.values.copy()
        values[48:75] *= 1.0 + 1e-3 * np.random.default_rng(seed).standard_normal(27)
        bad = q.InvariantSet3(values)
        got, want = outcome(q.reconstruct_canonical, bad), outcome(reconstruct_canonical_ref, bad)
        assert want[0] is ConstraintViolation and "not diagonal" in want[1]
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.permutations(range(3)), st.permutations(SITE_BREAKS), st.integers(2, 3),
           st.floats(1e-4, 1.0), st.integers(-16, -10))
    # A later site's degenerate spectrum must not come before an earlier site's bad quadratics.
    @example(5, [0, 2, 1], ["quadratics", "spectrum", "traces"], 2, 0.5, -14)
    def test_refusal_order_across_sites(self, seed, sites, kinds, broken, size, exponent):
        """Sites broken in different checks: the stacked pass raises what site-by-site calls raise first."""
        inv = broken_sites(seed, sites[:broken], kinds[:broken], size, exponent)
        assert same_point(outcome(q.reconstruct_canonical, inv), outcome(reconstruct_canonical_ref, inv))

    def test_singular_site_factor(self, monkeypatch):
        """A factor determinant just below the tolerance its sign invariant clears.

        Rounding leaves det(Vandermonde * diag) an ulp or so from the sign
        invariant; where it falls below it, a tolerance equal to it passes
        the sign checks and refuses that site's factor.
        """
        checked = 0
        for seed in range(60):
            inv = q.invariants3(q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=seed)))
            signs = np.abs(inv.sign_family())
            site = int(np.argmin(signs))
            spectrum = spectra_from_traces(inv.trace_family(site))
            vector = vector_from_quadratics(inv.quad_family(site), float(inv.sign_family()[site]), spectrum)
            det = abs(reconstruction._det_vander(spectrum) * float(np.prod(vector)))
            if not det < signs[site]:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(reconstruction, "SIGN_INVARIANT_TOL", det)
                got, want = outcome(q.reconstruct_canonical, inv), outcome(reconstruct_canonical_ref, inv)
            assert want[0] is q.SingularSystem
            assert got == want
            checked += 1
        assert checked >= 5
        assert reconstruction.SIGN_INVARIANT_TOL == SIGN_INVARIANT_TOL

    @settings(max_examples=100, deadline=None)
    @given(st.lists(arrays((3,)), min_size=3, max_size=3), arrays((3, 3)), arrays((3, 3, 3)))
    def test_from_mixed_helpers(self, vectors, pair, triple):
        spectra = [np.array([3.0, 2.0, 0.5]), np.array([1.0, 0.25, 0.125]), np.array([7.0, 5.0, 1.0])]
        got = outcome(reconstruction.pair_from_mixed, pair, spectra[0], vectors[0], spectra[2], vectors[2])
        want = outcome(pair_from_mixed_ref, pair, spectra[0], vectors[0], spectra[2], vectors[2])
        assert same_bits(got, want) if isinstance(want, np.ndarray) else got == want
        got = outcome(reconstruction.triple_from_mixed, triple, spectra, vectors)
        want = outcome(triple_from_mixed_ref, triple, spectra, vectors)
        assert same_bits(got, want) if isinstance(want, np.ndarray) else got == want


class TestOrbitDimension:
    @staticmethod
    def assert_same(rho):
        got, want = q.orbit_dimension(rho), orbit_dimension_ref(rho)
        assert same_bits(got.singular_values, want.singular_values)
        assert got.dimension == want.dimension

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=st.lists(st.sampled_from((2, 3, 4)), min_size=1, max_size=4)
           .filter(lambda ds: np.prod(ds) <= 64),
           rank=st.sampled_from((1, 2, None)),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_materialized_frame(self, dims, rank, seed):
        self.assert_same(q.random_state(q.SystemShape(tuple(dims)), rank=rank, seed=seed))

    def test_nine_qubits(self):
        shape = q.SystemShape((2,) * 9)
        assert orbit_dim._stream_rows(shape.dims) * shape.total_dim < shape.total_dim ** 2
        self.assert_same(q.random_state(shape, seed=60))

    def test_qr_piece_carried_across_stream_blocks(self):
        shape = q.SystemShape((3, 3, 3, 3, 4))
        width = orbit_dim._stream_rows(shape.dims) * shape.total_dim
        assert shape.total_dim ** 2 > width > orbit_dim._QR_BLOCK
        assert width % orbit_dim._QR_BLOCK != 0
        self.assert_same(q.random_state(shape, seed=61))

    def test_eight_qubits_stream_in_several_blocks(self):
        shape = q.SystemShape((2,) * 8)
        assert orbit_dim._stream_rows(shape.dims) * shape.total_dim < shape.total_dim ** 2
        self.assert_same(q.random_state(shape, seed=62))

    def test_reused_buffer_keeps_the_bits(self):
        # The thread's buffer is kept across calls, through a smaller shape and back.
        big = q.random_state(q.SystemShape((2,) * 8), seed=63)
        small = q.random_state(q.SystemShape((3, 4)), seed=64)
        first = q.orbit_dimension(big)
        kept = orbit_dim._workspace.flat
        for rho, want in ((big, first), (small, orbit_dimension_ref(small)), (big, first)):
            got = q.orbit_dimension(rho)
            assert same_bits(got.singular_values, want.singular_values)
            assert got.dimension == want.dimension
        assert orbit_dim._workspace.flat is kept
        assert same_bits(first.singular_values, orbit_dimension_ref(big).singular_values)

    def test_threads_at_once_match_sequential_bits(self):
        # Each thread has its own buffer: more threads than cores, switching often.
        states = [q.random_state(q.SystemShape(dims), seed=65) for dims in ((2,) * 8, (3, 3, 3, 3), (2,) * 7)]
        want = [q.orbit_dimension(rho) for rho in states]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(states)) as pool:
                runs = [pool.submit(lambda rho=rho: [q.orbit_dimension(rho) for _ in range(4)]) for rho in states]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got_all, w in zip(results, want):
            for got in got_all:
                assert same_bits(got.singular_values, w.singular_values)
                assert got.dimension == w.dimension
