"""Orbit dimension under local unitaries and the non-local parameter count.

The tangent space of a state's local-unitary orbit is spanned by the
matrices i[1 x ... x T x ... x 1, rho] over all generators T at all sites.
Its numerical rank (singular values above a relative threshold) is the
orbit dimension; subtracting it from D^2 - 1 counts the parameters that
are invariant under local transformations. For n >= 2 sites that count
equals prod(d_r^2) - sum(d_r^2) + n - 1 at generic states.

No D x D embedded generator is formed: a site generator t acts on rho by
contracting it into the site's index, rows for h.rho and columns for
rho.h, at O(D^2 d) per generator, and each commutator is written straight
into the preallocated frame. The singular values come from a tall-skinny
QR of the transposed frame, one column block at a time, followed by the
SVD of the small triangular factor; the frame's Gram matrix is never
formed, since its eigenvalues would square the rank threshold below
machine precision. Frames larger than ``_MAX_FRAME_BYTES`` are refused with
``UnsupportedShape`` before any work is done.

The QR runs on D^2 folded columns, not the frame's 2 D^2. A row is the
Hermitian X = i[h, rho], whose real part S is symmetric and imaginary part
T antisymmetric; symmetric and antisymmetric matrices are orthogonal under
the Frobenius inner product, so <S_a + T_a, S_b + T_b> = <S_a, S_b> +
<T_a, T_b> and the folded rows S + T have the frame's Gram matrix, hence
its singular values, at half the QR work. Each block is folded into the
buffer that holds the running factor, so no D^2-wide array is allocated.
A validated rho is Hermitian only to ``HERMITICITY_RTOL``, so <S, T> is not
exactly zero: for a state at that tolerance the singular values move by up to
about 1e-12 of the largest, far below ``RANK_RTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedShape, ValidationError
from .states import DensityMatrix, SystemShape, generator_basis
from .tolerances import RANK_RTOL

# Largest tangent frame built, in bytes: sum(d_r^2 - 1) rows of 2 D^2
# float64 entries. Ten qubits (503 MB) fit; eleven (2.2 GB) do not.
_MAX_FRAME_BYTES = 2**30
# Frame columns folded into the running triangular factor per QR call.
_QR_BLOCK = 4096


@dataclass(frozen=True)
class TangentFrame:
    """Vectorized orbit-tangent directions at a base state.

    Each row of ``vectors`` is the real-then-imaginary vectorization of
    i[embedded generator, rho]; rows are grouped site-major.
    """

    base: DensityMatrix
    vectors: np.ndarray


@dataclass(frozen=True)
class OrbitDimension:
    dimension: int
    singular_values: np.ndarray


def _check_frame_size(shape: SystemShape) -> None:
    """Raise ``UnsupportedShape`` if the shape's frame exceeds the bound."""
    d_total = shape.total_dim
    nbytes = sum(d * d - 1 for d in shape.dims) * 2 * d_total * d_total * 8
    if nbytes > _MAX_FRAME_BYTES:
        raise UnsupportedShape(
            f"orbit dimension of {shape} needs a {nbytes / 1e9:.3g} GB tangent frame; "
            f"the limit is {_MAX_FRAME_BYTES / 1e9:.3g} GB"
        )


def _contract(t: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """dst[:, p, :] = sum_q t[p, q] src[:, q, :], skipping the zeros of t."""
    for p, row in enumerate(t):
        nonzero = np.flatnonzero(row)
        if nonzero.size == 0:
            dst[:, p, :] = 0.0
            continue
        np.multiply(src[:, nonzero[0], :], row[nonzero[0]], out=dst[:, p, :])
        for q in nonzero[1:]:
            dst[:, p, :] += src[:, q, :] * row[q]


def tangent_frame(rho: DensityMatrix) -> TangentFrame:
    """One tangent vector per su(d_r) generator per site, site-major."""
    _check_frame_size(rho.shape)
    dims = rho.shape.dims
    d_total = rho.shape.total_dim
    m = rho.matrix
    k = sum(d * d - 1 for d in dims)
    out = np.empty((k, 2, d_total, d_total))
    hm = np.empty((d_total, d_total), dtype=complex)
    mh = np.empty((d_total, d_total), dtype=complex)
    row = 0
    for site, d in enumerate(dims):
        before = math.prod(dims[:site])
        after = math.prod(dims[site + 1:])
        # h = 1_before x t x 1_after acts on the site's row index of rho in
        # h.rho and, through t^T, on its column index in rho.h.
        rows = (before, d, after * d_total)
        cols = (d_total * before, d, after)
        for t in generator_basis(d).generators:
            _contract(t, m.reshape(rows), hm.reshape(rows))
            _contract(t.T, m.reshape(cols), mh.reshape(cols))
            # i(h.rho - rho.h): real part Im(rho.h - h.rho), imaginary part Re(h.rho - rho.h)
            np.subtract(mh.imag, hm.imag, out=out[row, 0])
            np.subtract(hm.real, mh.real, out=out[row, 1])
            row += 1
    vectors = out.reshape(k, 2 * d_total * d_total)
    vectors.setflags(write=False)
    return TangentFrame(base=rho, vectors=vectors)


def orbit_dimension(rho: DensityMatrix, tol: float = RANK_RTOL) -> OrbitDimension:
    """Rank of the tangent frame by singular values.

    Counts singular values above ``tol`` times the largest one and returns
    the full spectrum for audit; an all-zero frame (the maximally mixed
    state) has dimension zero. ``tol`` must be finite and in [0, 1).
    """
    if not (math.isfinite(tol) and 0.0 <= tol < 1.0):
        raise ValidationError(f"rank tolerance must be finite and in [0, 1), got {tol!r}")
    vectors = tangent_frame(rho).vectors
    k = vectors.shape[0]
    half = vectors.shape[1] // 2
    real, imag = vectors[:, :half], vectors[:, half:]
    # Rows [0, rows) hold the running triangular factor; each folded block
    # is written below it. Column-major, so each frame row lands in one
    # contiguous column and LAPACK reads the buffer in its own order.
    buf = np.empty((k + _QR_BLOCK, k), order="F")
    rows = 0
    for start in range(0, half, _QR_BLOCK):
        stop = min(start + _QR_BLOCK, half)
        end = rows + stop - start
        np.add(real[:, start:stop].T, imag[:, start:stop].T, out=buf[rows:end])
        r = np.linalg.qr(buf[:end], mode="r")
        rows = r.shape[0]
        buf[:rows] = r
    s = np.linalg.svd(buf[:rows], compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    dim = 0 if smax == 0.0 else int(np.sum(s > tol * smax))
    return OrbitDimension(dimension=dim, singular_values=s)


def invariant_count_formula(shape: SystemShape) -> int:
    """Closed-form count of non-local parameters for a generic state.

    Valid for n >= 2 sites; a single site has d - 1 invariant parameters
    (its independent eigenvalues), which is returned instead.
    """
    if shape.n == 1:
        return shape.dims[0] - 1
    sq = [d * d for d in shape.dims]
    return math.prod(sq) - sum(sq) + shape.n - 1


def invariant_count_numeric(rho: DensityMatrix, tol: float = RANK_RTOL) -> int:
    """(D^2 - 1) minus the measured orbit dimension of this state.

    ``tol`` is checked as in ``orbit_dimension``.
    """
    d = rho.shape.total_dim
    return d * d - 1 - orbit_dimension(rho, tol=tol).dimension
