"""Orbit dimension under local unitaries and the non-local parameter count.

The tangent space of a state's local-unitary orbit is spanned by the
matrices i[1 x ... x T x ... x 1, rho] over all generators T at all sites.
Its numerical rank (singular values above a relative threshold) is the
orbit dimension; subtracting it from D^2 - 1 counts the parameters that
are invariant under local transformations. For n >= 2 sites that count
equals prod(d_r^2) - sum(d_r^2) + n - 1 at generic states.

No D x D embedded generator is formed: a site generator t acts on rho by
contracting it into the site's index, rows for h.rho and columns for
rho.h, at O(D^2 d) per generator. ``tangent_frame`` writes each commutator
straight into the preallocated frame. The singular values come from a
tall-skinny QR of the transposed frame, one column block at a time,
followed by the SVD of the small triangular factor; the frame's Gram
matrix is never formed, since its eigenvalues would square the rank
threshold below machine precision. Shapes whose frame would exceed
``_MAX_FRAME_BYTES`` are refused (``UnsupportedShape``) before any work.

The QR runs on D^2 folded columns, not the frame's 2 D^2. A row is the
Hermitian X = i[h, rho], whose real part S is symmetric and imaginary part
T antisymmetric; symmetric and antisymmetric matrices are orthogonal under
the Frobenius inner product, so <S_a + T_a, S_b + T_b> = <S_a, S_b> +
<T_a, T_b> and the folded rows S + T have the frame's Gram matrix, hence
its singular values, at half the QR work.
A validated rho is Hermitian only to ``HERMITICITY_RTOL``, so <S, T> is not
exactly zero: for a state at that tolerance the singular values move by up to
about 1e-12 of the largest, far below ``RANK_RTOL``.

``orbit_dimension`` never materializes the frame. It computes the
commutators over blocks of whole rows of rho, at most ``_STREAM_ENTRIES``
entries each, folds each block into a k x block buffer for the k frame
rows, and feeds the running factor the same ``_QR_BLOCK``-column pieces as
a pass over the whole frame would, carrying a piece that spans two blocks.
Its memory is O(k 2^16 + D^2) rather than the frame's 2 k D^2, and its
singular values are bit for bit those of ranking the materialized frame.
A block's row count is a product of trailing site dimensions, so for
every site the block either holds whole groups of the site's row index or
lies inside one of them, where h.rho reads only the site's d slabs of rho.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedShape, ValidationError
from .states import DensityMatrix, SystemShape, generator_basis
from .tolerances import RANK_RTOL

# The shape limit: the largest tangent frame, in bytes, sum(d_r^2 - 1) rows
# of 2 D^2 float64 entries. Ten qubits (503 MB) fit; eleven (2.2 GB) do not.
# orbit_dimension streams the frame but refuses the same shapes.
_MAX_FRAME_BYTES = 2**30
# Frame columns folded into the running triangular factor per QR call.
_QR_BLOCK = 4096
# Most entries of rho whose commutators orbit_dimension computes at once.
_STREAM_ENTRIES = 2**16


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
    """Raise ``UnsupportedShape`` if the shape's frame would exceed the bound."""
    d_total = shape.total_dim
    nbytes = sum(d * d - 1 for d in shape.dims) * 2 * d_total * d_total * 8
    if nbytes > _MAX_FRAME_BYTES:
        raise UnsupportedShape(
            f"orbit dimension covers shapes whose tangent frame would take at most "
            f"{_MAX_FRAME_BYTES / 1e9:.3g} GB; that of {shape} would take {nbytes / 1e9:.3g} GB"
        )


def _rows(t: np.ndarray) -> tuple[tuple[int, complex] | None, ...]:
    """Each row p's one nonzero (q, t[p, q]), or None: a generalized Gell-Mann generator
    has at most one nonzero in each row and column (``item`` raises on a second one)."""
    return tuple((q.item(), row[q.item()]) if q.size else None
                 for row, q in zip(t, map(np.flatnonzero, t)))


@functools.lru_cache(maxsize=None)
def _row_table(d: int) -> tuple[tuple[tuple, tuple], ...]:
    """(_rows(t), _rows(t^T)) for each su(d) generator t, in basis order."""
    return tuple((_rows(t), _rows(t.T)) for t in generator_basis(d).generators)


def _contract(rows, src: np.ndarray, dst: np.ndarray) -> None:
    """dst[:, p, :] = t[p, q] src[:, q, :] for the one nonzero (q, t[p, q]) in rows[p], else 0."""
    for p, term in enumerate(rows):
        if term is None:
            dst[:, p, :] = 0.0
        else:
            np.multiply(src[:, term[0], :], term[1], out=dst[:, p, :])


def _stream_rows(dims: tuple[int, ...]) -> int:
    """Rows of rho per stream block: the largest product of trailing site
    dimensions whose rows hold at most ``_STREAM_ENTRIES`` entries (at least 1)."""
    d_total = math.prod(dims)
    for s in range(len(dims)):
        rows = math.prod(dims[s:])
        if rows * d_total <= _STREAM_ENTRIES:
            return rows
    return 1


def _commutators(m: np.ndarray, dims: tuple[int, ...], start: int,
                 stop: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (h.rho, rho.h) over rows [start, stop) of rho for each site
    generator h, site-major; the same two arrays are overwritten each time.

    The row count must be a product of trailing site dimensions and
    ``start`` a multiple of it. For each site the block then either holds
    whole groups of the site's row index, contracted in place, or lies in
    one (before, p) slab of it, whose row of h.rho reads the site's d
    source slabs of rho.
    """
    d_total = m.shape[0]
    n_rows = stop - start
    block = m[start:stop]
    hm = np.empty((n_rows, d_total), dtype=complex)
    mh = np.empty((n_rows, d_total), dtype=complex)
    for site, d in enumerate(dims):
        before = math.prod(dims[:site])
        after = math.prod(dims[site + 1:])
        # h = 1_before x t x 1_after acts on the site's row index of rho in
        # h.rho and, through t^T, on its column index in rho.h.
        cols = (n_rows * before, d, after)
        if n_rows % (d * after) == 0:
            rows = (n_rows // (d * after), d, after * d_total)
            src, dst, p = block.reshape(rows), hm.reshape(rows), slice(None)
        else:
            x, offset = divmod(start, d * after)
            q, a = divmod(offset, after)
            src = m.reshape(before, d, after * d_total)[x:x + 1, :, a * d_total:(a + n_rows) * d_total]
            dst, p = hm.reshape(1, 1, n_rows * d_total), slice(q, q + 1)
        for rows_t, rows_tt in _row_table(d):
            _contract(rows_t[p], src, dst)
            _contract(rows_tt, block.reshape(cols), mh.reshape(cols))
            yield hm, mh


def tangent_frame(rho: DensityMatrix) -> TangentFrame:
    """One tangent vector per su(d_r) generator per site, site-major."""
    _check_frame_size(rho.shape)
    d_total = rho.shape.total_dim
    k = sum(d * d - 1 for d in rho.shape.dims)
    out = np.empty((k, 2, d_total, d_total))
    for row, (hm, mh) in enumerate(_commutators(rho.matrix, rho.shape.dims, 0, d_total)):
        # i(h.rho - rho.h): real part Im(rho.h - h.rho), imaginary part Re(h.rho - rho.h)
        np.subtract(mh.imag, hm.imag, out=out[row, 0])
        np.subtract(hm.real, mh.real, out=out[row, 1])
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
    _check_frame_size(rho.shape)
    dims = rho.shape.dims
    d_total = rho.shape.total_dim
    k = sum(d * d - 1 for d in dims)
    n_rows = _stream_rows(dims)
    width = n_rows * d_total
    folded = np.empty((k, n_rows, d_total))
    imag = np.empty((n_rows, d_total))
    # Rows [0, rows) hold the running triangular factor and rows [rows,
    # rows + filled) the part of the current piece streamed so far. Pieces
    # are the folded columns [j, j + _QR_BLOCK) for j a multiple of
    # _QR_BLOCK, whatever the stream blocks are. Column-major, so each
    # folded row lands in one contiguous column and LAPACK reads the buffer
    # in its own order.
    buf = np.empty((k + _QR_BLOCK, k), order="F")
    columns = folded.reshape(k, width)
    rows = filled = 0
    for start in range(0, d_total, n_rows):
        for g, (hm, mh) in enumerate(_commutators(rho.matrix, dims, start, start + n_rows)):
            # The real plus the imaginary half of the frame row, as tangent_frame writes them.
            np.subtract(mh.imag, hm.imag, out=folded[g])
            np.subtract(hm.real, mh.real, out=imag)
            folded[g] += imag
        last = start + n_rows == d_total
        pos = 0
        while pos < width:
            take = min(_QR_BLOCK - filled, width - pos)
            buf[rows + filled:rows + filled + take] = columns[:, pos:pos + take].T
            filled += take
            pos += take
            if filled == _QR_BLOCK or (last and pos == width):
                r = np.linalg.qr(buf[:rows + filled], mode="r")
                rows, filled = r.shape[0], 0
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
