"""Orbit dimension under local unitaries and the non-local parameter count.

The tangent space of a state's local-unitary orbit is spanned by the
matrices i[1 x ... x T x ... x 1, rho] over all generators T at all sites.
Its numerical rank (singular values above a relative threshold) is the
orbit dimension; subtracting it from D^2 - 1 counts the parameters that
are invariant under local transformations. For n >= 2 sites that count
equals prod(d_r^2) - sum(d_r^2) + n - 1 at generic states.

No D x D embedded generator is formed: a site generator t acts on rho
through the site's index, rows for h.rho and columns for rho.h, by one real
gather per row of t (``_commutators``). ``tangent_frame`` writes each
commutator straight into the preallocated frame. The singular values come
from a tall-skinny QR of the transposed frame, one column block at a time,
followed by the SVD of the small triangular factor; the frame's Gram matrix
is never formed, since its eigenvalues would square the rank threshold
below machine precision. Shapes whose frame would exceed
``_MAX_FRAME_BYTES`` are refused (``UnsupportedShape``) before any work.

The QR runs on D^2 folded columns, not the frame's 2 D^2. A row is the
Hermitian X = i[h, rho], whose real part S is symmetric and imaginary part
T antisymmetric; symmetric and antisymmetric matrices are orthogonal under
the Frobenius inner product, so <S_a + T_a, S_b + T_b> = <S_a, S_b> +
<T_a, T_b> and the folded rows S + T have the frame's Gram matrix, hence
its singular values, at half the QR work. A folded row is [Re(h.rho) -
Im(h.rho)] - [Re(rho.h) - Im(rho.h)]; each side gathers c M[q] (t[p, q] = c)
or -c N[q] (t[p, q] = i c) from M = Re rho - Im rho and N = Re rho + Im rho.
A validated rho is Hermitian only to ``HERMITICITY_RTOL``, so <S, T> is not
exactly zero: for a state at that tolerance the singular values move by up to
about 1e-12 of the largest, far below ``RANK_RTOL``.

``orbit_dimension`` never materializes the frame. It forms M and N over
blocks of whole rows of rho, at most ``_STREAM_ENTRIES`` entries each, and
writes each generator's folded block straight into its column of a
column-major buffer that feeds the running QR factor the same
``_QR_BLOCK``-column pieces as a pass over the whole folded frame, so its
singular values are bit for bit the materialized folded frame's. Beside rho
it holds (k + 2^11 + 2^14) k floats, not the frame's 2 k D^2. At 2^14
entries a generator's working set (the block's M and N, a real scratch, a
folded column) is 0.5 MB and fits a 2 MiB L2 cache.
Each thread keeps its buffer (up to ``_KEEP_BYTES``): fresh buffers of a few
MB went back to the system and were faulted in again on every call.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable
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
_QR_BLOCK = 2048
# Most entries of rho whose commutators orbit_dimension computes at once.
_STREAM_ENTRIES = 2**14
_KEEP_BYTES = 2**26  # the largest QR buffer a thread keeps in _workspace
_workspace = threading.local()


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


def _rows(t: np.ndarray) -> tuple[tuple[int, int, float] | None, ...]:
    """Each row p's one nonzero t[p, q] as (kind, q, w), or None: a generalized Gell-Mann
    generator has at most one nonzero in each row and column (``item`` raises on a second
    one), real (kind 0) or imaginary (kind 1), and w = Re t[p, q] - Im t[p, q]."""
    w, imaginary = t.real - t.imag, t.imag != 0
    return tuple((int(imaginary[p, q.item()]), q.item(), float(w[p, q.item()])) if q.size else None
                 for p, q in enumerate(map(np.flatnonzero, t)))


@functools.lru_cache(maxsize=None)
def _row_table(d: int) -> tuple[tuple[tuple, tuple], ...]:
    """(_rows(t), _rows(t^T)) for each su(d) generator t, in basis order."""
    return tuple((_rows(t), _rows(t.T)) for t in generator_basis(d).generators)


def _gather(rows, src: np.ndarray, dst: np.ndarray) -> None:
    """dst[:, p, :] = w src[kind, :, q, :] for the one nonzero (kind, q, w) in rows[p], else 0."""
    # Runs of at most d entries (rho.h's columns at the last sites) loop faster down the first axis.
    order = "F" if dst.shape[2] <= dst.shape[1] else "K"
    for p, term in enumerate(rows):
        if term is None:
            dst[:, p, :] = 0.0
        else:
            np.multiply(src[term[0], :, term[1], :], term[2], out=dst[:, p, :], order=order)


def _stream_rows(dims: tuple[int, ...]) -> int:
    """Rows of rho per stream block: the largest product of trailing site
    dimensions whose rows hold at most ``_STREAM_ENTRIES`` entries (at least 1)."""
    d_total = math.prod(dims)
    for s in range(len(dims)):
        rows = math.prod(dims[s:])
        if rows * d_total <= _STREAM_ENTRIES:
            return rows
    return 1


def _folded(z: np.ndarray) -> np.ndarray:
    """(L(z), L(-i z)), a stack of one map each, for L(z) = Re z - Im z: i[h, rho] folded to Re + Im."""
    return np.stack((z.real - z.imag, z.real + z.imag))[:, None]


def _commutators(m: np.ndarray, dims: tuple[int, ...], start: int, stop: int,
                 sources: Callable[[np.ndarray], np.ndarray], dst: np.ndarray) -> None:
    """dst[g, j] = rows [start, stop) of L_j(h.rho) - L_j(rho.h) for each site generator h, site-major,
    for real-linear maps L_j given by sources(z) = (A, B), A[j] = L_j(z) and B[j] = L_j(-i z).

    Row p of h.rho is t[p, q] rho[q], so that of L(h.rho) is w A[q] or w B[q] (see ``_rows``): one
    real gather per row of t, and per row of t^T for the columns of rho.h. The row count must be
    a product of trailing site dimensions and ``start`` a multiple of it. For each site the block
    then either holds whole groups of the site's row index, contracted in place, or lies in one
    (before, p) slab of it, whose row of h.rho reads the sources of the site's d slabs of rho.
    """
    d_total, n_rows = m.shape[0], stop - start
    block = sources(m[start:stop])
    parts, scratch = block.shape[1], np.empty(dst.shape[1:])
    g = 0
    for site, d in enumerate(dims):
        before = math.prod(dims[:site])
        after = math.prod(dims[site + 1:])
        # h = 1_before x t x 1_after acts on the site's row index of rho in
        # h.rho and, through t^T, on its column index in rho.h.
        cols = (parts * n_rows * before, d, after)
        if n_rows % (d * after) == 0:
            rows = (parts * n_rows // (d * after), d, after * d_total)
            src, p = block.reshape((2,) + rows), slice(None)
        else:
            x, offset = divmod(start, d * after)
            q, a = divmod(offset, after)
            src = sources(m.reshape(before, d, after * d_total)[x, :, a * d_total:(a + n_rows) * d_total])
            rows, p = (parts, 1, n_rows * d_total), slice(q, q + 1)
        for rows_t, rows_tt in _row_table(d):
            _gather(rows_t[p], src, dst[g].reshape(rows))
            _gather(rows_tt, block.reshape((2,) + cols), scratch.reshape(cols))
            np.subtract(dst[g], scratch, out=dst[g])
            g += 1


def tangent_frame(rho: DensityMatrix) -> TangentFrame:
    """One tangent vector per su(d_r) generator per site, site-major."""
    _check_frame_size(rho.shape)
    d_total = rho.shape.total_dim
    k = sum(d * d - 1 for d in rho.shape.dims)
    out = np.empty((k, 2, d_total * d_total))
    # i(h.rho - rho.h): real part L(h.rho) - L(rho.h) for L(z) = -Im z, imaginary part for L(z) = Re z.
    _commutators(rho.matrix, rho.shape.dims, 0, d_total,
                 lambda z: np.stack((-z.imag, z.real, z.real, z.imag)).reshape((2, 2) + z.shape), out)
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
    dims, d_total = rho.shape.dims, rho.shape.total_dim
    k, n_rows = sum(d * d - 1 for d in dims), _stream_rows(dims)
    width = n_rows * d_total
    # Rows: the factor r at [k - len(r), k) for each QR, [k, k + filled) the piece so far, then the block.
    size = (k + _QR_BLOCK + width) * k
    flat = getattr(_workspace, "flat", None)
    if flat is None or flat.size < size:
        flat = np.empty(size)
        if flat.nbytes <= _KEEP_BYTES:
            _workspace.flat = flat
    buf = flat[:size].reshape((-1, k), order="F")
    r, filled = buf[:0], 0
    for start in range(0, d_total, n_rows):
        end = k + filled + width
        # Each generator's folded frame row, Re + Im of i[h, rho], straight into its column.
        _commutators(rho.matrix, dims, start, start + n_rows, _folded, buf[end - width:end].T)
        piece = k
        while end - piece >= _QR_BLOCK or (start + n_rows == d_total and end > piece):
            buf[piece - len(r):piece] = r
            r = np.linalg.qr(buf[piece - len(r):min(piece + _QR_BLOCK, end)], mode="r")
            piece = min(piece + _QR_BLOCK, end)
        filled = end - piece
        if piece > k:  # carry the partial piece up to row k; filled < _QR_BLOCK, so no overlap
            buf[k:k + filled] = buf[piece:end]
    s = np.linalg.svd(r, compute_uv=False)
    smax = float(s[0])
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
