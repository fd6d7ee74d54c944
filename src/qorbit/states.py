"""Multi-particle density matrices and su(d) generator bases.

A state lives on a :class:`SystemShape` (one Hilbert-space dimension per
particle). Construction always validates the three density-matrix
invariants (Hermiticity, unit trace, positivity) so that every
:class:`DensityMatrix` instance in the package is known good.

Generator bases are generalized Gell-Mann families normalized to
``tr(T_i T_j) = 2 delta_ij`` for every dimension, so the d = 2 basis is
exactly the three Pauli matrices and the qubit structure constants are
``2 eps_ijk``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from .errors import (
    BadRank,
    NotHermitian,
    NotPositive,
    ParseError,
    ShapeMismatch,
    TraceNotOne,
    ValidationError,
)
from .tolerances import EIGENVALUE_FLOOR, HERMITICITY_RTOL, TRACE_TOL


@dataclass(frozen=True)
class SystemShape:
    """Per-particle Hilbert-space dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            raise ShapeMismatch(f"site dimensions must be integers, got {self.dims!r}") from None
        if not dims or any(d < 2 for d in dims):
            raise ShapeMismatch(f"every site dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def is_qubits(self) -> bool:
        return all(d == 2 for d in self.dims)

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.dims) + ")"


@dataclass(frozen=True)
class DensityMatrix:
    """A validated Hermitian, trace-one, positive matrix over a shape."""

    shape: SystemShape
    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d = self.shape.total_dim
        if m.shape != (d, d):
            raise ShapeMismatch(
                f"matrix is {m.shape}, shape {self.shape} requires ({d}, {d})"
            )
        scale = float(np.abs(m).max()) if m.size else 0.0
        if not math.isfinite(scale):
            raise ValidationError("matrix has a non-finite entry")
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERMITICITY_RTOL * scale:
            raise NotHermitian(
                f"max |m - m^dag| = {herm_dev:.3e} exceeds {HERMITICITY_RTOL:.0e} * max|m|",
                margin=herm_dev,
            )
        trace_dev = abs(complex(m.trace()) - 1.0)
        if trace_dev > TRACE_TOL:
            raise TraceNotOne(
                f"|tr - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}", margin=trace_dev
            )
        spectrum = np.linalg.eigvalsh(m)
        min_eig = float(spectrum[0])
        if min_eig < EIGENVALUE_FLOOR:
            raise NotPositive(
                f"smallest eigenvalue {min_eig:.3e} below {EIGENVALUE_FLOOR:.0e}",
                margin=min_eig,
            )
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", spectrum)

    def eigenvalues(self) -> np.ndarray:
        """Global spectrum, sorted ascending: the read-only one validation computed."""
        return self._spectrum

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def validate(matrix, shape: SystemShape, repair: bool = False) -> DensityMatrix:
    """Check a raw matrix against the density-matrix invariants.

    Parameters
    ----------
    matrix : array_like
        Candidate complex matrix of size D x D.
    shape : SystemShape
        Declared multi-particle shape with total dimension D.
    repair : bool, optional
        When set, inputs already within tolerance are projected onto the
        exact constraint set (Hermitian part taken, trace renormalized).
        Inputs outside tolerance still raise; repair never hides bad data.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    ShapeMismatch, NotHermitian, TraceNotOne, NotPositive
        Each validation error carries the numeric margin of the failure.
    """
    m = np.asarray(matrix, dtype=complex)
    if repair:
        # Reject first so repair only ever touches roundoff-level slack.
        DensityMatrix(shape, m)
        m = (m + m.conj().T) / 2.0
        m = m / np.trace(m).real
    return DensityMatrix(shape, m)


def maximally_mixed(shape: SystemShape) -> DensityMatrix:
    d = shape.total_dim
    return DensityMatrix(shape, np.eye(d, dtype=complex) / d)


def _rng(seed) -> np.random.Generator:
    """The generator of an integer seed >= 0 (numpy integers included); any other seed raises."""
    try:
        if operator.index(seed) >= 0:
            return np.random.default_rng(operator.index(seed))
    except TypeError:
        pass
    raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def random_state(shape: SystemShape, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Draw a random density matrix of the given rank.

    Builds ``rho = A A^dag / tr(A A^dag)`` from a D x rank matrix of
    independent standard complex Gaussians, so full-rank draws cover the
    state body with full measure. Deterministic for a fixed seed.
    """
    d = shape.total_dim
    if rank is None:
        rank = d
    try:
        rank = operator.index(rank)
    except TypeError:
        raise BadRank(f"rank must be an integer, got {rank!r}") from None
    if not 1 <= rank <= d:
        raise BadRank(f"rank must lie in [1, {d}], got {rank}")
    rng = _rng(seed)
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return DensityMatrix(shape, m)


def write_state(state: DensityMatrix, path, label: str | None = None) -> None:
    fileio.write(path, state_payload(state, label))


def state_payload(state: DensityMatrix, label: str | None = None) -> dict:
    payload = {
        "dims": list(state.shape.dims),
        "matrix": fileio.complex_to_pairs(state.matrix),
    }
    if label is not None:
        payload["label"] = label
    return payload


def state_from_payload(payload) -> DensityMatrix:
    if not isinstance(payload, dict):
        raise ParseError("state file must contain a single object")
    if "dims" not in payload:
        raise ParseError("missing field 'dims'")
    dims = payload["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ParseError("field 'dims' must be an array of integers")
    if "matrix" not in payload:
        raise ParseError("missing field 'matrix'")
    shape = SystemShape(tuple(dims))
    m = fileio.pairs_to_complex(payload["matrix"], field="matrix")
    d = shape.total_dim
    if m.shape != (d, d):
        raise ParseError(f"field 'matrix' has shape {m.shape}, dims {dims} require ({d}, {d})")
    return DensityMatrix(shape, m)


def read_state(path) -> DensityMatrix:
    return state_from_payload(fileio.read(path))


@dataclass(frozen=True)
class GeneratorBasis:
    """Traceless Hermitian generators of su(d) with structure constants.

    ``generators`` has shape (d^2 - 1, d, d); ``structure_constants``
    holds the real c with [T_i, T_j] = i c_ijk T_k.
    """

    dim: int
    generators: np.ndarray

    @functools.cached_property
    def structure_constants(self) -> np.ndarray:
        # (d^2 - 1)^2 d^2 complex entries: formed on first use, not with the basis
        gen = self.generators
        comm = np.einsum("iab,jbc->ijac", gen, gen) - np.einsum("jab,ibc->ijac", gen, gen)
        c = (np.einsum("ijab,kba->ijk", comm, gen) / 2j).real
        c.setflags(write=False)
        return c


def generator_basis(d: int) -> GeneratorBasis:
    """Generalized Gell-Mann basis with tr(T_i T_j) = 2 delta_ij.

    Ordering walks the upper-triangle level by level: for each k the
    symmetric and antisymmetric matrices on (j, k) for j < k, then the
    diagonal generator at level k. For d = 2 this yields exactly the three
    Pauli matrices; for d = 3 the standard eight-generator family.
    """
    try:
        d = operator.index(d)
    except TypeError:
        raise ShapeMismatch(f"generator basis needs an integer d, got {d!r}") from None
    if d < 2:
        raise ShapeMismatch(f"generator basis needs d >= 2, got {d}")
    return _generator_basis_cached(d)


@functools.lru_cache(maxsize=None)
def _generator_basis_cached(d: int) -> GeneratorBasis:
    mats = []
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            mats.append(asym)
        diag = np.zeros((d, d), dtype=complex)
        coeff = math.sqrt(2.0 / (k * (k + 1)))
        for m in range(k):
            diag[m, m] = coeff
        diag[k, k] = -k * coeff
        mats.append(diag)
    gen = np.array(mats)
    gen.setflags(write=False)
    return GeneratorBasis(dim=d, generators=gen)
