"""Pauli-basis coefficient tensors for systems of one to three qubits.

The coefficient of a Pauli word W in a state rho is tr(rho W) / 2^n, so a
single qubit expands as rho = 1/2 + alpha.sigma, a pair picks up the 3x3
correlation matrix ``pair_12``, and a triple adds the two remaining pair
matrices and the 3x3x3 tensor ``triple`` whose index (i, j, k) multiplies
sigma_i x sigma_j x sigma_k with sites ordered left to right.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import NumericalError, ParseError, ShapeMismatch, UnsupportedShape
from .states import DensityMatrix, SystemShape
from .tolerances import IMAG_RESIDUE_TOL

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Component name -> index pattern over sites (None = identity at that site),
# in the fixed order used by flatten().
_COMPONENTS = {
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
# Component name -> array shape: one axis of length 3 per non-identity site.
_SHAPES = {name: (3,) * sum(p is not None for p in pattern) for name, pattern in _COMPONENTS[3]}
# n -> component name -> the site of each of its axes, in axis order.
_SITES = {
    n: {name: tuple(pattern.index(axis) for axis in range(len(_SHAPES[name]))) for name, pattern in components}
    for n, components in _COMPONENTS.items()
}


def _components(n: int) -> list:
    if n not in _COMPONENTS:
        raise UnsupportedShape(f"Bloch tensors cover 1-3 qubits, got n={n}")
    return _COMPONENTS[n]


@dataclass(frozen=True)
class BlochTensor:
    """Real coefficient tensors of a 1-, 2-, or 3-qubit state."""

    n: int
    alpha: np.ndarray
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None
    pair_12: np.ndarray | None = None
    pair_13: np.ndarray | None = None
    pair_23: np.ndarray | None = None
    triple: np.ndarray | None = None

    def __post_init__(self):
        required = {name for name, _ in _components(self.n)}
        for name, shape in _SHAPES.items():
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ShapeMismatch(f"n={self.n} tensor requires component '{name}'")
                arr = np.array(value, dtype=float)
                if arr.shape != shape:
                    raise ShapeMismatch(f"component '{name}' has shape {arr.shape}")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            elif value is not None:
                raise ShapeMismatch(f"component '{name}' not defined for n={self.n}")

    def component_items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name, _ in _COMPONENTS[self.n]]

    def flatten(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.component_items()])

    @classmethod
    def from_flat(cls, n: int, vec) -> "BlochTensor":
        vec = np.asarray(vec, dtype=float)
        shapes = {name: _SHAPES[name] for name, _ in _components(n)}
        size = sum(3 ** len(shape) for shape in shapes.values())
        if vec.shape != (size,):
            raise ShapeMismatch(f"flat vector for n={n} must have length {size}")
        parts, start = {}, 0
        for name, shape in shapes.items():
            stop = start + 3 ** len(shape)
            parts[name] = vec[start:stop].reshape(shape)
            start = stop
        return cls(n=n, **parts)

    def max_abs(self) -> float:
        return float(np.abs(self.flatten()).max())


def _contract(arr: np.ndarray, mats, sites: tuple) -> np.ndarray:
    """Contract ``mats[sites[k]]`` into axis k of ``arr``, one matrix per axis.

    Rotating a component and inverting its mixed invariants are both this
    product; each rank keeps one fixed numpy call so the result is
    reproducible bit for bit.
    """
    rank = len(sites)
    if rank == 1:
        return mats[sites[0]] @ arr
    if rank == 2:
        return mats[sites[0]] @ arr @ mats[sites[1]].T
    return np.einsum("im,jn,kp,mnp->ijk", mats[sites[0]], mats[sites[1]], mats[sites[2]], arr)


def _kron(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@functools.lru_cache(maxsize=None)
def _component_words(n: int) -> dict:
    """Stacked Pauli-word matrices per component, indexed like the component."""
    eye = np.eye(2, dtype=complex)
    words = {}
    for name, pattern in _COMPONENTS[n]:
        axes = sum(1 for p in pattern if p is not None)
        stack = np.empty((3,) * axes + (2**n, 2**n), dtype=complex)
        for idx in itertools.product(range(3), repeat=axes):
            factors = [eye if p is None else PAULI[idx[p]] for p in pattern]
            stack[idx] = _kron(*factors)
        stack.setflags(write=False)
        words[name] = stack
    return words


@functools.lru_cache(maxsize=None)
def _flat_words(n: int) -> np.ndarray:
    """All Pauli words of ``_component_words(n)`` in one stack, in flatten() order."""
    d = 2**n
    flat = np.concatenate([w.reshape(-1, d, d) for w in _component_words(n).values()])
    flat.setflags(write=False)
    return flat


def expand(rho: DensityMatrix) -> BlochTensor:
    """Expand a 1-, 2-, or 3-qubit state in the tensor-product Pauli basis.

    Each coefficient is tr(rho W) / 2^n for the corresponding Pauli word W.
    Imaginary residues beyond ``IMAG_RESIDUE_TOL`` (impossible for a validated
    Hermitian input) raise rather than being silently dropped.
    """
    shape = rho.shape
    if not shape.is_qubits or shape.n > 3:
        raise UnsupportedShape(
            f"Pauli expansion covers 1-3 qubits, got shape {shape}"
        )
    n = shape.n
    raw = np.einsum("wab,ba->w", _flat_words(n), rho.matrix) / 2**n
    residue = float(np.abs(raw.imag).max())
    if residue > IMAG_RESIDUE_TOL:
        raise NumericalError(
            f"expansion coefficient has imaginary residue {residue:.3e}"
        )
    return BlochTensor.from_flat(n, raw.real)


def reconstruct(t: BlochTensor) -> DensityMatrix:
    """Rebuild the density matrix 1/2^n + sum(coefficient * Pauli word).

    Hermiticity and unit trace hold by construction; positivity is checked
    and a violation raises NotPositive with the eigenvalue margin.
    """
    n = t.n
    d = 2**n
    m = np.eye(d, dtype=complex) / d + np.tensordot(t.flatten(), _flat_words(n), axes=1)
    return DensityMatrix(SystemShape((2,) * n), m)


def bloch_payload(t: BlochTensor) -> dict:
    payload = {"n": t.n}
    for name, arr in t.component_items():
        payload[name] = arr.tolist()
    return payload


def bloch_from_payload(payload) -> BlochTensor:
    if not isinstance(payload, dict):
        raise ParseError("Bloch file must contain a single object")
    n = payload.get("n")
    if isinstance(n, bool) or n not in (1, 2, 3):
        raise ParseError("field 'n' must be 1, 2, or 3")
    parts = {}
    for name, _ in _COMPONENTS[n]:
        if name not in payload:
            raise ParseError(f"missing component '{name}' for n={n}")
        parts[name] = fileio.real_array(payload[name], _SHAPES[name], name)
    return BlochTensor(n=n, **parts)


def write_bloch(t: BlochTensor, path) -> None:
    fileio.write(path, bloch_payload(t))


def read_bloch(path) -> BlochTensor:
    return bloch_from_payload(fileio.read(path))
