"""Pauli-basis coefficient tensors for systems of one to three qubits.

The coefficient of a Pauli word W in a state rho is tr(rho W) / 2^n, so a
single qubit expands as rho = 1/2 + alpha.sigma, a pair picks up the 3x3
correlation matrix ``pair_12``, and a triple adds the two remaining pair
matrices and the 3x3x3 tensor ``triple`` whose index (i, j, k) multiplies
sigma_i x sigma_j x sigma_k with sites ordered left to right.
This module alone knows that layout; the others read a batch of components
through ``_split``, ``_flat``, ``_site_vectors`` and ``_top``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import ParseError, ShapeMismatch, UnsupportedShape, ValidationError
from .states import DensityMatrix, SystemShape, generator_basis

# sigma_x, sigma_y, sigma_z: the d = 2 generator basis, read-only.
PAULI = generator_basis(2).generators

# n -> component name -> the site of each of its axes, in axis order; the
# components are listed in the fixed order used by flatten().
_SITES = {
    1: {"alpha": (0,)},
    2: {"alpha": (0,), "beta": (1,), "pair_12": (0, 1)},
    3: {"alpha": (0,), "beta": (1,), "gamma": (2,),
        "pair_12": (0, 1), "pair_13": (0, 2), "pair_23": (1, 2), "triple": (0, 1, 2)},
}
# Component name -> array shape: one axis of length 3 per site.
_SHAPES = {name: (3,) * len(sites) for name, sites in _SITES[3].items()}


def _components(n: int):
    if type(n) is not int or n not in _SITES:
        raise UnsupportedShape(f"Bloch tensors cover 1-3 qubits, got n={n!r}")
    return _SITES[n].items()


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
                # math.isfinite over the entries: a third of np.isfinite's cost on arrays this small.
                if not all(map(math.isfinite, arr.ravel().tolist())):
                    raise ValidationError(f"component '{name}' has a non-finite entry")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            elif value is not None:
                raise ShapeMismatch(f"component '{name}' not defined for n={self.n}")

    def component_items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in _SITES[self.n]]

    def flatten(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.component_items()])

    @classmethod
    def from_flat(cls, n: int, vec) -> "BlochTensor":
        vec = np.array(vec, dtype=float)  # a copy: the tensor holds views of it
        size = sum(3 ** len(sites) for _, sites in _components(n))
        if vec.shape != (size,):
            raise ShapeMismatch(f"flat vector for n={n} must have length {size}")
        return _tensor(_split(vec[None], n), n, 0)

    def max_abs(self) -> float:
        return float(np.abs(self.flatten()).max())


def _parts(t: BlochTensor) -> dict:
    """The components of one tensor as a batch of one: name -> (1, 3, ...) array."""
    return {name: arr[None] for name, arr in t.component_items()}


def _split(coeffs: np.ndarray, n: int) -> dict:
    """Flat coefficient rows (B, size) as contiguous (B, 3, ...) component arrays."""
    parts, start = {}, 0
    for name, sites in _components(n):
        stop = start + 3 ** len(sites)
        parts[name] = np.ascontiguousarray(coeffs[:, start:stop]).reshape((-1,) + _SHAPES[name])
        start = stop
    return parts


def _flat(parts: dict) -> np.ndarray:
    """The components of a batch as flat coefficient rows (B, size), in flatten() order."""
    return np.concatenate([arr.reshape(len(arr), -1) for arr in parts.values()], axis=1)


def _tensor(parts: dict, n: int, b: int) -> BlochTensor:
    """Member ``b`` of a batch of components, built by the kernels in the constructor's layout, as a
    tensor holding read-only views of them. Only their finiteness is checked, once; a non-finite
    member goes through the constructor, whose error names the component."""
    members = {name: arr[b] for name, arr in parts.items()}
    if not np.isfinite(np.concatenate(tuple(members.values()), axis=None)).all():
        return BlochTensor(n=n, **members)
    t = object.__new__(BlochTensor)
    object.__setattr__(t, "n", n)
    for name, arr in members.items():
        arr.setflags(write=False)
        object.__setattr__(t, name, arr)
    return t


def _site_vectors(parts: dict) -> np.ndarray:
    """The site vectors of a batch, site-major (n, B, 3)."""
    return np.array([parts[name] for name in ("alpha", "beta", "gamma") if name in parts])


def _top(parts: dict) -> np.ndarray:
    """The top-rank block of a batch: the triple tensor for n = 3, else the pair matrix."""
    return parts["triple"] if "triple" in parts else parts["pair_12"]


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Matrix-vector products of stacks (..., 3, 3) and (..., 3)."""
    return (mats @ vecs[..., None])[..., 0]


def _contract(arr: np.ndarray, mats, sites: tuple) -> np.ndarray:
    """Contract ``mats[sites[k]]`` into axis k + 1 of ``arr``, one matrix per axis.

    ``arr`` is a batch (B, 3, ...) and each ``mats[site]`` a (B, 3, 3)
    stack. Rotating a component, forming its three-qubit mixed invariants
    (with each site's power-vector matrix) and inverting them (with each
    site's inverse factor) are all this product; each rank keeps one fixed
    numpy call, which treats every batch member as it would treat that member
    alone, so the result is reproducible bit for bit.
    """
    rank = len(sites)
    if rank == 1:
        return _mv(mats[sites[0]], arr)
    if rank == 2:
        return mats[sites[0]] @ arr @ mats[sites[1]].swapaxes(1, 2)
    return np.einsum("zim,zjn,zkp,zmnp->zijk", mats[sites[0]], mats[sites[1]], mats[sites[2]], arr)


def _rotate(parts: dict, mats) -> dict:
    """Every component of a batch with its sites' matrices contracted into its axes (see ``_contract``)."""
    return {name: _contract(arr, mats, _SITES[3][name]) for name, arr in parts.items()}


@functools.lru_cache(maxsize=None)
def _flat_words(n: int) -> np.ndarray:
    """Every Pauli word of n qubits in one read-only stack (size, 2^n, 2^n), in flatten() order."""
    eye = np.eye(2, dtype=complex)
    words = []
    for sites in _SITES[n].values():
        for idx in itertools.product(range(3), repeat=len(sites)):
            paulis = dict(zip(sites, idx))
            words.append(functools.reduce(np.kron, [PAULI[paulis[s]] if s in paulis else eye for s in range(n)]))
    flat = np.array(words)
    flat.setflags(write=False)
    return flat


def _expand(mats: np.ndarray, n: int) -> np.ndarray:
    """Flat Pauli coefficients (B, size) of a stack of (B, 2^n, 2^n) matrices.

    Each coefficient is the real part of tr(rho W) / 2^n for the corresponding Pauli word W.
    A Pauli word has one unit entry per row, so for a ``DensityMatrix`` the imaginary part
    dropped is at most ``HERMITICITY_RTOL`` * max|m| / 2, plus einsum roundoff below 1e-14.
    """
    return (np.einsum("wab,zba->zw", _flat_words(n), mats) / 2**n).real


def expand(rho: DensityMatrix) -> BlochTensor:
    """Expand a 1-, 2-, or 3-qubit state in the tensor-product Pauli basis (see ``_expand``)."""
    shape = rho.shape
    if not shape.is_qubits or shape.n > 3:
        raise UnsupportedShape(
            f"Pauli expansion covers 1-3 qubits, got shape {shape}"
        )
    return BlochTensor.from_flat(shape.n, _expand(rho.matrix[None], shape.n)[0])


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
    n = fileio.qubit_count(payload, "Bloch")
    parts = {}
    for name in _SITES[n]:
        if name not in payload:
            raise ParseError(f"missing component '{name}' for n={n}")
        parts[name] = fileio.real_array(payload[name], _SHAPES[name], name)
    return BlochTensor(n=n, **parts)


def write_bloch(t: BlochTensor, path) -> None:
    fileio.write(path, bloch_payload(t))


def read_bloch(path) -> BlochTensor:
    return bloch_from_payload(fileio.read(path))
