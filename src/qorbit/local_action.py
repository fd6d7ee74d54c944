"""Local unitary transformations and their action on Bloch tensors.

Conjugating one qubit by u in SU(2) rotates that site's Bloch indices by
the 3x3 rotation O_ij = tr(sigma_i u sigma_j u^dag) / 2; this module
realizes both directions of that double cover (adjoint_rotation and
lift_rotation) and applies per-site rotations to coefficient tensors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bloch import PAULI, BlochTensor, _parts, _rotate, _tensor
from .errors import (
    NotSpecialOrthogonal,
    NotSpecialUnitary,
    ShapeMismatch,
    _raise_first,
)
from .states import DensityMatrix, SystemShape, _rng
from .tolerances import LIFT_BRANCH_TOL, SPECIAL_TOL, UNITARITY_TOL


def _det(a: np.ndarray):
    """np.linalg.det, quiet on NaN input: the checks that read it refuse a NaN deviation."""
    with np.errstate(invalid="ignore"):
        return np.linalg.det(a)


@dataclass(frozen=True)
class LocalUnitary:
    """One unitary factor per site of a system shape."""

    shape: SystemShape
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) != self.shape.n:
            raise ShapeMismatch(
                f"{len(self.factors)} factors for {self.shape.n} sites"
            )
        factors = []
        for r, (d, u) in enumerate(zip(self.shape.dims, self.factors)):
            u = np.array(u, dtype=complex)
            if u.shape != (d, d):
                raise ShapeMismatch(f"factor {r} has shape {u.shape}, expected ({d}, {d})")
            dev = float(np.max(np.abs(u @ u.conj().T - np.eye(d))))
            if not dev <= UNITARITY_TOL:  # NaN fails too
                raise NotSpecialUnitary(
                    f"factor {r}: max |u u^dag - 1| = {dev:.3e}", margin=dev
                )
            u.setflags(write=False)
            factors.append(u)
        object.__setattr__(self, "factors", tuple(factors))

    def full_matrix(self) -> np.ndarray:
        return functools.reduce(np.kron, self.factors)


@dataclass(frozen=True)
class RotationTriple:
    """Per-site 3x3 special orthogonal matrices (one to three sites)."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 1 <= len(self.mats) <= 3:
            raise ShapeMismatch("rotation set covers 1-3 sites")
        mats = [np.array(o, dtype=float) for o in self.mats]
        n_shaped = next((r for r, o in enumerate(mats) if o.shape != (3, 3)), len(mats))
        # Check the rotations before the first misshapen one, so errors come
        # in the same site order as checking one by one.
        if n_shaped:
            _raise_first(_rotation_errors(np.array(mats[:n_shaped])[:, None]))
        if n_shaped < len(mats):
            raise ShapeMismatch(f"rotation {n_shaped} has shape {mats[n_shaped].shape}")
        for o in mats:
            o.setflags(write=False)
        object.__setattr__(self, "mats", tuple(mats))

    @property
    def n(self) -> int:
        return len(self.mats)

    @classmethod
    def _checked(cls, stack: np.ndarray) -> "RotationTriple":
        """Read-only copies of a (k, 3, 3) stack that ``_rotation_errors`` has passed,
        without checking it again."""
        triple = object.__new__(cls)
        mats = tuple(np.array(o) for o in stack)
        for o in mats:
            o.setflags(write=False)
        object.__setattr__(triple, "mats", mats)
        return triple

    @classmethod
    def identity(cls, n: int) -> "RotationTriple":
        return cls(tuple(np.eye(3) for _ in range(n)))


def _rotation_errors(stack: np.ndarray) -> list:
    """The error of the first rotation failing its SO(3) checks, per member of a site-major
    (k, B, 3, 3) stack (None if all pass); one stacked check for the whole stack."""
    devs = np.abs(stack.swapaxes(-1, -2) @ stack - np.eye(3)).max(axis=(-2, -1))
    det_devs = np.abs(_det(stack) - 1.0)
    errors = []
    for member in zip(devs.T.tolist(), det_devs.T.tolist()):
        errors.append(next((
            NotSpecialOrthogonal(
                f"rotation {r}: orthogonality residue {dev:.3e}, |det - 1| = {det_dev:.3e}",
                margin=max(dev, det_dev),
            )
            for r, (dev, det_dev) in enumerate(zip(*member))
            if not (dev <= UNITARITY_TOL and det_dev <= UNITARITY_TOL)  # NaN fails too
        ), None))
    return errors


def apply(u: LocalUnitary, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate rho by the tensor product of the per-site factors."""
    if u.shape != rho.shape:
        raise ShapeMismatch(f"unitary over {u.shape}, state over {rho.shape}")
    full = u.full_matrix()
    return DensityMatrix(rho.shape, full @ rho.matrix @ full.conj().T)


def haar_local(shape: SystemShape, seed: int = 0) -> LocalUnitary:
    """Independent Haar-distributed factor per site, deterministic per seed.

    Each factor is the Q of a QR factorization of a complex Ginibre matrix
    with the phase fixed so the triangular factor has positive real
    diagonal (which makes the draw Haar). Qubit factors are rescaled to
    determinant one.
    """
    rng = _rng(seed)
    factors = []
    for d in shape.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        q = q * phases
        if d == 2:
            q = q / np.sqrt(np.linalg.det(q))
        factors.append(q)
    return LocalUnitary(shape, tuple(factors))


def adjoint_rotation(u) -> np.ndarray:
    """The SO(3) rotation induced on the Bloch vector by u in SU(2)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2x2 matrix, got {u.shape}")
    det_dev = abs(complex(_det(u)) - 1.0)
    unit_dev = float(np.max(np.abs(u @ u.conj().T - np.eye(2))))
    if not (det_dev <= SPECIAL_TOL and unit_dev <= SPECIAL_TOL):
        raise NotSpecialUnitary(
            f"|det - 1| = {det_dev:.3e}, unitarity residue {unit_dev:.3e}",
            margin=max(det_dev, unit_dev),
        )
    conj = np.einsum("ab,jbc,dc->jad", u, PAULI, u.conj())
    return np.einsum("iab,jba->ij", PAULI, conj).real / 2.0


def lift_rotation(o) -> np.ndarray:
    """An SU(2) element whose adjoint rotation is the given SO(3) matrix.

    Either preimage of the double cover works; the branch is fixed by
    requiring a nonnegative real part on the first nonzero quaternion
    component, so the lift is deterministic.
    """
    o = np.asarray(o, dtype=float)
    if o.shape != (3, 3):
        raise ShapeMismatch(f"expected a 3x3 matrix, got {o.shape}")
    orth_dev = float(np.max(np.abs(o.T @ o - np.eye(3))))
    det_dev = abs(float(_det(o)) - 1.0)
    if not (orth_dev <= SPECIAL_TOL and det_dev <= SPECIAL_TOL):
        raise NotSpecialOrthogonal(
            f"orthogonality residue {orth_dev:.3e}, |det - 1| = {det_dev:.3e}",
            margin=max(orth_dev, det_dev),
        )
    t = float(np.trace(o))
    # Shepperd's method: O gives the symmetric table 4 q q^T. Its row with the
    # largest diagonal entry (the first on ties), divided by 2 sqrt(diag), is q,
    # with sqrt(diag) / 2 in its own place; the large divisor keeps it stable.
    table = np.array([
        [1.0 + t, o[2, 1] - o[1, 2], o[0, 2] - o[2, 0], o[1, 0] - o[0, 1]],
        [o[2, 1] - o[1, 2], 1.0 + 2.0 * o[0, 0] - t, o[0, 1] + o[1, 0], o[0, 2] + o[2, 0]],
        [o[0, 2] - o[2, 0], o[0, 1] + o[1, 0], 1.0 + 2.0 * o[1, 1] - t, o[1, 2] + o[2, 1]],
        [o[1, 0] - o[0, 1], o[0, 2] + o[2, 0], o[1, 2] + o[2, 1], 1.0 + 2.0 * o[2, 2] - t],
    ])
    best = int(np.argmax(np.diag(table)))
    root = np.sqrt(max(table[best, best], 0.0))
    q = table[best] / (2.0 * root)
    q[best] = 0.5 * root
    q /= np.linalg.norm(q)
    for component in q:
        if abs(component) > LIFT_BRANCH_TOL:
            if component < 0:
                q = -q
            break
    w, x, y, z = q
    return np.array(
        [[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=complex
    )


def lift_rotations(rotations: RotationTriple) -> LocalUnitary:
    """Lift every per-site rotation; the result acts on an n-qubit system."""
    shape = SystemShape((2,) * rotations.n)
    return LocalUnitary(shape, tuple(lift_rotation(o) for o in rotations.mats))


def transform_bloch(t: BlochTensor, rotations: RotationTriple) -> BlochTensor:
    """Apply per-site rotations to every component of a Bloch tensor.

    Each component contracts its sites' rotations into its axes: vectors
    rotate by their site's matrix, pair matrices by the two matrices on
    either index, and the triple tensor by one rotation per index.
    """
    if rotations.n != t.n:
        raise ShapeMismatch(f"{rotations.n} rotations for an n={t.n} tensor")
    return _tensor(_rotate(_parts(t), np.array(rotations.mats)[:, None]), t.n, 0)
