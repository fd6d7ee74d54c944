"""Print four SHA-256 digests of qorbit's outputs on fixed-seed corpora.

Run it in two checkouts; equal digests mean a change kept every output
byte of the library and CLI paths below:

    python tools/same_outputs.py

Compare runs on one host with one BLAS thread count: LAPACK's bytes, and
so the ``orbit`` and ``states`` digests, can differ between them.

``library`` hashes, for ``decide_mix(seed, 400)`` with seeds 1-3, the
verdict repr and payload of ``decide`` on the pair in both argument
orders (``decide`` runs the two states as one batch of two, so each state
is checked in both batch positions), and for both states of each pair the
``canonicalize`` tensor, gauge and report and the invariant values (or the
error each call raised).

``cli`` hashes, for ``fingerprint_files(seed, 100)`` with seeds 1-2, the
stdout, stderr and exit code of ``invariants``, ``canonical`` and
``expand`` (each plain and ``--json``), and of ``reconstruct`` (plain and
``--json``) on every invariants file written with exit code 0. It then
hashes the same for 20 seeded 1-qubit and 20 seeded 2-qubit states, every
rank in turn: ``invariants`` plain and ``--json`` (for two qubits also
with ``--set minimal``), ``expand --json`` and ``canonical --json``.

``orbit`` hashes, for ``orbit_dim_shapes(seed)`` with seeds 1-2, the
``orbit_dimension`` singular-value bytes and dimension of every shape,
and the outputs of ``orbit-dim --random --json`` on three shapes: one
ranked in a single stream block and two streamed in several.

``states`` hashes, for ``DensityMatrix`` on a seeded corpus of states at
the positivity boundary (D from 4 to 256; smallest eigenvalue just above
and below ``EIGENVALUE_FLOOR``, at half of it, at 0 in rank-deficient
states, and clearly negative or positive), whether each state is
accepted, each error's type, message and margin, and the
``eigenvalues()`` bytes of each accepted state.

The qorbit imported is the one under this checkout's ``src/``; the inputs
come from ``perfbench/corpus.py``, which is only imported.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import corpus  # noqa: E402
import numpy as np  # noqa: E402
import qorbit  # noqa: E402
from qorbit.cli import run  # noqa: E402
from qorbit.tolerances import EIGENVALUE_FLOOR  # noqa: E402


def _call(digest, fn, *args):
    """fn's result, or None after hashing the type and message of its error."""
    try:
        result = fn(*args)
    except qorbit.ToolkitError as exc:
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        return None
    return result


def library_digest() -> str:
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        mix = corpus.decide_mix(seed, 400)
        for item, m1, m2 in zip(mix["items"], mix["first"], mix["second"]):
            shape = qorbit.SystemShape((2,) * item["n"])
            rho1, rho2 = qorbit.DensityMatrix(shape, m1), qorbit.DensityMatrix(shape, m2)
            for verdict in (qorbit.decide(rho1, rho2), qorbit.decide(rho2, rho1)):
                digest.update(repr(verdict).encode())
                digest.update(repr(verdict.payload()).encode())
            for rho in (rho1, rho2):
                t = qorbit.expand(rho)
                point = _call(digest, qorbit.canonicalize, t)
                if point is not None:
                    digest.update(point.tensor.flatten().tobytes())
                    for o in point.gauge.mats:
                        digest.update(o.tobytes())
                    digest.update(repr(point.report).encode())
                inv = _call(digest, qorbit.invariants.fingerprint, t)
                if inv is not None:
                    digest.update(inv.values.tobytes())
    return digest.hexdigest()


def _cli(digest, *argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return code, out.getvalue()


def cli_digest() -> str:
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # relative paths keep the temporary directory out of the outputs
        try:
            for seed in (1, 2):
                files = corpus.fingerprint_files(seed, 100)
                for i, m in enumerate(files["first"]):
                    state = f"state_{seed}_{i}.json"
                    corpus.write_state(state, m, (2, 2, 2))
                    for command in ("invariants", "canonical", "expand"):
                        _cli(digest, command, state)
                        code, out = _cli(digest, command, state, "--json")
                        if command == "invariants" and code == 0:
                            inv = f"inv_{seed}_{i}.json"
                            with open(inv, "w", encoding="utf-8") as fh:
                                fh.write(out)
                            _cli(digest, "reconstruct", inv)
                            _cli(digest, "reconstruct", inv, "--json")
            rng = np.random.default_rng(15)
            for n in (1, 2):
                sets = ((), ("--set", "minimal")) if n == 2 else ((),)
                for i in range(20):
                    state = f"small_{n}_{i}.json"
                    corpus.write_state(state, corpus.random_density(rng, 2**n, 1 + i % 2**n), (2,) * n)
                    for extra in sets:
                        _cli(digest, "invariants", state, *extra)
                        _cli(digest, "invariants", state, *extra, "--json")
                    _cli(digest, "expand", state, "--json")
                    _cli(digest, "canonical", state, "--json")
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


def orbit_digest() -> str:
    digest = hashlib.sha256()
    for seed in (1, 2):
        shapes = corpus.orbit_dim_shapes(seed)
        for item, m in zip(shapes["items"], shapes["first"]):
            result = qorbit.orbit_dimension(qorbit.DensityMatrix(qorbit.SystemShape(tuple(item["dims"])), m))
            digest.update(f"{item['dims']} {result.dimension}\n".encode())
            digest.update(result.singular_values.tobytes())
    for dims in ("2,3,4", "2,2,2,2,2,2,2,2,2", "3,3,3,3,4"):
        _cli(digest, "orbit-dim", "--random", "--dims", dims, "--seed", "1", "--json")
    return digest.hexdigest()


# One shape per total dimension of the positivity corpus.
BOUNDARY_SHAPES = ((2, 2), (2, 2, 2), (2,) * 4, (2, 3, 4), (4, 4, 4), (2,) * 7, (2,) * 8)
# Smallest eigenvalues placed around the floor, half of it, 0 and clearly off it.
BOUNDARY_LOWEST = tuple(
    EIGENVALUE_FLOOR * (1 + sign * 10.0 ** -k) for k in range(1, 7) for sign in (-1, 1)
) + (EIGENVALUE_FLOOR / 2, 0.0, -1e-6, 1e-6)


def boundary_state(d: int, lowest: float, zeros: int, rng) -> np.ndarray:
    """U diag(lam) U^H, U random unitary: ``zeros`` eigenvalues 0, then ``lowest``, the rest positive."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rest = rng.uniform(0.1, 1.0, d - zeros - 1)
    lam = np.concatenate([np.zeros(zeros), [lowest], rest * (1.0 - lowest) / rest.sum()])
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


def states_digest() -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(14)
    for dims in BOUNDARY_SHAPES:
        shape = qorbit.SystemShape(dims)
        d = shape.total_dim
        for zeros in (0, d // 2):
            for lowest in BOUNDARY_LOWEST:
                m = boundary_state(d, lowest, zeros, rng)
                try:
                    rho = qorbit.DensityMatrix(shape, m)
                except qorbit.ValidationError as exc:
                    digest.update(f"{dims} refused {type(exc).__name__}: {exc} {exc.margin!r}\n".encode())
                    continue
                digest.update(f"{dims} accepted\n".encode())
                digest.update(rho.eigenvalues().tobytes())
    return digest.hexdigest()


def main() -> None:
    print(f"library {library_digest()}")
    print(f"cli     {cli_digest()}")
    print(f"orbit   {orbit_digest()}")
    print(f"states  {states_digest()}")


if __name__ == "__main__":
    main()
