"""Print two SHA-256 digests of qorbit's outputs on fixed-seed corpora.

Run it in two checkouts; equal digests mean a change kept every output
byte of the library and CLI paths below:

    python tools/same_outputs.py

``library`` hashes, for ``decide_mix(seed, 400)`` with seeds 1-3, the
``decide`` verdict repr and payload, and for both states of each pair the
``canonicalize`` tensor, gauge and report and the invariant values (or the
error each call raised).

``cli`` hashes, for ``fingerprint_files(seed, 100)`` with seeds 1-2, the
stdout, stderr and exit code of ``invariants``, ``canonical`` and
``expand`` (each plain and ``--json``), and of ``reconstruct`` (plain and
``--json``) on every invariants file written with exit code 0.

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
import qorbit  # noqa: E402
from qorbit.cli import run  # noqa: E402


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
            verdict = qorbit.decide(rho1, rho2)
            digest.update(repr(verdict).encode())
            digest.update(repr(verdict.payload()).encode())
            fingerprint = qorbit.invariants3 if item["n"] == 3 else qorbit.invariants2
            for rho in (rho1, rho2):
                t = qorbit.expand(rho)
                point = _call(digest, qorbit.canonicalize, t)
                if point is not None:
                    digest.update(point.tensor.flatten().tobytes())
                    for o in point.gauge.mats:
                        digest.update(o.tobytes())
                    digest.update(repr(point.report).encode())
                inv = _call(digest, fingerprint, t)
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
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


def main() -> None:
    print(f"library {library_digest()}")
    print(f"cli     {cli_digest()}")


if __name__ == "__main__":
    main()
