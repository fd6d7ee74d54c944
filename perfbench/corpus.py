"""Seeded input corpora for the four workloads, built with numpy alone.

Every corpus is a pure function of (workload, seed). Inputs are raw
complex matrices (or state files written from them) with ground-truth
labels; the program under test never takes part in making them.

Mixes are exact, not sampled: each corpus holds the stated shares of every
kind, size and rank class, and the order is a seeded shuffle in which every
block of consecutive items already carries the full mix. A run that stops
part way through the corpus has therefore still seen the stated mix, which
keeps figures steady from seed to seed.

Known weak spots of the program (mirror images, depolarized and low-rank
states) stay in the corpora on purpose.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# (kind, share) for decide-mix; the shares sum to 1.
DECIDE_KINDS = (
    ("on_orbit", 0.40),
    ("depolarized", 0.15),
    ("isospectral", 0.20),
    ("mirror", 0.10),
    ("random", 0.10),
    ("identical", 0.05),
)
# Kinds whose partner is only well defined on full-rank states: a low-rank
# state can be locally equivalent to its own mirror image.
FULL_RANK_ONLY = ("isospectral", "mirror")
ORBIT_DIM_SHAPES = (
    (2, 3, 4), (3, 3, 3), (4, 4, 4), (3, 3, 3, 3), (2,) * 7, (2,) * 8, (2,) * 9,
)
# numerics runs orbit-dimension shapes of this total dimension or more as probes.
ORBIT_DIM_PROBE_D = 512
# Distinct keys per corpus generator so that no two share a random stream.
_STREAM = {"decide-mix": 1, "oracle-pairs": 2, "orbit-dim-shapes": 3,
           "fingerprint-files": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], int(seed)])


def random_density(rng, d: int, rank: int) -> np.ndarray:
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return _normalize(a @ a.conj().T)


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def local_unitary(rng, dims) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for d in dims:
        out = np.kron(out, haar_unitary(rng, d))
    return out


def conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    return _normalize(u @ m @ u.conj().T)


def depolarize(m: np.ndarray, p: float) -> np.ndarray:
    """rho -> (1 - p) I / D + p rho, which commutes with every local unitary."""
    d = m.shape[0]
    return _normalize((1.0 - p) * np.eye(d) / d + p * m)


def _normalize(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _log_uniform(rng, count: int, low: float, high: float) -> list[float]:
    """``count`` log-uniform draws in [low, high], one from each of ``count``
    equal strata, in seeded order."""
    span = math.log(high) - math.log(low)
    draws = [math.exp(math.log(low) + span * (k + rng.uniform()) / count) for k in range(count)]
    return [draws[k] for k in rng.permutation(count)]


def _lower_ranks(rng, count: int, d: int) -> list[int]:
    """``count`` ranks from 1 to d - 1, each as often as the count allows,
    in seeded order."""
    return [1 + int(k) % (d - 1) for k in rng.permutation(count)]


def _exact_counts(total: int, shares) -> list[int]:
    """Split ``total`` by ``shares`` with largest-remainder rounding."""
    raw = [total * s for s in shares]
    counts = [int(math.floor(r)) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _spread(labels: list[str], rng) -> list[int]:
    """An order in which every stretch of the list carries the full mix.

    Each item gets a target position (k + jitter) / count_of_its_label,
    so labels interleave evenly; the jitter is seeded.
    """
    positions = {}
    for label in sorted(set(labels)):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        rng.shuffle(idx)
        for k, i in enumerate(idx):
            positions[i] = (k + rng.uniform(0.05, 0.95)) / len(idx)
    return sorted(range(len(labels)), key=lambda i: positions[i])


def decide_mix(seed: int, size: int) -> dict:
    """Pairs for ``decide``: six kinds, 80 % 3-qubit, 80 % full rank.

    Mirror and isospectral pairs are always full rank; for the other kinds
    a fifth of the states has a lower rank, each from 1 to D - 1 equally
    often. Depolarizing strengths are log-uniform in [1e-3, 1], stratified.
    """
    rng = rng_for("decide-mix", seed)
    labels = []
    for (kind, _), count in zip(DECIDE_KINDS, _exact_counts(size, [s for _, s in DECIDE_KINDS])):
        n_small = _exact_counts(count, [0.8, 0.2])[1]
        for n, n_count in ((2, n_small), (3, count - n_small)):
            n_low = 0 if kind in FULL_RANK_ONLY else _exact_counts(n_count, [0.8, 0.2])[1]
            labels += [(kind, n, k < n_low) for k in range(n_count)]
    order = _spread([f"{k}/{n}/{low}" for k, n, low in labels], rng)
    # Lower ranks and depolarizing strengths, stratified within each class.
    ranks, strengths = {}, {}
    for label in sorted(set(labels)):
        kind, n, low = label
        count = labels.count(label)
        ranks[label] = iter(_lower_ranks(rng, count, 2**n) if low else [2**n] * count)
        strengths[label] = iter(_log_uniform(rng, count, 1e-3, 1.0))
    first, second, items = [], [], []
    for i in order:
        kind, n, low = labels[i]
        d = 2**n
        rank = next(ranks[labels[i]])
        rho = random_density(rng, d, rank)
        p = 1.0
        if kind == "on_orbit":
            sigma = conjugate(local_unitary(rng, (2,) * n), rho)
        elif kind == "depolarized":
            p = next(strengths[labels[i]])
            sigma = depolarize(conjugate(local_unitary(rng, (2,) * n), rho), p)
            rho = depolarize(rho, p)
        elif kind == "isospectral":
            sigma = conjugate(haar_unitary(rng, d), rho)
        elif kind == "mirror":
            sigma = rho.conj()
        elif kind == "random":
            sigma = random_density(rng, d, rank)
        else:
            sigma = rho.copy()
        spectrum_gap = float(np.max(np.abs(np.linalg.eigvalsh(rho) - np.linalg.eigvalsh(sigma))))
        first.append(rho)
        second.append(sigma)
        items.append({"kind": kind, "n": n, "rank": rank, "p": p,
                      "spectra_differ": spectrum_gap > 1e-6})
    return {"first": first, "second": second, "items": items}


def oracle_pairs(seed: int) -> dict:
    """Full-rank pairs for the oracle: one 2-qubit and one 3-qubit pair of
    each kind. Isospectral pairs have spectral lower bound 0, so all four
    restarts run; on-orbit pairs stop at the first restart that succeeds.
    """
    rng = rng_for("oracle-pairs", seed)
    first, second, items = [], [], []
    for kind in ("isospectral", "on_orbit"):
        for n in (2, 3):
            d = 2**n
            rho = random_density(rng, d, d)
            u = local_unitary(rng, (2,) * n) if kind == "on_orbit" else haar_unitary(rng, d)
            first.append(rho)
            second.append(conjugate(u, rho))
            items.append({"kind": kind, "n": n, "rank": d, "probe": True,
                          "restarts": 20 if kind == "on_orbit" else 4})
    return {"first": first, "second": second, "items": items}


def orbit_dim_shapes(seed: int) -> dict:
    """One generic full-rank state per fixed shape; the largest is a probe."""
    rng = rng_for("orbit-dim-shapes", seed)
    first, items = [], []
    for dims in ORBIT_DIM_SHAPES:
        d = math.prod(dims)
        first.append(random_density(rng, d, d))
        sq = [k * k for k in dims]
        items.append({"dims": list(dims), "probe": d >= ORBIT_DIM_PROBE_D,
                      "expected": d * d - 1 - (math.prod(sq) - sum(sq) + len(dims) - 1)})
    return {"first": first, "items": items}


def fingerprint_files(seed: int, size: int) -> dict:
    """3-qubit states: 70 % full rank, 15 % lower rank, 15 % depolarized."""
    rng = rng_for("fingerprint-files", seed)
    kinds = ("full_rank", "low_rank", "depolarized")
    counts = _exact_counts(size, [0.70, 0.15, 0.15])
    labels = [k for k, c in zip(kinds, counts) for _ in range(c)]
    # Lower ranks from 1 to 7 equally often; strengths stratified, as in decide_mix.
    ranks = iter(_lower_ranks(rng, counts[1], 8))
    strengths = iter(_log_uniform(rng, counts[2], 1e-3, 1.0))
    first, items = [], []
    for i in _spread(labels, rng):
        kind = labels[i]
        rank = next(ranks) if kind == "low_rank" else 8
        rho = random_density(rng, 8, rank)
        p = 1.0
        if kind == "depolarized":
            p = next(strengths)
            rho = depolarize(rho, p)
        first.append(rho)
        items.append({"kind": kind, "n": 3, "rank": rank, "p": p})
    return {"first": first, "items": items}


def cli_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A generic 3-qubit on-orbit pair for the CLI processes."""
    rng = np.random.default_rng([5, int(seed)])
    rho = random_density(rng, 8, 8)
    return rho, conjugate(local_unitary(rng, (2, 2, 2)), rho)


def write_state(path: str, m: np.ndarray, dims) -> None:
    """The program's state-file format, floats at full round-trip precision."""
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(dims), "matrix": rows}, fh)


def save(corpus: dict, path: str) -> None:
    """Store a corpus as one .npz: matrices as arrays, labels as JSON."""
    arrays = {}
    for key in ("first", "second"):
        for i, m in enumerate(corpus.get(key, [])):
            if m is not None:
                arrays[f"{key}_{i}"] = m
    arrays["items"] = np.frombuffer(json.dumps(corpus["items"]).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load(path: str) -> dict:
    with np.load(path) as data:
        items = json.loads(bytes(data["items"]).decode())
        corpus = {"items": items}
        for key in ("first", "second"):
            corpus[key] = [data[f"{key}_{i}"] if f"{key}_{i}" in data.files else None
                           for i in range(len(items))]
    return corpus


def build(workload: str, seed: int, sizes: dict, workdir: str) -> str:
    """Generate the workload's corpus (and state files) under ``workdir``."""
    if workload == "decide-mix":
        corpus = decide_mix(seed, sizes[workload])
    elif workload == "numerics":
        shapes, pairs = orbit_dim_shapes(seed), oracle_pairs(seed)
        corpus = {"items": shapes["items"] + pairs["items"],
                  "first": shapes["first"] + pairs["first"],
                  "second": [None] * len(shapes["items"]) + pairs["second"]}
    else:
        corpus = fingerprint_files(seed, sizes[workload])
        for i, m in enumerate(corpus["first"]):
            write_state(os.path.join(workdir, f"state_{i}.json"), m, (2, 2, 2))
    path = os.path.join(workdir, "corpus.npz")
    save(corpus, path)
    for name, m in zip(("cli_a.json", "cli_b.json"), cli_pair(seed)):
        write_state(os.path.join(workdir, name), m, (2, 2, 2))
    return path
