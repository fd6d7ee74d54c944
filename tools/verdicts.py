"""Print how ``decide`` answers fixed-seed pairs of known relation, one count per line.

    python tools/verdicts.py

Each line is a key and a value separated by a tab, so two runs (say, of
two checkouts) can be joined by key. The sections:

``route`` counts, over ``decide_mix(seed, 500)`` for seeds 1-2 (1,000
pairs), the pairs of each kind and qubit count n by verdict and witness.
The witness is ``identical``, ``spectrum``, ``invariant`` (any member),
``canonical`` or ``non-generic``. ``wrong`` counts the verdicts that
contradict the kind (``distinct`` for an on-orbit, depolarized or
identical pair, ``equivalent`` for the others), ``inconclusive`` the
undecided pairs.

``genericity`` counts, over the same pairs, the genericity reports that
``decide`` returns and those among them whose ``generic`` differs from
that of ``canonicalize`` on the same state: ``decide`` judges genericity
on the pair scaled to a coefficient norm in [0.5, 1), ``canonicalize`` at
the state's own scale.

``ladder`` counts the ``distinct`` verdicts among 20 epsilon-pairs per
decade, epsilon = 1e-13 ... 1e-6, at ``decide``'s default rtol and at 0:
a full-rank state rho against e^{i eps H} rho e^{-i eps H}, with H a random
global Hermitian of spectral norm 1. These pairs are never LU-equivalent,
so the ladder shows how close a pair ``decide`` resolves.

``flips`` counts verdict changes under re-gauging: 240 epsilon-pairs
(epsilon log-uniform in [1e-13, 1e-5], 120 each for n = 2 and 3), each
decided again 4 times after an independent local unitary on each state.
An orbit verdict should never move.

``depolarized`` counts the verdicts on mirror (rho against its complex
conjugate) and isospectral (a random global unitary) pairs of full-rank
states, both states mixed as (1 - p) I/D + p rho, 20 pairs per p and n.
Both kinds are never LU-equivalent.

The qorbit imported is the one under this checkout's ``src/``; the states
and unitaries come from ``perfbench/corpus.py``, which is only imported.
One run takes a few seconds.
"""

from __future__ import annotations

import collections
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import corpus  # noqa: E402
import numpy as np  # noqa: E402
import qorbit  # noqa: E402

EQUIVALENT_KINDS = ("on_orbit", "depolarized", "identical")
VERDICTS = ("equivalent", "distinct", "inconclusive")
DECADES = range(-13, -5)
RTOLS = (("default", {}), ("0", {"rtol": 0.0}))


def _line(key: str, value) -> None:
    print(f"{key}\t{value}", flush=True)


def _state(m: np.ndarray) -> qorbit.DensityMatrix:
    return qorbit.DensityMatrix(qorbit.SystemShape((2,) * int(math.log2(len(m)))), m)


def _decide(m1: np.ndarray, m2: np.ndarray, **kwargs):
    return qorbit.decide(_state(m1), _state(m2), **kwargs)


def _witness(name: str) -> str:
    return name if name in ("identical", "spectrum", "canonical", "non-generic") else "invariant"


def routes() -> None:
    counts, wrong, undecided, reports, split = collections.Counter(), 0, 0, 0, 0
    for seed in (1, 2):
        mix = corpus.decide_mix(seed, 500)
        for item, m1, m2 in zip(mix["items"], mix["first"], mix["second"]):
            verdict = _decide(m1, m2)
            v, kind = verdict.verdict, item["kind"]
            counts[(kind, item["n"], v, _witness(verdict.witness.name))] += 1
            wrong += v == ("distinct" if kind in EQUIVALENT_KINDS else "equivalent")
            undecided += v == "inconclusive"
            for m, report in zip((m1, m2), verdict.genericity or ()):
                reports += 1
                split += report.generic != qorbit.canonicalize(qorbit.expand(_state(m))).report.generic
    for (kind, n, v, witness), count in sorted(counts.items()):
        _line(f"route {kind} n={n} {v} {witness}", count)
    _line("route wrong", wrong)
    _line("route inconclusive", undecided)
    _line("genericity reports", reports)
    _line("genericity decide differs from canonicalize", split)


def _epsilon_pair(rng, n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    d = 2**n
    rho = corpus.random_density(rng, d, d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    u = (v * np.exp(1j * eps * w / np.abs(w).max())) @ v.conj().T
    return rho, corpus.conjugate(u, rho)


def ladder() -> None:
    _line("ladder eps", " ".join(f"1e{k}" for k in DECADES))
    rng = np.random.default_rng(26001)
    pairs = {(n, k): [_epsilon_pair(rng, n, 10.0**k) for _ in range(20)] for n in (2, 3) for k in DECADES}
    for label, kwargs in RTOLS:
        for n in (2, 3):
            row = [sum(_decide(*pair, **kwargs).verdict == "distinct" for pair in pairs[(n, k)]) for k in DECADES]
            _line(f"ladder distinct of 20 rtol={label} n={n}", " ".join(f"{c:>5}" for c in row))


def flips() -> None:
    rng = np.random.default_rng(26002)
    cases = []
    for n in (2, 3):
        for eps in np.exp(rng.uniform(math.log(1e-13), math.log(1e-5), 120)):
            pair = _epsilon_pair(rng, n, float(eps))
            gauges = [tuple(corpus.conjugate(corpus.local_unitary(rng, (2,) * n), m) for m in pair) for _ in range(4)]
            cases.append((pair, gauges))
    for label, kwargs in RTOLS:
        count = 0
        for pair, gauges in cases:
            verdict = _decide(*pair, **kwargs).verdict
            count += sum(_decide(*moved, **kwargs).verdict != verdict for moved in gauges)
        _line(f"flips of 960 rtol={label}", count)


def depolarized() -> None:
    rng = np.random.default_rng(26003)
    for kind in ("mirror", "isospectral"):
        for n in (2, 3):
            d = 2**n
            for p in (1e-2, 1e-3, 1e-4):
                counts = collections.Counter()
                for _ in range(20):
                    rho = corpus.random_density(rng, d, d)
                    sigma = rho.conj() if kind == "mirror" else corpus.conjugate(corpus.haar_unitary(rng, d), rho)
                    counts[_decide(corpus.depolarize(rho, p), corpus.depolarize(sigma, p)).verdict] += 1
                _line(f"depolarized {kind} n={n} p={p:.0e}", " ".join(f"{v} {counts[v]}" for v in VERDICTS))


def main() -> None:
    routes()
    ladder()
    flips()
    depolarized()


if __name__ == "__main__":
    main()
