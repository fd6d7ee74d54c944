"""Outputs the theory says a local unitary cannot move stay put.

Each case draws a state of any rank, depolarizes it to (1 - p) I/D + p rho
with p log-uniform in [1e-4, 1], and conjugates it by an independent Haar
unitary on each site. An orbit-invariant quantity of degree k in the Bloch
coefficients must then agree within ``RTOL * nu**k``, where nu is the norm
of the non-identity coefficients (itself an orbit invariant, proportional
to p). The moved matrix carries absolute roundoff of about eps / D per
coefficient, which is 1e-12 of nu**k at p = 1e-4, so ``RTOL`` leaves a wide
margin.

``decide``'s verdict is held to the same: on-orbit and mirror pairs
depolarized at p = 2^-k, k = 0 ... 13, get one verdict at every p and
under independent local unitaries on each state. ``decide`` compares the
pair after scaling it exactly by a power of two to a coefficient norm in
[0.5, 1), so p and the gauge move its comparisons by roundoff only, which
its budget covers. On-orbit pairs mixed toward a Bell or GHZ state, whose Gram
spectra are nearly degenerate, are never called ``distinct``, at the
default rtol or at 0.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit.tolerances import COMPONENT_TOL, EIGENGAP_RTOL, SIGN_INVARIANT_TOL

RTOL = 1e-9
# How far each genericity margin must clear its threshold for the canonical
# point to be pinned down well enough to compare.
WIDE = 1e3
QUBITS = ((2, 2), (2, 2, 2))
QUDITS = ((2, 3), (3, 3))
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def moved_states(draw, shapes):
    """A depolarized state of a drawn shape and rank, and its image under local unitaries."""
    shape = q.SystemShape(draw(st.sampled_from(shapes)))
    d = shape.total_dim
    rho = q.random_state(shape, rank=draw(st.integers(1, d)), seed=draw(SEEDS))
    p = 10.0 ** draw(st.floats(-4.0, 0.0))
    rho = q.DensityMatrix(shape, (1.0 - p) * np.eye(d) / d + p * rho.matrix)
    return rho, q.apply(q.haar_local(shape, seed=draw(SEEDS)), rho)


def nu(t) -> float:
    return float(np.linalg.norm(t.flatten()))


def clear(report) -> bool:
    """Every margin of report clears its threshold by the factor ``WIDE``."""
    sites = zip(report.eigengaps, report.gram_traces, report.min_components, report.sign_invariants)
    return all(
        gap > WIDE * EIGENGAP_RTOL * trace and low > WIDE * COMPONENT_TOL and sign > WIDE * SIGN_INVARIANT_TOL
        for gap, trace, low, sign in sites if gap is not None
    )


covariance = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@covariance
@given(moved_states(QUBITS))
def test_invariants(pair):
    t, moved = map(q.expand, pair)
    family = q.invariants2 if t.n == 2 else q.invariants3
    a, b = family(t), family(moved)
    assert np.all(np.abs(a.values - b.values) <= RTOL * nu(t) ** np.array(a.DEGREES))


@covariance
@given(moved_states(QUBITS))
def test_genericity_margins(pair):
    t, moved = map(q.expand, pair)
    a, b = q.genericity(t), q.genericity(moved)
    scale = nu(t)
    for site in range(t.n):
        trace, gap = a.gram_traces[site], a.eigengaps[site]
        assert abs(b.gram_traces[site] - trace) <= RTOL * scale**2
        assert abs(b.eigengaps[site] - gap) <= RTOL * scale**2
        assert abs(b.sign_invariants[site] - a.sign_invariants[site]) <= RTOL * scale**9
        # The components are read in the Gram eigenframe, which roundoff
        # turns by about eps over the relative eigengap.
        if gap > 0.0:
            assert abs(b.min_components[site] - a.min_components[site]) <= RTOL * scale * trace / gap
    if clear(a):
        assert a.generic and b.generic


@covariance
@given(moved_states(QUBITS))
def test_canonical_point(pair):
    t, moved = map(q.expand, pair)
    a = q.canonicalize(t)
    assume(clear(a.report))
    b = q.canonicalize(moved)
    assert np.abs(a.tensor.flatten() - b.tensor.flatten()).max() <= RTOL * nu(t)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(moved_states(QUDITS))
def test_orbit_dimension(pair):
    a, b = (q.orbit_dimension(rho) for rho in pair)
    assert a.dimension == b.dimension


def depolarized(rho, p):
    d = rho.shape.total_dim
    return q.DensityMatrix(rho.shape, (1.0 - p) * np.eye(d) / d + p * rho.matrix)


@pytest.mark.parametrize("kind", ["on-orbit", "mirror"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decide_one_verdict_at_every_mix_and_gauge(kind, n, seed):
    shape = q.SystemShape((2,) * n)
    rho = q.random_state(shape, seed=seed)
    if kind == "on-orbit":
        partner = q.apply(q.haar_local(shape, seed=seed + 100), rho)
    else:
        partner = q.DensityMatrix(shape, rho.matrix.conj())
    verdicts = set()
    for k in range(14):
        pair = [depolarized(x, 2.0**-k) for x in (rho, partner)]
        verdicts.add(q.decide(*pair).verdict)
        for gauge in range(2):
            seeds = (1000 * seed + 10 * k + gauge, 2000 * seed + 10 * k + gauge)
            verdicts.add(q.decide(*(q.apply(q.haar_local(shape, seed=s), x) for s, x in zip(seeds, pair))).verdict)
    assert verdicts == {"equivalent" if kind == "on-orbit" else "distinct"}


@covariance
@given(st.sampled_from((2, 3)), st.floats(-7.0, 0.0), SEEDS, SEEDS, st.sampled_from((None, 0.0)))
def test_decide_near_degenerate_on_orbit_pairs_never_distinct(n, log_weight, seed, unitary_seed, rtol):
    """A Bell (n = 2) or GHZ (n = 3) state mixed with a random state of weight w has Gram
    eigengaps of about w relative to their trace, which the canonical budget's 1/relgap covers."""
    shape = q.SystemShape((2,) * n)
    d = shape.total_dim
    psi = np.zeros(d)
    psi[0] = psi[-1] = 2.0**-0.5
    w = 10.0**log_weight
    rho = q.DensityMatrix(shape, (1.0 - w) * np.outer(psi, psi) + w * q.random_state(shape, seed=seed).matrix)
    moved = q.apply(q.haar_local(shape, seed=unitary_seed), rho)
    assert q.decide(rho, moved, **({} if rtol is None else {"rtol": rtol})).verdict != "distinct"
