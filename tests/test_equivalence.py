import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit.bloch import PAULI, _expand, _flat, _site_vectors, _split, _top
from qorbit.canonical import _canonical, _reports
from qorbit.equivalence import EquivalenceVerdict, Witness, spectral_lower_bound
from qorbit.errors import ShapeMismatch, UnsupportedShape, ValidationError
from qorbit.invariants import NAMES3, _fingerprint, _gram_mats, first_disagreement
from qorbit.tolerances import COMPARE_RTOL, IDENTICAL_TOL, ROUNDOFF_FACTOR, SPECTRUM_TOL


def on_orbit_pair(dims, state_seed, unitary_seed):
    shape = q.SystemShape(dims)
    rho = q.random_state(shape, seed=state_seed)
    return rho, q.apply(q.haar_local(shape, seed=unitary_seed), rho)


def permute_qubits(rho, order):
    """rho with its qubits reordered: qubit k of the result is qubit order[k] of rho."""
    n = rho.shape.n
    m = rho.matrix.reshape((2,) * (2 * n)).transpose(*order, *(n + k for k in order))
    return q.DensityMatrix(rho.shape, m.reshape(2**n, 2**n))


def pair_of_kind(kind, n, seed):
    """Two n-qubit states related as ``kind`` says."""
    shape = q.SystemShape((2,) * n)
    d = 2**n
    rho = q.random_state(shape, seed=seed)
    if kind == "on-orbit":
        return rho, q.apply(q.haar_local(shape, seed=seed + 1), rho)
    if kind.startswith("depolarized"):
        p = float(kind.split()[1])
        sigma = q.apply(q.haar_local(shape, seed=seed + 1), rho)
        return tuple(q.DensityMatrix(shape, (1.0 - p) * np.eye(d) / d + p * x.matrix) for x in (rho, sigma))
    if kind == "isospectral":
        rng = np.random.default_rng(seed + 1)
        v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return rho, q.DensityMatrix(shape, v @ rho.matrix @ v.conj().T)
    if kind == "mirror":
        return rho, q.DensityMatrix(shape, rho.matrix.conj())
    if kind == "product":  # non-generic: rank-one top tensor
        factors = (q.random_state(q.SystemShape((2,)), seed=seed + k).matrix for k in range(n))
        rho = q.DensityMatrix(shape, functools.reduce(np.kron, factors))
        return rho, q.apply(q.haar_local(shape, seed=seed + 1), rho)
    if kind.startswith("rank-deficient"):
        rho = q.random_state(shape, rank=1 + seed % (d - 1), seed=seed)
        if kind.endswith("mirror"):
            return rho, q.DensityMatrix(shape, rho.matrix.conj())
        return rho, q.apply(q.haar_local(shape, seed=seed + 1), rho)
    return rho, q.random_state(shape, rank=1 + seed % d, seed=seed + 1)


def epsilon_pair(n, seed, eps):
    """A full-rank state and its image under e^{i eps H}, H a random global Hermitian of norm 1:
    never LU-equivalent, and as close as eps makes them."""
    shape = q.SystemShape((2,) * n)
    d = 2**n
    rho = q.random_state(shape, seed=seed)
    rng = np.random.default_rng(seed + 1)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    u = (v * np.exp(1j * eps * w / np.abs(w).max())) @ v.conj().T
    return rho, q.DensityMatrix(shape, u @ rho.matrix @ u.conj().T)


def near_degenerate_triple(seed, relgap):
    """A generic 3-qubit state whose site-1 Gram matrix has its top two eigenvalues relgap times its
    trace apart: the triple block's site-1 singular values are set so, and every Bloch component is
    halved so that the state stays positive definite."""
    t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=seed))
    u, s, vt = np.linalg.svd(t.triple.reshape(3, 9), full_matrices=False)
    squares = s**2
    squares[1] = squares[0] - relgap * squares.sum()
    components = {name: 0.5 * value for name, value in t.component_items()}
    components["triple"] = 0.5 * ((u * np.sqrt(squares)) @ vt).reshape(3, 3, 3)
    return q.reconstruct(q.BlochTensor(n=3, **components))


def pair_block_perturbed(rho, delta):
    """rho plus delta times a sum of the words sigma_i x sigma_j x 1 chosen so that no eigenvalue
    moves to first order. Only the pair_12 block changes: the spectra agree to O(delta^2), members
    0-20 (which read no pair block) and the Gram matrices to roundoff, and the pair_12 members I12_rs
    and the canonical point by O(delta)."""
    words = [np.kron(np.kron(PAULI[i], PAULI[j]), np.eye(2)) for i in range(3) for j in range(3)]
    _, vecs = np.linalg.eigh(rho.matrix)
    # Row k: each word's first-order shift of eigenvalue k. 8 rows of rank 7 (the shifts sum to
    # the trace, 0), so the last right singular vector is a null direction.
    shifts = np.array([[np.vdot(v, w @ v).real for w in words] for v in vecs.T])
    direction = np.linalg.svd(shifts)[2][-1]
    return q.DensityMatrix(rho.shape, rho.matrix + delta * np.tensordot(direction, words, axes=1))


def decide_ref(rho1, rho2, rtol=COMPARE_RTOL):
    """``decide`` in the order it had before the canonical point came first: compare the whole
    invariant family, then the canonical forms. Kept as the oracle of the payload bytes."""
    n = rho1.shape.n
    entry_scale = max(float(np.abs(rho1.matrix).max()), float(np.abs(rho2.matrix).max()))
    ident_dev = float(np.abs(rho1.matrix - rho2.matrix).max())
    if ident_dev <= IDENTICAL_TOL * entry_scale:
        return EquivalenceVerdict("equivalent", Witness("identical", None, ident_dev))
    spectra = rho1.eigenvalues(), rho2.eigenvalues()
    spec_diff = float(np.abs(spectra[0] - spectra[1]).max())
    if spec_diff > SPECTRUM_TOL:
        return EquivalenceVerdict("distinct", Witness("spectrum", None, spec_diff))
    coeffs = _expand(np.array((rho1.matrix, rho2.matrix)), n)
    nu = max(math.hypot(*row) for row in coeffs.tolist())
    if nu == 0.0:
        return EquivalenceVerdict("equivalent", Witness("identical", None, ident_dev))
    e = math.frexp(nu)[1]
    nu = math.ldexp(nu, -e)
    top = max(float(spectra[0][-1]), float(spectra[1][-1]))
    roundoff = ROUNDOFF_FACTOR * sys.float_info.epsilon * max(nu, math.ldexp(top, -e))
    parts = _split(np.ldexp(coeffs, -e), n)
    g = _gram_mats(_top(parts))
    family, (inv1, inv2) = _fingerprint(parts, g, n)
    bad = first_disagreement(inv1, inv2, family.DEGREES, nu, rtol=rtol + roundoff / nu)
    if bad is not None:
        k = family.DEGREES[bad] * e
        values = math.ldexp(inv1[bad], k), math.ldexp(inv2[bad], k)
        return EquivalenceVerdict("distinct", Witness(family.NAMES[bad], values, abs(values[0] - values[1])))
    canonical, _, gram_spectra = _canonical(parts, n, g)
    reports = _reports(gram_spectra, _site_vectors(canonical))
    at_input = _reports(gram_spectra, _site_vectors(canonical), e)
    if not (reports[0].generic and reports[1].generic):
        return EquivalenceVerdict("inconclusive", Witness("non-generic", None, 0.0), at_input)
    points = _flat(canonical)
    deviation = float(np.abs(points[0] - points[1]).max())
    relgap = min(gap / trace for r in reports for gap, trace in zip(r.eigengaps, r.gram_traces) if gap is not None)
    verdict = "equivalent" if deviation <= roundoff * (1.0 + 1.0 / relgap) + rtol * nu else "distinct"
    return EquivalenceVerdict(verdict, Witness("canonical", None, math.ldexp(deviation, e)), at_input)


PAIR_KINDS = ["on-orbit", "depolarized 0.3", "depolarized 0.01", "isospectral", "mirror", "random"]
# Every kind decide_ref is held to, each well away from the rtol boundary.
ORDER_KINDS = PAIR_KINDS + ["depolarized 0.0001", "rank-deficient", "rank-deficient mirror", "product"]


class TestDecide:
    def test_identical_states(self):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=1)
        verdict = q.decide(rho, rho)
        assert verdict.verdict == "equivalent"

    def test_identical_non_generic_states(self):
        mm = q.maximally_mixed(q.SystemShape((2, 2)))
        assert q.decide(mm, mm).verdict == "equivalent"

    def test_states_apart_only_in_admitted_anti_hermitian_roundoff(self):
        """Both Pauli expansions are zero, so there is no pair norm to scale by: the states are
        the maximally mixed state twice, as far as any later stage can see."""
        shape = q.SystemShape((2, 2))
        word = np.kron(PAULI[0], PAULI[1])
        rho1 = q.DensityMatrix(shape, np.eye(4, dtype=complex) / 4)
        rho2 = q.DensityMatrix(shape, np.eye(4) / 4 + 1e-13j * word)
        verdict = q.decide(rho1, rho2)
        assert verdict.verdict == "equivalent"
        assert verdict.witness == q.equivalence.Witness("identical", None, 1e-13)

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_on_orbit_pairs_equivalent(self, seed):
        rho1, rho2 = on_orbit_pair((2, 2, 2), seed, 100 + seed)
        verdict = q.decide(rho1, rho2)
        assert verdict.verdict == "equivalent"
        assert verdict.witness.name == "canonical"
        assert verdict.witness.difference <= 1e-6

    @pytest.mark.parametrize("seed", [6, 7])
    def test_two_qubit_on_orbit_pairs(self, seed):
        rho1, rho2 = on_orbit_pair((2, 2), seed, 200 + seed)
        assert q.decide(rho1, rho2).verdict == "equivalent"

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_independent_pairs_distinct_with_spectrum_witness(self, seed):
        shape = q.SystemShape((2, 2, 2))
        rho1 = q.random_state(shape, seed=seed)
        rho2 = q.random_state(shape, seed=300 + seed)
        verdict = q.decide(rho1, rho2)
        assert verdict.verdict == "distinct"
        assert verdict.witness.name == "spectrum"
        assert verdict.witness.difference > 1e-10

    def test_equal_spectrum_pair_distinct_with_invariant_witness(self):
        # A global (entangling) unitary preserves the spectrum but moves
        # the local-unitary orbit, so an invariant must witness.
        shape = q.SystemShape((2, 2, 2))
        rho1 = q.random_state(shape, seed=11)
        rng = np.random.default_rng(12)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        v, _ = np.linalg.qr(g)
        rho2 = q.DensityMatrix(shape, v @ rho1.matrix @ v.conj().T)
        verdict = q.decide(rho1, rho2)
        assert verdict.verdict == "distinct"
        assert verdict.witness.name != "spectrum"
        assert verdict.witness.values is not None

    def test_non_generic_matching_pair_inconclusive(self, ghz):
        shape = q.SystemShape((2, 2, 2))
        moved = q.apply(q.haar_local(shape, seed=13), ghz)
        verdict = q.decide(ghz, moved)
        assert verdict.verdict == "inconclusive"
        assert verdict.genericity is not None
        assert not verdict.genericity[0].generic

    @pytest.mark.parametrize("seed", [14, 15, 30, 40, 50])
    def test_symmetry(self, seed):
        """Swapping the arguments keeps the verdict, the witness name and its difference, and
        swaps the witness values and the two genericity reports."""
        rho1, rho2 = on_orbit_pair((2, 2, 2), seed, 400 + seed)
        assert q.decide(rho1, rho2).verdict == q.decide(rho2, rho1).verdict
        rho3 = q.random_state(q.SystemShape((2, 2, 2)), seed=500 + seed)
        assert q.decide(rho1, rho3).verdict == q.decide(rho3, rho1).verdict
        for kind, n in itertools.product(PAIR_KINDS, (2, 3)):
            rho1, rho2 = pair_of_kind(kind, n, seed)
            forward, backward = q.decide(rho1, rho2), q.decide(rho2, rho1)
            assert backward.verdict == forward.verdict, (kind, n)
            assert backward.witness.name == forward.witness.name, (kind, n)
            assert backward.witness.difference == forward.witness.difference, (kind, n)
            values = forward.witness.values
            assert backward.witness.values == (None if values is None else values[::-1]), (kind, n)
            reports = forward.genericity
            assert repr(backward.genericity) == repr(None if reports is None else reports[::-1]), (kind, n)

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [30, 40, 50])
    def test_covariant_under_qubit_permutation(self, kind, n, seed):
        rho1, rho2 = pair_of_kind(kind, n, seed)
        verdict = q.decide(rho1, rho2).verdict
        for order in itertools.permutations(range(n)):
            moved = q.decide(permute_qubits(rho1, order), permute_qubits(rho2, order))
            assert moved.verdict == verdict, order

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [30, 40, 50])
    def test_covariant_under_complex_conjugation(self, kind, n, seed):
        rho1, rho2 = pair_of_kind(kind, n, seed)
        mirrored = (q.DensityMatrix(rho.shape, rho.matrix.conj()) for rho in (rho1, rho2))
        assert q.decide(*mirrored).verdict == q.decide(rho1, rho2).verdict

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            q.decide(
                q.random_state(q.SystemShape((2, 2)), seed=16),
                q.random_state(q.SystemShape((2, 2, 2)), seed=17),
            )

    @pytest.mark.parametrize("rtol", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_rtol_must_be_finite_and_nonnegative(self, rtol):
        rho1, rho2 = on_orbit_pair((2, 2, 2), 21, 421)
        with pytest.raises(ValidationError, match="comparison tolerance"):
            q.decide(rho1, rho2, rtol=rtol)

    def test_rtol_zero_accepted(self):
        # Roundoff on an on-orbit pair stays within decide's roundoff budget.
        rho1, rho2 = on_orbit_pair((2, 2), 22, 422)
        assert q.decide(rho1, rho2, rtol=0.0).verdict == "equivalent"

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [23, 24, 25])
    def test_rtol_zero_never_separates_depolarized_on_orbit_pairs(self, n, seed):
        rho, sigma = pair_of_kind("on-orbit", n, seed)
        d = 2**n
        for k in range(14):
            p = 2.0**-k
            pair = (q.DensityMatrix(x.shape, (1.0 - p) * np.eye(d) / d + p * x.matrix) for x in (rho, sigma))
            assert q.decide(*pair, rtol=0.0).verdict != "distinct", p

    @pytest.mark.parametrize("n", [2, 3])
    def test_rtol_zero_resolves_epsilon_pairs(self, n):
        for seed in range(26, 31):
            assert q.decide(*epsilon_pair(n, seed, 1e-11), rtol=0.0).verdict == "distinct", seed

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [32, 33, 34])
    def test_mirror_image_distinct(self, n, seed):
        """A generic state and its complex conjugate lie on mirror-image orbits."""
        rho, mirror = pair_of_kind("mirror", n, seed)
        assert q.decide(rho, mirror).verdict == "distinct"

    def test_unsupported_shape(self):
        rho = q.random_state(q.SystemShape((2, 3)), seed=18)
        with pytest.raises(UnsupportedShape):
            q.decide(rho, rho)
        single = q.random_state(q.SystemShape((2,)), seed=19)
        with pytest.raises(UnsupportedShape):
            q.decide(single, single)


class TestCanonicalFirstOrder:
    """decide compares members 0-20 (n = 3), then the canonical points, and computes the pair and
    triple members only where those points do not settle the pair; its payloads stay decide_ref's."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ORDER_KINDS), st.sampled_from([2, 3]), st.integers(0, 10**6))
    def test_payload_is_the_family_first_payload(self, kind, n, seed):
        rho1, rho2 = pair_of_kind(kind, n, seed)
        assert repr(q.decide(rho1, rho2).payload()) == repr(decide_ref(rho1, rho2).payload())

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_epsilon_pair_reaches_the_rest_and_ends_canonical(self, seed):
        """Members 0-20 agree, the canonical points differ, and so do no pair or triple members."""
        rho1, rho2 = epsilon_pair(3, seed, 1e-7)
        verdict = q.decide(rho1, rho2)
        assert (verdict.verdict, verdict.witness.name) == ("distinct", "canonical")
        assert repr(verdict.payload()) == repr(decide_ref(rho1, rho2).payload())

    @pytest.mark.parametrize("seed", range(8))
    def test_rest_member_witness_is_kept(self, seed):
        rho1 = q.random_state(q.SystemShape((2, 2, 2)), seed=seed)
        rho2 = pair_block_perturbed(rho1, 1e-7)
        verdict = q.decide(rho1, rho2, rtol=0.0)
        assert verdict.verdict == "distinct"
        assert verdict.witness.name in NAMES3[21:]
        assert repr(verdict.payload()) == repr(decide_ref(rho1, rho2, rtol=0.0).payload())

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    @pytest.mark.parametrize("delta", [1e-9, 1e-8])
    def test_near_degenerate_gram_does_not_hide_a_rest_member(self, seed, delta):
        """At relgap 1e-7 the canonical budget's 1/relgap term spans about 1e-7 * nu even at rtol 0,
        so the pair_12 perturbation moves the canonical point well inside it; the members see it."""
        rho1 = near_degenerate_triple(seed, 1e-7)
        report = q.genericity(q.expand(rho1))
        assert report.generic and report.eigengaps[0] < 1e-6 * report.gram_traces[0]
        rho2 = pair_block_perturbed(rho1, delta)
        verdict = q.decide(rho1, rho2, rtol=0.0)
        assert verdict.verdict == "distinct"
        assert verdict.witness.name in NAMES3[21:]
        for rtol in (0.0, COMPARE_RTOL):
            assert repr(q.decide(rho1, rho2, rtol=rtol).payload()) == repr(decide_ref(rho1, rho2, rtol=rtol).payload())


class TestOracleSearch:
    def test_identity_start_on_equal_states(self):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=20)
        result = q.oracle_search(rho, rho, restarts=1, seed=0)
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_refused(self, restarts):
        rho = q.random_state(q.SystemShape((2, 2)), seed=20)
        with pytest.raises(q.ValidationError, match="at least one restart"):
            q.oracle_search(rho, rho, restarts=restarts)

    @pytest.mark.parametrize("restarts", [2.5, 1.0, "2", np.float64(1)])
    def test_non_integer_restarts_refused(self, restarts):
        rho = q.random_state(q.SystemShape((2, 2)), seed=20)
        with pytest.raises(q.ValidationError, match="must be an integer"):
            q.oracle_search(rho, rho, restarts=restarts)

    @pytest.mark.parametrize("stop_residual", [-1.0, -math.inf, math.nan, -5e-324])
    def test_negative_or_nan_stop_residual_refused(self, stop_residual):
        rho = q.random_state(q.SystemShape((2, 2)), seed=20)
        with pytest.raises(q.ValidationError, match="stop residual must be >= 0"):
            q.oracle_search(rho, rho, restarts=2, stop_residual=stop_residual)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None, np.float64(3)])
    def test_bad_seed_refused(self, seed):
        rho = q.random_state(q.SystemShape((2, 2)), seed=20)
        with pytest.raises(q.ValidationError, match="seed must be"):
            q.oracle_search(rho, rho, restarts=2, seed=seed)

    def test_numpy_integer_seed(self):
        rho1, rho2 = on_orbit_pair((2, 2), 22, 122)
        a = q.oracle_search(rho1, rho2, restarts=2, seed=np.int32(4))
        b = q.oracle_search(rho1, rho2, restarts=2, seed=4)
        assert a.residual == b.residual
        assert all(np.array_equal(x, y) for x, y in zip(a.unitary.factors, b.unitary.factors))

    def test_numpy_integer_restarts(self):
        rho = q.random_state(q.SystemShape((2, 2)), seed=20)
        result = q.oracle_search(rho, rho, restarts=np.int64(1))
        assert result.restarts_used == 1

    def test_on_orbit_pair_reaches_threshold(self):
        rho1, rho2 = on_orbit_pair((2, 2, 2), 21, 121)
        result = q.oracle_search(rho1, rho2, restarts=20, seed=1, stop_residual=5e-7)
        assert result.residual <= 1e-6
        # The minimizer is an actual local unitary mapping rho1 to rho2.
        moved = q.apply(result.unitary, rho1)
        assert np.max(np.abs(moved.matrix - rho2.matrix)) <= 1e-6

    def test_two_qubit_pair(self):
        rho1, rho2 = on_orbit_pair((2, 2), 22, 122)
        result = q.oracle_search(rho1, rho2, restarts=20, seed=2, stop_residual=5e-7)
        assert result.residual <= 1e-6

    def test_spectral_lower_bound_respected(self):
        shape = q.SystemShape((2, 2, 2))
        rho1 = q.random_state(shape, seed=23)
        rho2 = q.random_state(shape, seed=24)
        result = q.oracle_search(rho1, rho2, restarts=3, seed=3)
        assert result.spectral_lower_bound == pytest.approx(
            spectral_lower_bound(rho1, rho2)
        )
        assert result.residual >= result.spectral_lower_bound - 1e-12

    def test_agreement_with_decide(self):
        for i, (s1, s2, expect) in enumerate([
            (25, 125, True),
            (26, 126, True),
            (27, None, False),
            (28, None, False),
        ]):
            if expect:
                rho1, rho2 = on_orbit_pair((2, 2, 2), s1, s2)
            else:
                shape = q.SystemShape((2, 2, 2))
                rho1 = q.random_state(shape, seed=s1)
                rho2 = q.random_state(shape, seed=s1 + 600)
            verdict = q.decide(rho1, rho2).verdict
            restarts = 30 if expect else 4
            result = q.oracle_search(rho1, rho2, restarts=restarts, seed=i, stop_residual=5e-7)
            assert (verdict == "equivalent") == expect
            assert (result.residual <= 1e-6) == expect
