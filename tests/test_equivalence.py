import itertools

import numpy as np
import pytest

import qorbit as q
from qorbit.equivalence import spectral_lower_bound
from qorbit.errors import ShapeMismatch, UnsupportedShape, ValidationError


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
    return rho, q.random_state(shape, rank=1 + seed % d, seed=seed + 1)


PAIR_KINDS = ["on-orbit", "depolarized 0.3", "depolarized 0.01", "isospectral", "mirror", "random"]


class TestDecide:
    def test_identical_states(self):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=1)
        verdict = q.decide(rho, rho)
        assert verdict.verdict == "equivalent"

    def test_identical_non_generic_states(self):
        mm = q.maximally_mixed(q.SystemShape((2, 2)))
        assert q.decide(mm, mm).verdict == "equivalent"

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

    @pytest.mark.parametrize("seed", [14, 15])
    def test_symmetry(self, seed):
        rho1, rho2 = on_orbit_pair((2, 2, 2), seed, 400 + seed)
        assert q.decide(rho1, rho2).verdict == q.decide(rho2, rho1).verdict
        rho3 = q.random_state(q.SystemShape((2, 2, 2)), seed=500 + seed)
        assert q.decide(rho1, rho3).verdict == q.decide(rho3, rho1).verdict

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [30, 40, 50])
    def test_covariant_under_qubit_permutation(self, kind, n, seed):
        rho1, rho2 = pair_of_kind(kind, n, seed)
        verdict = q.decide(rho1, rho2).verdict
        for order in itertools.permutations(range(n)):
            moved = q.decide(permute_qubits(rho1, order), permute_qubits(rho2, order))
            assert moved.verdict == verdict, order

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
        # Roundoff on an on-orbit pair stays under the absolute comparison floor.
        rho1, rho2 = on_orbit_pair((2, 2), 22, 422)
        assert q.decide(rho1, rho2, rtol=0.0).verdict == "equivalent"

    def test_unsupported_shape(self):
        rho = q.random_state(q.SystemShape((2, 3)), seed=18)
        with pytest.raises(UnsupportedShape):
            q.decide(rho, rho)
        single = q.random_state(q.SystemShape((2,)), seed=19)
        with pytest.raises(UnsupportedShape):
            q.decide(single, single)


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
