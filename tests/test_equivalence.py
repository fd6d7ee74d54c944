import numpy as np
import pytest

import qorbit as q
from qorbit.equivalence import spectral_lower_bound
from qorbit.errors import ShapeMismatch, UnsupportedShape


def on_orbit_pair(dims, state_seed, unitary_seed):
    shape = q.SystemShape(dims)
    rho = q.random_state(shape, seed=state_seed)
    return rho, q.apply(q.haar_local(shape, seed=unitary_seed), rho)


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

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            q.decide(
                q.random_state(q.SystemShape((2, 2)), seed=16),
                q.random_state(q.SystemShape((2, 2, 2)), seed=17),
            )

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
