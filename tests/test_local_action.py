import numpy as np
import pytest

import qorbit as q
from qorbit.bloch import PAULI
from qorbit.errors import (
    NotSpecialOrthogonal,
    NotSpecialUnitary,
    ShapeMismatch,
)


def haar_rotations(shape, seed):
    u = q.haar_local(shape, seed=seed)
    return u, q.RotationTriple(tuple(q.adjoint_rotation(f) for f in u.factors))


class TestApply:
    def test_identity_factors(self):
        shape = q.SystemShape((2, 2))
        rho = q.random_state(shape, seed=1)
        u = q.LocalUnitary(shape, (np.eye(2), np.eye(2)))
        assert np.max(np.abs(q.apply(u, rho).matrix - rho.matrix)) <= 1e-15

    def test_global_phase_factor_is_inert(self):
        shape = q.SystemShape((2,))
        rho = q.random_state(shape, seed=2)
        u = q.LocalUnitary(shape, (np.exp(0.7j) * np.eye(2),))
        assert np.max(np.abs(q.apply(u, rho).matrix - rho.matrix)) <= 1e-15

    def test_spectrum_preserved(self):
        shape = q.SystemShape((2, 2, 2))
        rho = q.random_state(shape, seed=3)
        u = q.haar_local(shape, seed=4)
        out = q.apply(u, rho)
        assert np.max(np.abs(out.eigenvalues() - rho.eigenvalues())) <= 1e-12

    def test_shape_mismatch(self):
        rho = q.random_state(q.SystemShape((2, 2)), seed=5)
        u = q.haar_local(q.SystemShape((2, 2, 2)), seed=5)
        with pytest.raises(ShapeMismatch):
            q.apply(u, rho)


class TestHaarLocal:
    def test_factors_unitary(self):
        u = q.haar_local(q.SystemShape((2, 3, 4)), seed=6)
        for factor in u.factors:
            d = factor.shape[0]
            assert np.max(np.abs(factor @ factor.conj().T - np.eye(d))) <= 1e-12

    def test_qubit_factors_special(self):
        u = q.haar_local(q.SystemShape((2, 2, 2)), seed=7)
        for factor in u.factors:
            assert abs(np.linalg.det(factor) - 1.0) <= 1e-12

    def test_deterministic_per_seed(self):
        a = q.haar_local(q.SystemShape((2, 2)), seed=8)
        b = q.haar_local(q.SystemShape((2, 2)), seed=8)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)

    def test_seeds_differ(self):
        a = q.haar_local(q.SystemShape((2,)), seed=9)
        b = q.haar_local(q.SystemShape((2,)), seed=10)
        assert np.max(np.abs(a.factors[0] - b.factors[0])) > 1e-3

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None, np.float64(3)])
    def test_bad_seed(self, seed):
        with pytest.raises(q.ValidationError, match="seed must be"):
            q.haar_local(q.SystemShape((2, 2)), seed=seed)

    def test_numpy_integer_seed(self):
        a = q.haar_local(q.SystemShape((2, 2)), seed=np.uint8(8))
        b = q.haar_local(q.SystemShape((2, 2)), seed=8)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)


class TestAdjointRotation:
    def test_identity(self):
        assert np.allclose(q.adjoint_rotation(np.eye(2)), np.eye(3), atol=1e-15)

    def test_pi_rotation_about_first_axis(self):
        u = -1j * PAULI[0]
        assert np.allclose(q.adjoint_rotation(u), np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_special_orthogonal_output(self):
        u = q.haar_local(q.SystemShape((2,)), seed=11).factors[0]
        o = q.adjoint_rotation(u)
        assert np.max(np.abs(o.T @ o - np.eye(3))) <= 1e-12
        assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)

    def test_rotates_bloch_vector(self):
        rho = q.random_state(q.SystemShape((2,)), seed=12)
        u = q.haar_local(q.SystemShape((2,)), seed=13).factors[0]
        o = q.adjoint_rotation(u)
        rotated = q.expand(q.apply(q.LocalUnitary(q.SystemShape((2,)), (u,)), rho))
        assert np.max(np.abs(rotated.alpha - o @ q.expand(rho).alpha)) <= 1e-12

    def test_homomorphism(self):
        u1 = q.haar_local(q.SystemShape((2,)), seed=14).factors[0]
        u2 = q.haar_local(q.SystemShape((2,)), seed=15).factors[0]
        left = q.adjoint_rotation(u1 @ u2)
        right = q.adjoint_rotation(u1) @ q.adjoint_rotation(u2)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_double_cover(self):
        u = q.haar_local(q.SystemShape((2,)), seed=16).factors[0]
        assert np.array_equal(q.adjoint_rotation(u), q.adjoint_rotation(-u))

    def test_rejects_non_special(self):
        with pytest.raises(NotSpecialUnitary):
            q.adjoint_rotation(1j * np.eye(2))


class TestLiftRotation:
    def test_identity(self):
        assert np.allclose(q.lift_rotation(np.eye(3)), np.eye(2), atol=1e-15)

    def test_pi_rotation_lift(self):
        u = q.lift_rotation(np.diag([1.0, -1.0, -1.0]))
        assert np.allclose(u, -1j * PAULI[0], atol=1e-14)

    @pytest.mark.parametrize("seed", [17, 18, 19, 20])
    def test_round_trip_through_adjoint(self, seed):
        u = q.haar_local(q.SystemShape((2,)), seed=seed).factors[0]
        o = q.adjoint_rotation(u)
        lifted = q.lift_rotation(o)
        assert np.max(np.abs(q.adjoint_rotation(lifted) - o)) <= 1e-10
        # Either preimage of the double cover is acceptable.
        delta = min(np.max(np.abs(lifted - u)), np.max(np.abs(lifted + u)))
        assert delta <= 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotSpecialOrthogonal):
            q.lift_rotation(np.diag([1.0, 1.0, 2.0]))
        with pytest.raises(NotSpecialOrthogonal):
            q.lift_rotation(np.diag([1.0, 1.0, -1.0]))


class TestTransformBloch:
    def test_identity_rotations(self):
        t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=21))
        out = q.transform_bloch(t, q.RotationTriple.identity(3))
        assert np.max(np.abs(out.flatten() - t.flatten())) == 0.0

    def test_single_qubit_sign_flip(self):
        t = q.expand(q.random_state(q.SystemShape((2,)), seed=22))
        out = q.transform_bloch(t, q.RotationTriple((np.diag([1.0, -1.0, -1.0]),)))
        expected = t.alpha * np.array([1.0, -1.0, -1.0])
        assert np.max(np.abs(out.alpha - expected)) == 0.0

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2)])
    def test_commuting_square(self, dims):
        shape = q.SystemShape(dims)
        rho = q.random_state(shape, seed=23)
        u, rotations = haar_rotations(shape, seed=24)
        via_matrix = q.expand(q.apply(u, rho))
        via_tensor = q.transform_bloch(q.expand(rho), rotations)
        assert np.max(np.abs(via_matrix.flatten() - via_tensor.flatten())) <= 1e-10

    def test_lifted_rotations_agree(self):
        # The reverse square: push rotations through their SU(2) lifts.
        shape = q.SystemShape((2, 2, 2))
        rho = q.random_state(shape, seed=25)
        _, rotations = haar_rotations(shape, seed=26)
        lifted = q.lift_rotations(rotations)
        via_matrix = q.expand(q.apply(lifted, rho))
        via_tensor = q.transform_bloch(q.expand(rho), rotations)
        assert np.max(np.abs(via_matrix.flatten() - via_tensor.flatten())) <= 1e-10

    def test_rotation_count_must_match(self):
        t = q.expand(q.random_state(q.SystemShape((2, 2)), seed=27))
        with pytest.raises(ShapeMismatch):
            q.transform_bloch(t, q.RotationTriple.identity(3))


def nan_at(matrix, where):
    """matrix with NaN at the index `where` (every entry for None)."""
    out = np.array(matrix, dtype=float)
    out[... if where is None else where] = np.nan
    return out


@pytest.mark.parametrize("where", [None, (0, 1)], ids=["all", "one"])
@pytest.mark.parametrize("check, error", [
    (lambda where: q.LocalUnitary(q.SystemShape((2,)), (nan_at(np.eye(2), where),)), NotSpecialUnitary),
    (lambda where: q.RotationTriple((nan_at(np.eye(3), where),)), NotSpecialOrthogonal),
    (lambda where: q.adjoint_rotation(nan_at(np.eye(2), where)), NotSpecialUnitary),
    (lambda where: q.lift_rotation(nan_at(np.eye(3), where)), NotSpecialOrthogonal),
], ids=["LocalUnitary", "RotationTriple", "adjoint_rotation", "lift_rotation"])
def test_nan_deviation_is_refused(check, error, where):
    with pytest.raises(error, match="nan"):
        check(where)
