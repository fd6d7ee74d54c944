import itertools

import numpy as np
import pytest

import qorbit as q
from qorbit.bloch import PAULI, BlochTensor, bloch_from_payload, bloch_payload
from qorbit.errors import NotPositive, ParseError, ShapeMismatch, UnsupportedShape

from conftest import partial_trace


class TestExpand:
    def test_pure_zero_state(self):
        rho = q.validate(np.diag([1.0, 0.0]), q.SystemShape((2,)))
        t = q.expand(rho)
        assert np.allclose(t.alpha, [0, 0, 0.5], atol=1e-15)

    def test_maximally_mixed_three_qubits(self):
        t = q.expand(q.maximally_mixed(q.SystemShape((2, 2, 2))))
        assert t.max_abs() == pytest.approx(0.0, abs=1e-15)

    def test_bell_pair_matrix(self, bell):
        t = q.expand(bell)
        assert np.allclose(t.alpha, 0, atol=1e-15)
        assert np.allclose(t.beta, 0, atol=1e-15)
        assert np.allclose(t.pair_12, np.diag([0.25, -0.25, 0.25]), atol=1e-15)

    def test_bell_against_statevector_oracle(self, bell):
        # Independent oracle: coefficients as pure-state expectation values.
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        t = q.expand(bell)
        for i, j in itertools.product(range(3), repeat=2):
            word = np.kron(PAULI[i], PAULI[j])
            expected = (psi.conj() @ word @ psi).real / 4
            assert t.pair_12[i, j] == pytest.approx(expected, abs=1e-14)

    def test_ghz_triple_entries(self, ghz):
        t = q.expand(ghz)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 0.125
        expected[0, 1, 1] = expected[1, 0, 1] = expected[1, 1, 0] = -0.125
        assert np.allclose(t.triple, expected, atol=1e-14)
        assert np.allclose(t.pair_12, np.diag([0, 0, 0.125]), atol=1e-14)

    def test_rejects_qudits(self):
        with pytest.raises(UnsupportedShape):
            q.expand(q.maximally_mixed(q.SystemShape((2, 3))))

    def test_rejects_four_qubits(self):
        with pytest.raises(UnsupportedShape):
            q.expand(q.maximally_mixed(q.SystemShape((2, 2, 2, 2))))


class TestReconstruct:
    def test_zero_tensor_is_maximally_mixed(self):
        t = BlochTensor(n=2, alpha=np.zeros(3), beta=np.zeros(3), pair_12=np.zeros((3, 3)))
        rho = q.reconstruct(t)
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2)])
    def test_round_trip(self, dims):
        rho = q.random_state(q.SystemShape(dims), seed=17)
        again = q.reconstruct(q.expand(rho))
        assert np.max(np.abs(again.matrix - rho.matrix)) <= 1e-12

    def test_outside_bloch_ball_reports_margin(self):
        t = BlochTensor(n=1, alpha=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NotPositive) as excinfo:
            q.reconstruct(t)
        assert excinfo.value.margin == pytest.approx(-0.5, abs=1e-12)


class TestProperties:
    def test_linearity(self):
        shape = q.SystemShape((2, 2))
        rho1 = q.random_state(shape, seed=1)
        rho2 = q.random_state(shape, seed=2)
        for a in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = q.DensityMatrix(shape, a * rho1.matrix + (1 - a) * rho2.matrix)
            combined = a * q.expand(rho1).flatten() + (1 - a) * q.expand(rho2).flatten()
            assert np.max(np.abs(q.expand(mix).flatten() - combined)) <= 1e-12

    def test_partial_trace_consistency(self):
        dims = (2, 2, 2)
        rho = q.random_state(q.SystemShape(dims), seed=23)
        t = q.expand(rho)
        singles = {"alpha": (0,), "beta": (1,), "gamma": (2,)}
        for name, keep in singles.items():
            reduced = q.DensityMatrix(
                q.SystemShape((2,)), partial_trace(rho.matrix, dims, keep)
            )
            # Reduced coefficient is tr/2; the 3-qubit coefficient is tr/8.
            assert np.max(np.abs(getattr(t, name) - q.expand(reduced).alpha / 4)) <= 1e-12
        pairs = {"pair_12": (0, 1), "pair_13": (0, 2), "pair_23": (1, 2)}
        for name, keep in pairs.items():
            reduced = q.DensityMatrix(
                q.SystemShape((2, 2)), partial_trace(rho.matrix, dims, keep)
            )
            assert np.max(np.abs(getattr(t, name) - q.expand(reduced).pair_12 / 2)) <= 1e-12


class TestTensorType:
    def test_missing_component_rejected(self):
        with pytest.raises(ShapeMismatch):
            BlochTensor(n=2, alpha=np.zeros(3))

    def test_extra_component_rejected(self):
        with pytest.raises(ShapeMismatch):
            BlochTensor(n=1, alpha=np.zeros(3), beta=np.zeros(3))

    def test_flatten_round_trip(self):
        t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=5))
        flat = t.flatten()
        assert flat.shape == (63,)
        again = BlochTensor.from_flat(3, flat)
        assert np.array_equal(again.flatten(), flat)

    @pytest.mark.parametrize("n, length", [(1, 3), (2, 15), (3, 63)])
    def test_from_flat_every_size(self, n, length):
        t = q.expand(q.random_state(q.SystemShape((2,) * n), seed=6))
        flat = t.flatten()
        assert flat.shape == (length,)
        again = BlochTensor.from_flat(n, flat)
        for (name, a), (_, b) in zip(again.component_items(), t.component_items()):
            assert a.shape == b.shape and np.array_equal(a, b), name
        with pytest.raises(ShapeMismatch):
            BlochTensor.from_flat(n, np.zeros(length + 1))

    @pytest.mark.parametrize("n", [0, 4])
    def test_from_flat_unsupported_n(self, n):
        with pytest.raises(q.UnsupportedShape):
            BlochTensor.from_flat(n, np.zeros(3))


class TestBlochFiles:
    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2)])
    def test_round_trip(self, dims, tmp_path):
        t = q.expand(q.random_state(q.SystemShape(dims), seed=31))
        path = tmp_path / "tensor.json"
        q.write_bloch(t, path)
        again = q.read_bloch(path)
        assert np.array_equal(again.flatten(), t.flatten())

    def test_wrong_component_shape_is_parse_error(self):
        payload = bloch_payload(q.expand(q.random_state(q.SystemShape((2, 2)), seed=32)))
        payload["pair_12"] = payload["pair_12"][:2]
        with pytest.raises(ParseError, match="pair_12"):
            bloch_from_payload(payload)

    def test_boolean_n_is_parse_error(self):
        # A float n is refused like a boolean, also where it equals the payload's n.
        for dims, n in (((2,), True), ((2, 2), 2.0), ((2, 2, 2), 3.0)):
            payload = bloch_payload(q.expand(q.random_state(q.SystemShape(dims), seed=33)))
            payload["n"] = n
            with pytest.raises(ParseError, match="field 'n' must be 1, 2, or 3"):
                bloch_from_payload(payload)
