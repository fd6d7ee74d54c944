import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit import states
from qorbit.errors import (
    BadRank,
    NotHermitian,
    NotPositive,
    ParseError,
    ShapeMismatch,
    TraceNotOne,
    ValidationError,
)
from qorbit.tolerances import EIGENVALUE_FLOOR, HERMITICITY_RTOL

QUBIT = q.SystemShape((2,))


class TestSystemShape:
    def test_totals(self):
        shape = q.SystemShape((2, 3, 2))
        assert shape.n == 3
        assert shape.total_dim == 12
        assert not shape.is_qubits

    def test_rejects_dims_below_two(self):
        with pytest.raises(ShapeMismatch):
            q.SystemShape((2, 1))

    @pytest.mark.parametrize("dims", [(2.7, 2), (2.0, 2), ("3",), (np.float64(2),), (None, 2), 3])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ShapeMismatch, match="must be integers"):
            q.SystemShape(dims)

    def test_numpy_integer_dims_become_ints(self):
        shape = q.SystemShape((np.int64(2), np.int32(3)))
        assert shape.dims == (2, 3) and all(type(d) is int for d in shape.dims)


class TestValidate:
    def test_maximally_mixed_qubit(self):
        state = q.validate(np.eye(2) / 2, QUBIT)
        assert np.allclose(state.matrix, np.eye(2) / 2)

    def test_pure_projector(self):
        state = q.validate(np.diag([1.0, 0.0]), QUBIT)
        assert state.purity() == pytest.approx(1.0, abs=1e-12)

    def test_not_positive_carries_margin(self):
        with pytest.raises(NotPositive) as excinfo:
            q.validate(np.diag([1.5, -0.5]), QUBIT)
        assert excinfo.value.margin == pytest.approx(-0.5, abs=1e-12)

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian) as excinfo:
            q.validate(m, QUBIT)
        assert excinfo.value.margin == pytest.approx(0.1, abs=1e-12)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne) as excinfo:
            q.validate(np.diag([0.5, 0.4]), QUBIT)
        assert excinfo.value.margin == pytest.approx(0.1, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            q.validate(np.eye(2) / 2, q.SystemShape((2, 2)))

    def test_repair_projects_roundoff(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-14  # within tolerance, but not exactly Hermitian
        state = q.validate(m, QUBIT, repair=True)
        assert np.array_equal(state.matrix, state.matrix.conj().T)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=0)

    def test_repair_still_rejects_bad_input(self):
        with pytest.raises(TraceNotOne):
            q.validate(np.diag([0.6, 0.6]), QUBIT, repair=True)

    def test_repair_rejects_misshapen_matrix(self):
        with pytest.raises(ShapeMismatch) as excinfo:
            q.validate(np.eye(3) / 3, QUBIT, repair=True)
        assert type(excinfo.value) is ShapeMismatch
        assert str(excinfo.value) == "matrix is (3, 3), shape (2) requires (2, 2)"

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, entry):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            q.DensityMatrix(QUBIT, m)


class TestGeneratorBasis:
    def test_qubit_basis_is_pauli(self):
        basis = q.generator_basis(2)
        pauli = np.array([
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ])
        assert np.array_equal(basis.generators, pauli)

    @pytest.mark.parametrize("d", [2.7, 2.0, "3", np.float64(3), None])
    def test_rejects_non_integer_d(self, d):
        with pytest.raises(ShapeMismatch, match="needs an integer d"):
            q.generator_basis(d)

    def test_numpy_integer_d_shares_the_cached_basis(self):
        assert q.generator_basis(np.int64(3)) is q.generator_basis(3)
        assert q.generator_basis(np.int32(2)) is q.generator_basis(2)

    def test_qubit_structure_constants(self):
        c = q.generator_basis(2).structure_constants
        eps = np.zeros((3, 3, 3))
        for i, j, k in itertools.permutations(range(3)):
            eps[i, j, k] = np.sign(np.linalg.det(np.eye(3)[[i, j, k]]))
        assert np.allclose(c, 2 * eps, atol=1e-14)

    def test_su3_constants_match_standard_table(self):
        # Nonzero f-constants of the standard eight-generator family; our
        # convention carries an overall factor of two.
        f = {
            (1, 2, 3): 1.0,
            (1, 4, 7): 0.5,
            (1, 5, 6): -0.5,
            (2, 4, 6): 0.5,
            (2, 5, 7): 0.5,
            (3, 4, 5): 0.5,
            (3, 6, 7): -0.5,
            (4, 5, 8): np.sqrt(3) / 2,
            (6, 7, 8): np.sqrt(3) / 2,
        }
        expected = np.zeros((8, 8, 8))
        for (i, j, k), value in f.items():
            for (a, b, c_), sign in [
                ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
            ]:
                expected[a - 1, b - 1, c_ - 1] = sign * value
        c = q.generator_basis(3).structure_constants
        assert np.allclose(c, 2 * expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_orthogonality(self, d):
        gen = q.generator_basis(d).generators
        overlaps = np.einsum("iab,jba->ij", gen, gen)
        assert np.max(np.abs(overlaps - 2 * np.eye(len(gen)))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_traceless(self, d):
        gen = q.generator_basis(d).generators
        assert np.max(np.abs(np.trace(gen, axis1=1, axis2=2))) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_commutators_reproduced(self, d):
        basis = q.generator_basis(d)
        gen, c = basis.generators, basis.structure_constants
        comm = np.einsum("iab,jbc->ijac", gen, gen) - np.einsum("jab,ibc->ijac", gen, gen)
        rebuilt = 1j * np.einsum("ijk,kab->ijab", c, gen)
        assert np.max(np.abs(comm - rebuilt)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_antisymmetry_exact(self, d):
        c = q.generator_basis(d).structure_constants
        assert np.array_equal(c, -np.swapaxes(c, 0, 1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_jacobi_identity(self, d):
        c = q.generator_basis(d).structure_constants
        total = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        assert np.max(np.abs(total)) <= 1e-10


class TestRandomState:
    def test_full_rank_three_qubits(self):
        rho = q.random_state(q.SystemShape((2, 2, 2)), rank=8, seed=7)
        assert np.all(rho.eigenvalues() > 0)

    def test_rank_one_is_pure(self):
        rho = q.random_state(q.SystemShape((2, 2)), rank=1, seed=3)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = q.random_state(q.SystemShape((2, 3)), seed=11)
        b = q.random_state(q.SystemShape((2, 3)), seed=11)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_spectrum_has_exactly_rank_eigenvalues(self, rank):
        rho = q.random_state(q.SystemShape((2, 2)), rank=rank, seed=20 + rank)
        assert int(np.sum(rho.eigenvalues() > 1e-10)) == rank

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            q.random_state(q.SystemShape((2, 2)), rank=5, seed=0)
        with pytest.raises(BadRank):
            q.random_state(q.SystemShape((2, 2)), rank=0, seed=0)

    @pytest.mark.parametrize("rank", [2.7, 2.0, "2", np.float64(2)])
    def test_non_integer_rank(self, rank):
        with pytest.raises(BadRank, match="must be an integer"):
            q.random_state(q.SystemShape((2, 2)), rank=rank, seed=0)

    def test_numpy_integer_rank(self):
        shape = q.SystemShape((2, 2))
        rho = q.random_state(shape, rank=np.int64(2), seed=0)
        assert np.array_equal(rho.matrix, q.random_state(shape, rank=2, seed=0).matrix)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None, np.float64(3)])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be"):
            q.random_state(q.SystemShape((2, 2)), seed=seed)

    def test_numpy_integer_seed(self):
        shape = q.SystemShape((2, 2))
        rho = q.random_state(shape, seed=np.int64(3))
        assert np.array_equal(rho.matrix, q.random_state(shape, seed=3).matrix)


class TestSpectrum:
    """Validation's eigendecomposition is the one ``eigenvalues`` returns."""

    @pytest.mark.parametrize("dims, rank", [((2, 2, 2), None), ((2, 3), 2), ((2,), 1),
                                            ((2, 3, 4), None), ((2,) * 5, None)])
    def test_spectrum_is_eigvalsh_of_matrix(self, dims, rank):
        rho = q.random_state(q.SystemShape(dims), rank=rank, seed=3)
        spectrum = rho.eigenvalues()
        assert np.array_equal(spectrum, np.linalg.eigvalsh(rho.matrix))
        assert spectrum is rho.eigenvalues()
        assert not spectrum.flags.writeable

    @pytest.mark.parametrize("dims, eager", [((2, 2, 2), True), ((2,) * 4, False)])
    def test_spectrum_eager_only_up_to_d8(self, dims, eager):
        rho = q.random_state(q.SystemShape(dims), seed=5)
        assert (rho._spectrum is not None) == eager
        assert rho.eigenvalues() is rho._spectrum

    def test_spectrum_outside_repr_and_equality(self):
        rho = q.maximally_mixed(QUBIT)
        assert "spectrum" not in repr(rho)
        assert "_spectrum" not in {f.name for f in dataclasses.fields(rho) if f.compare}


class TestStateFiles:
    def test_round_trip_exact(self, tmp_path):
        rho = q.random_state(q.SystemShape((2, 2)), seed=4)
        path = tmp_path / "state.json"
        q.write_state(rho, path, label="pair")
        again = q.read_state(path)
        assert np.array_equal(again.matrix, rho.matrix)
        assert again.shape == rho.shape

    def test_maximally_mixed_round_trip(self, tmp_path):
        rho = q.maximally_mixed(q.SystemShape((2, 2)))
        path = tmp_path / "mm.json"
        q.write_state(rho, path)
        assert np.array_equal(q.read_state(path).matrix, rho.matrix)

    def test_trace_violation_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.4, 0]]]}'
        )
        with pytest.raises(TraceNotOne):
            q.read_state(path)

    def test_qudit_state_file(self, tmp_path):
        rho = q.random_state(q.SystemShape((2, 3)), seed=9)
        path = tmp_path / "qudit.json"
        q.write_state(rho, path)
        assert q.read_state(path).shape.dims == (2, 3)

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ParseError):
            q.read_state(path)

    def test_parse_error_names_field(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text('{"matrix": [[[1, 0]]]}')
        with pytest.raises(ParseError, match="dims"):
            q.read_state(path)

    @pytest.mark.parametrize("dims", ["[true]", "[2, false]"])
    def test_boolean_dims_are_parse_errors(self, tmp_path, dims):
        path = tmp_path / "bool-dims.json"
        path.write_text('{"dims": %s, "matrix": [[[1, 0]]]}' % dims)
        with pytest.raises(ParseError, match="field 'dims' must be an array of integers"):
            q.read_state(path)


POSITIVITY_SHAPES = {4: (2, 2), 8: (2, 2, 2), 16: (2,) * 4, 24: (2, 3, 4), 64: (4, 4, 4)}


def state_with_lowest(d, lowest, zeros, seed):
    """U diag(lam) U^H with `zeros` eigenvalues 0, then `lowest`, the rest positive; trace 1."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rest = rng.uniform(0.1, 1.0, d - zeros - 1)
    lam = np.concatenate([np.zeros(zeros), [lowest], rest * (1.0 - lowest) / rest.sum()])
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


class TestPositivityRoute:
    """Above D = 8 a Cholesky proves positivity; the accept/refuse boundary is eigvalsh's."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from(sorted(POSITIVITY_SHAPES)),
           lowest=st.one_of(
               st.builds(lambda k, sign: EIGENVALUE_FLOOR * (1 + sign * 10.0 ** -k),
                         st.integers(1, 8), st.sampled_from((-1, 1))),
               st.just(EIGENVALUE_FLOOR / 2),
               st.just(0.0)),
           zero_share=st.sampled_from((0.0, 0.25, 0.5, 0.9)),
           seed=st.integers(0, 2**31 - 1))
    def test_accepts_exactly_when_eigvalsh_does(self, d, lowest, zero_share, seed):
        m = state_with_lowest(d, lowest, int(zero_share * (d - 1)), seed)
        shape = q.SystemShape(POSITIVITY_SHAPES[d])
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig >= EIGENVALUE_FLOOR:
            rho = q.DensityMatrix(shape, m)
            assert np.array_equal(rho.eigenvalues(), np.linalg.eigvalsh(m))
        else:
            with pytest.raises(NotPositive) as info:
                q.DensityMatrix(shape, m)
            assert info.value.margin == min_eig
            assert str(info.value) == f"smallest eigenvalue {min_eig:.3e} below {EIGENVALUE_FLOOR:.0e}"


class TestHermiticityBlocks:
    """Above one block the Hermiticity check takes row blocks of the upper triangle;
    its deviation is the full max |m - m^dag| bit for bit."""

    @staticmethod
    def perturbed(d, fraction, seed):
        """A random state plus an anti-Hermitian term, zero on the diagonal, scaled to
        fraction * HERMITICITY_RTOL * max|m| at its largest entry."""
        rng = np.random.default_rng(seed)
        m = q.random_state(q.SystemShape((d,)), seed=seed).matrix
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = g - g.conj().T
        np.fill_diagonal(a, 0.0)
        return m + a * (fraction * HERMITICITY_RTOL * np.abs(m).max() / np.abs(a).max())

    @pytest.mark.parametrize("d", [4, 8, 63, 64, 65, 100, 128, 130, 256])
    @pytest.mark.parametrize("fraction", [0.3, 0.9, 1.1, 3.0])
    def test_same_deviation_and_outcome_as_the_full_difference(self, d, fraction):
        assert states._HERMITICITY_BLOCK == 64  # d runs across one block
        for seed in range(3):
            m = self.perturbed(d, fraction, seed)
            herm_dev = float(np.abs(m - m.conj().T).max())
            if herm_dev <= HERMITICITY_RTOL * float(np.abs(m).max()):
                q.DensityMatrix(q.SystemShape((d,)), m)
                continue
            with pytest.raises(NotHermitian) as info:
                q.DensityMatrix(q.SystemShape((d,)), m)
            assert info.value.margin == herm_dev

    @pytest.mark.parametrize("d", [63, 65, 100, 130, 256])
    def test_refusal_at_zero_tolerance_reports_the_full_difference(self, d, monkeypatch):
        # Every perturbed state is refused, so the margin shows each deviation computed.
        matrices = [self.perturbed(d, 0.01 * (seed + 1), seed) for seed in range(6)]
        for m in matrices[3:]:
            # the largest deviation at a lower-triangle entry, read only through its mirror
            m[d - 1, 0] += 1j * HERMITICITY_RTOL * np.abs(m).max()
        monkeypatch.setattr(states, "HERMITICITY_RTOL", 0.0)
        for m in matrices:
            with pytest.raises(NotHermitian) as info:
                q.DensityMatrix(q.SystemShape((d,)), m)
            assert info.value.margin == float(np.abs(m - m.conj().T).max())
