import numpy as np
import pytest

import qorbit as q
from qorbit.errors import (
    ConstraintViolation,
    DegenerateSpectrum,
    InconsistentTraces,
    NegativeSquare,
    NumericalError,
    ShapeMismatch,
    SingularSystem,
    ValidationError,
    ZeroSignInvariant,
)
from qorbit import reconstruction
from qorbit.reconstruction import reconstruct_canonical


def canonical_and_invariants(seed):
    rho = q.random_state(q.SystemShape((2, 2, 2)), seed=seed)
    point = q.canonicalize3(q.expand(rho))
    return rho, point, q.invariants3(point.tensor)


class TestSpectraFromTraces:
    def test_zero_traces(self):
        assert np.allclose(q.spectra_from_traces((0.0, 0.0, 0.0)), np.zeros(3))

    def test_known_diagonal(self):
        roots = q.spectra_from_traces((6.0, 14.0, 36.0))
        assert np.allclose(roots, [3.0, 2.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_direct_eigenvalues(self, seed):
        t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=seed))
        g = q.gram(t)
        x = g.mats[0]
        traces = (np.trace(x), np.trace(x @ x), np.trace(x @ x @ x))
        assert np.max(np.abs(q.spectra_from_traces(traces) - g.spectra[0])) <= 1e-9 * max(
            1.0, np.max(g.spectra[0])
        )

    def test_inconsistent_traces_rejected(self):
        # tr^2 <= 3 tr(M^2) fails for (3, 1, 1): no real spectrum exists.
        with pytest.raises(InconsistentTraces):
            q.spectra_from_traces((3.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_trace_rejected(self, bad):
        with pytest.raises(ValidationError, match="traces has a non-finite entry"):
            q.spectra_from_traces((bad, 1.0, 1.0))

    def test_wrong_length_is_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="must have 3 entries"):
            q.spectra_from_traces((6.0, 14.0))

    # The traces of the spectrum (3, 2, 1) * factor. Scaling divides by the cube of the
    # trace scale, which overflows above about 5.6e102 and underflows to 0 below about 1e-108.
    @pytest.mark.parametrize("factor", [1e102, 1e-110, 1e-200])
    def test_traces_beyond_float_range_are_numerical_errors(self, factor):
        traces = tuple(sum((k * factor) ** r for k in (3.0, 2.0, 1.0)) for r in (1, 2, 3))
        with pytest.raises(NumericalError, match="over- or underflow when scaled"):
            q.spectra_from_traces(traces)


class TestVectorFromQuadratics:
    def test_zero_quadratics_flag_non_generic(self):
        with pytest.raises(ZeroSignInvariant):
            q.vector_from_quadratics((0.0, 0.0, 0.0), 0.0, (3.0, 2.0, 1.0))

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            q.vector_from_quadratics((1.0, 1.0, 1.0), 1.0, (2.0, 2.0, 1.0))

    def test_negative_square_rejected(self):
        lam = np.vstack([np.ones(3), [3.0, 2.0, 1.0], [9.0, 4.0, 1.0]])
        quads = lam @ np.array([1.0, -1.0, 1.0])
        with pytest.raises(NegativeSquare):
            q.vector_from_quadratics(quads, 1.0, (3.0, 2.0, 1.0))

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("name", ["quads", "spectrum"])
    def test_wrong_length_is_shape_mismatch(self, name, size):
        args = {"quads": [1.0, 1.0, 1.0], "spectrum": [3.0, 2.0, 1.0]}
        args[name] = list(range(size, 0, -1))
        with pytest.raises(ShapeMismatch, match="must have 3 entries"):
            q.vector_from_quadratics(args["quads"], 1.0, args["spectrum"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["quads", "spectrum", "sign"])
    def test_non_finite_input_rejected(self, name, bad):
        args = {"quads": [0.38, 0.7, 1.42], "spectrum": [3.0, 2.0, 1.0], "sign": 0.012}
        args[name] = bad if name == "sign" else [1.0, bad, 1.0]
        with pytest.raises(ValidationError, match="not finite|non-finite entry"):
            q.vector_from_quadratics(args["quads"], args["sign"], args["spectrum"])

    # A sum that is not positive would be floored at 1e-300 when the nodes are
    # scaled, so they would overflow (a warning, an error here) into NaN squares.
    @pytest.mark.parametrize("spectrum", [(1.0, 0.0, -1.0), (3.0, 2.0, -5.0), (0.0, 0.0, 0.0), (1.0, -2.0, -3.0)])
    def test_spectrum_without_positive_sum_rejected(self, spectrum):
        with pytest.raises(ValidationError, match="spectrum sum .* is not positive") as info:
            q.vector_from_quadratics((1.0, 2.0, 3.0), 0.5, spectrum)
        assert info.value.margin == sum(spectrum)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_round_trip_recovers_canonical_vector(self, seed):
        _, point, inv = canonical_and_invariants(seed)
        spectrum = q.gram(point.tensor).spectra[0]
        vec = q.vector_from_quadratics(
            inv.quad_family(0), float(inv.sign_family()[0]), spectrum
        )
        assert np.max(np.abs(vec - point.tensor.alpha)) <= 1e-6


class TestPairFromMixed:
    def test_zero_block_gives_zero_matrix(self):
        spectrum = np.array([3.0, 2.0, 1.0])
        vector = np.array([0.5, 0.4, 0.3])
        out = q.pair_from_mixed(np.zeros((3, 3)), spectrum, vector, spectrum, vector)
        assert np.max(np.abs(out)) == 0.0

    def test_singular_when_sign_invariant_vanishes(self):
        spectrum = np.array([3.0, 2.0, 1.0])
        with pytest.raises(SingularSystem):
            q.pair_from_mixed(
                np.eye(3), spectrum, np.array([0.5, 0.0, 0.3]), spectrum, np.array([1.0, 1.0, 1.0])
            )

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("position", range(4))
    def test_wrong_length_is_shape_mismatch(self, position, size):
        # row spectrum, row vector, column spectrum, column vector
        args = [np.array([3.0, 2.0, 1.0]), np.array([0.5, 0.4, 0.3])] * 2
        args[position] = np.arange(size, 0.0, -1.0)
        with pytest.raises(ShapeMismatch, match="must have 3 entries"):
            q.pair_from_mixed(np.eye(3), *args)

    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_factor_input_rejected(self, position):
        args = [np.array([3.0, 2.0, 1.0]), np.array([0.5, 0.4, 0.3])] * 2
        args[position] = np.array([3.0, np.nan, 1.0])
        with pytest.raises(ValidationError, match="non-finite entry"):
            q.pair_from_mixed(np.eye(3), *args)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_round_trip(self, seed):
        _, point, inv = canonical_and_invariants(seed)
        g = q.gram(point.tensor)
        out = q.pair_from_mixed(
            inv.pair_family("12"),
            g.spectra[0], point.tensor.alpha,
            g.spectra[1], point.tensor.beta,
        )
        assert np.max(np.abs(out - point.tensor.pair_12)) <= 1e-6


class TestTripleFromMixed:
    @pytest.mark.parametrize("seed", [9, 10])
    def test_round_trip(self, seed):
        _, point, inv = canonical_and_invariants(seed)
        g = q.gram(point.tensor)
        out = q.triple_from_mixed(
            inv.triple_family(),
            g.spectra,
            (point.tensor.alpha, point.tensor.beta, point.tensor.gamma),
        )
        assert np.max(np.abs(out - point.tensor.triple)) <= 1e-5

    def test_perturbed_invariants_violate_diagonality(self):
        _, point, inv = canonical_and_invariants(11)
        g = q.gram(point.tensor)
        block = inv.triple_family().copy()
        block[1, 2, 0] *= 1.1  # ten percent distortion of one member
        with pytest.raises(ConstraintViolation):
            q.triple_from_mixed(
                block, g.spectra, (point.tensor.alpha, point.tensor.beta, point.tensor.gamma)
            )


class TestVandermondeSystem:
    def test_determinant_formula_matches_direct(self):
        _, point, _ = canonical_and_invariants(12)
        g = q.gram(point.tensor)
        system = q.VandermondeSystem(
            spectra=g.spectra,
            vectors=(point.tensor.alpha, point.tensor.beta, point.tensor.gamma),
        )
        system.verify_determinants()

    def test_factor_determinants_equal_sign_invariants(self):
        _, point, inv = canonical_and_invariants(13)
        g = q.gram(point.tensor)
        system = q.VandermondeSystem(
            spectra=g.spectra,
            vectors=(point.tensor.alpha, point.tensor.beta, point.tensor.gamma),
        )
        system.verify_signs(inv.sign_family())

    def test_mismatched_signs_raise(self):
        _, point, inv = canonical_and_invariants(14)
        g = q.gram(point.tensor)
        system = q.VandermondeSystem(
            spectra=g.spectra,
            vectors=(point.tensor.alpha, point.tensor.beta, point.tensor.gamma),
        )
        wrong = inv.sign_family() * 1.01
        with pytest.raises(ConstraintViolation):
            system.verify_signs(wrong)


class TestReconstructCanonical:
    @pytest.mark.parametrize("seed", [15, 16, 17, 18])
    def test_round_trip(self, seed):
        _, point, inv = canonical_and_invariants(seed)
        rebuilt = reconstruct_canonical(inv)
        assert np.max(np.abs(rebuilt.tensor.flatten() - point.tensor.flatten())) <= 1e-5
        for mat in rebuilt.gauge.mats:
            assert np.array_equal(mat, np.eye(3))

    def test_spectrum_preserved_through_reconstruction(self):
        rho, point, inv = canonical_and_invariants(19)
        rebuilt = reconstruct_canonical(inv)
        again = q.reconstruct(rebuilt.tensor)
        assert np.max(np.abs(np.sort(again.eigenvalues()) - np.sort(rho.eigenvalues()))) <= 1e-6

    def test_invariance_of_reconstruction(self):
        rho, _, inv = canonical_and_invariants(20)
        shape = rho.shape
        moved = q.apply(q.haar_local(shape, seed=99), rho)
        inv_moved = q.invariants3(q.canonicalize3(q.expand(moved)).tensor)
        a = reconstruct_canonical(inv).tensor.flatten()
        b = reconstruct_canonical(inv_moved).tensor.flatten()
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_maximally_mixed_rejected(self):
        inv = q.invariants3(q.expand(q.maximally_mixed(q.SystemShape((2, 2, 2)))))
        with pytest.raises(ZeroSignInvariant):
            reconstruct_canonical(inv)

    def test_invariants_of_uncanonicalized_tensor_still_reconstruct(self):
        # Invariants are gauge independent, so feeding the raw (not yet
        # canonicalized) state's invariants must give the same point.
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=21)
        t = q.expand(rho)
        rebuilt = reconstruct_canonical(q.invariants3(t))
        point = q.canonicalize3(t)
        assert np.max(np.abs(rebuilt.tensor.flatten() - point.tensor.flatten())) <= 1e-5

    def test_one_vandermonde_stack(self, monkeypatch):
        # The vectors, the determinant checks and the inverse factors share one stack of the three sites' matrices.
        _, point, inv = canonical_and_invariants(22)
        built = []
        vander_scaled = reconstruction._vander_scaled
        monkeypatch.setattr(reconstruction, "_vander_scaled", lambda sp: built.append(sp) or vander_scaled(sp))
        rebuilt = reconstruct_canonical(inv)
        assert [sp.shape for sp in built] == [(3, 3)]
        assert np.max(np.abs(rebuilt.tensor.flatten() - point.tensor.flatten())) <= 1e-5
