import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit import orbit_dim
from qorbit.states import HERMITICITY_RTOL, generator_basis

from conftest import product_state


def kron_frame(rho):
    """Reference frame from dense embedded generators 1 x T x 1 at D x D."""
    dims = rho.shape.dims
    m = rho.matrix
    rows = []
    for site, d in enumerate(dims):
        eye_b = np.eye(math.prod(dims[:site]), dtype=complex)
        eye_a = np.eye(math.prod(dims[site + 1:]), dtype=complex)
        for t in generator_basis(d).generators:
            h = np.kron(np.kron(eye_b, t), eye_a)
            delta = 1j * (h @ m - m @ h)
            rows.append(np.concatenate([delta.real.ravel(), delta.imag.ravel()]))
    return np.array(rows)


def reference_dimension(rho):
    s = np.linalg.svd(kron_frame(rho), compute_uv=False)
    return int(np.sum(s > orbit_dim.RANK_RTOL * s[0])) if s[0] > 0 else 0


def unfolded_singular_values(vectors):
    """Reference ranking: blocked QR on all 2 D^2 frame columns, no fold."""
    k = vectors.shape[0]
    block = orbit_dim._QR_BLOCK
    r = np.empty((0, k))
    for start in range(0, vectors.shape[1], block):
        r = np.linalg.qr(np.vstack([r, vectors[:, start:start + block].T]), mode="r")
    return np.linalg.svd(r, compute_uv=False)


def assert_fold_matches_unfolded(rho, rtol=1e-13):
    expected = unfolded_singular_values(q.tangent_frame(rho).vectors)
    smax = expected[0]
    result = q.orbit_dimension(rho)
    assert result.singular_values.shape == expected.shape
    assert np.max(np.abs(result.singular_values - expected)) <= rtol * smax
    assert result.dimension == (int(np.sum(expected > orbit_dim.RANK_RTOL * smax)) if smax > 0 else 0)
    return result


def depolarized(rho, p):
    d = rho.shape.total_dim
    return q.DensityMatrix(rho.shape, (1 - p) * np.eye(d) / d + p * rho.matrix)


def off_hermitian(rho, fraction, seed):
    """rho plus an anti-Hermitian term making max|m - m^dag| = fraction * tol * max|m|."""
    rng = np.random.default_rng(seed)
    d = rho.shape.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (g - g.conj().T) / 2
    m = rho.matrix + a * (fraction * HERMITICITY_RTOL * np.abs(rho.matrix).max()
                          / np.abs(2 * a).max())
    return q.DensityMatrix(rho.shape, m)


class TestTangentFrame:
    def test_maximally_mixed_frame_vanishes(self):
        frame = q.tangent_frame(q.maximally_mixed(q.SystemShape((2, 3))))
        assert frame.vectors.shape == (11, 2 * 36)
        assert np.max(np.abs(frame.vectors)) <= 1e-15

    def test_vector_count_site_major(self):
        frame = q.tangent_frame(q.random_state(q.SystemShape((3, 2)), seed=1))
        assert frame.vectors.shape[0] == 8 + 3

    def test_vectors_encode_hermitian_traceless_matrices(self):
        rho = q.random_state(q.SystemShape((2, 2)), seed=12)
        frame = q.tangent_frame(rho)
        d = rho.shape.total_dim
        for row in frame.vectors:
            m = row[:d * d].reshape(d, d) + 1j * row[d * d:].reshape(d, d)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert abs(np.trace(m)) <= 1e-12

    def test_single_qubit_relation(self):
        rho = q.random_state(q.SystemShape((2,)), seed=2)
        alpha = q.expand(rho).alpha
        frame = q.tangent_frame(rho)
        combo = alpha @ frame.vectors
        assert np.max(np.abs(combo)) <= 1e-12 * np.max(np.abs(frame.vectors))

    def test_kernel_spanned_by_bloch_vector(self):
        rho = q.random_state(q.SystemShape((2,)), seed=3)
        alpha = q.expand(rho).alpha
        u, _, _ = np.linalg.svd(q.tangent_frame(rho).vectors)
        kernel = u[:, -1]  # left-singular vector of the vanishing direction
        cosine = abs(np.dot(kernel, alpha)) / (np.linalg.norm(kernel) * np.linalg.norm(alpha))
        assert cosine >= 1 - 1e-9


class TestOrbitDimension:
    def test_generic_single_qubit(self):
        rho = q.random_state(q.SystemShape((2,)), seed=4)
        assert q.orbit_dimension(rho).dimension == 2

    def test_generic_two_qubits(self):
        rho = q.random_state(q.SystemShape((2, 2)), seed=5)
        result = q.orbit_dimension(rho)
        assert result.dimension == 6
        assert result.singular_values.shape == (6,)

    def test_generic_three_qubits(self):
        assert q.orbit_dimension(q.random_state(q.SystemShape((2, 2, 2)), seed=6)).dimension == 9

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2)])
    def test_maximally_mixed_is_a_fixed_point(self, dims):
        assert q.orbit_dimension(q.maximally_mixed(q.SystemShape(dims))).dimension == 0

    def test_invariant_under_local_unitaries(self):
        shape = q.SystemShape((2, 3))
        rho = q.random_state(shape, seed=7)
        u = q.haar_local(shape, seed=8)
        assert q.orbit_dimension(q.apply(u, rho)).dimension == q.orbit_dimension(rho).dimension

    def test_single_large_site(self):
        # d = 40: a 41 MB frame; the su(40) structure constants alone would need 61 GiB
        rho = q.random_state(q.SystemShape((40,)), seed=11)
        assert q.orbit_dimension(rho).dimension == 40 * 40 - 40

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_rank_gap_supports_threshold(self, dims):
        result = q.orbit_dimension(q.random_state(q.SystemShape(dims), seed=9))
        retained = result.singular_values[result.dimension - 1]
        assert retained / result.singular_values[0] >= 1e-6


class TestCounts:
    @pytest.mark.parametrize(
        "dims,expected",
        [((2, 2), 9), ((2, 2, 2), 54), ((3, 3), 64), ((2, 3), 24), ((2, 2, 2, 2), 243)],
    )
    def test_formula(self, dims, expected):
        assert q.invariant_count_formula(q.SystemShape(dims)) == expected

    @pytest.mark.parametrize("d,expected", [(2, 1), (3, 2), (5, 4)])
    def test_single_site_returns_eigenvalue_count(self, d, expected):
        assert q.invariant_count_formula(q.SystemShape((d,))) == expected

    def test_numeric_matches_formula_on_mixed_dims(self):
        shape = q.SystemShape((2, 3))
        rho = q.random_state(shape, seed=10)
        numeric = q.invariant_count_numeric(rho)
        assert numeric == 24
        assert numeric == q.invariant_count_formula(shape)

    def test_product_state_exceeds_generic_count(self):
        rho = product_state([0.11, 0.23, 0.31], [0.05, -0.17, 0.29])
        count = q.invariant_count_numeric(rho)
        assert count > 9
        assert count == 11  # two independent single-qubit orbits of dimension 2


class TestContractedFrame:
    """The frame is built by contraction and ranked by blocked QR."""

    SHAPES = [(2, 3), (3, 2, 2), (2, 3, 4), (2, 2, 2, 2)]

    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("rank", [None, 1, 2])
    def test_frame_equals_kron_reference_bit_for_bit(self, dims, rank):
        rho = q.random_state(q.SystemShape(dims), rank=rank, seed=21)
        assert np.array_equal(q.tangent_frame(rho).vectors, kron_frame(rho))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_generators_have_one_nonzero_per_row_and_column(self, d):
        # _gather reads one nonzero per row of t and of t^T, either real or imaginary.
        for t in generator_basis(d).generators:
            nonzero = t != 0
            assert nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1
            assert not np.any((t.real != 0) & (t.imag != 0))

    def test_contraction_sums_every_nonzero(self):
        # A generator's shape: one nonzero in each row but the empty row 2, one real and
        # one imaginary, neither of unit size.
        rng = np.random.default_rng(25)
        c = rng.standard_normal(2)
        t = np.zeros((3, 3), dtype=complex)
        t[0, 2], t[1, 0] = c[0], 1j * c[1]
        z = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        dst = np.full((4, 3, 5), np.nan)
        orbit_dim._gather(orbit_dim._rows(t), orbit_dim._folded(z)[:, 0], dst)
        tz = np.einsum("pq,iqj->ipj", t, z)
        assert np.allclose(dst, tz.real - tz.imag, rtol=1e-14, atol=0)
        assert np.all(dst[:, 2, :] == 0.0)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_singular_values_match_full_svd(self, dims):
        rho = q.random_state(q.SystemShape(dims), seed=22)
        expected = np.linalg.svd(q.tangent_frame(rho).vectors, compute_uv=False)
        got = q.orbit_dimension(rho).singular_values
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * expected[0]

    def test_frame_spans_several_qr_blocks(self):
        rho = q.random_state(q.SystemShape((2,) * 7), seed=23)
        assert q.tangent_frame(rho).vectors.shape[1] > 2 * orbit_dim._QR_BLOCK
        expected = np.linalg.svd(kron_frame(rho), compute_uv=False)
        result = q.orbit_dimension(rho)
        assert np.max(np.abs(result.singular_values - expected)) <= 1e-13 * expected[0]
        assert result.dimension == reference_dimension(rho) == 21

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 2)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_rank_four_sites_match_reference(self, dims, rank):
        rho = q.random_state(q.SystemShape(dims), rank=rank, seed=24)
        assert q.orbit_dimension(rho).dimension == reference_dimension(rho)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(dims=st.lists(st.sampled_from((2, 3, 4)), min_size=1, max_size=3)
           .filter(lambda ds: math.prod(ds) <= 36),
           seed=st.integers(0, 2**31 - 2))
    def test_generic_dimension_is_local_unitary_invariant(self, dims, seed):
        shape = q.SystemShape(tuple(dims))
        rho = q.random_state(shape, seed=seed)
        moved = q.apply(q.haar_local(shape, seed=seed + 1), rho)
        d = shape.total_dim
        expected = d * d - 1 - q.invariant_count_formula(shape)
        assert q.orbit_dimension(rho).dimension == expected
        assert q.orbit_dimension(moved).dimension == expected


class TestFoldedRanking:
    """Ranking on D^2 folded columns matches the 2 D^2-column QR."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dims=st.lists(st.sampled_from((2, 3, 4)), min_size=1, max_size=4)
           .filter(lambda ds: math.prod(ds) <= 64),
           rank=st.sampled_from((1, 2, None)),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_unfolded_qr(self, dims, rank, seed):
        assert_fold_matches_unfolded(q.random_state(q.SystemShape(tuple(dims)), rank=rank, seed=seed))

    def test_qubit_product_state(self):
        result = assert_fold_matches_unfolded(product_state([0.11, 0.23, 0.31], [0.05, -0.17, 0.29]))
        assert result.dimension == 4

    def test_qudit_product_state(self):
        a = q.random_state(q.SystemShape((2,)), seed=40).matrix
        b = q.random_state(q.SystemShape((3,)), seed=41).matrix
        rho = q.DensityMatrix(q.SystemShape((2, 3)), np.kron(a, b))
        assert assert_fold_matches_unfolded(rho).dimension == 2 + 6

    @pytest.mark.parametrize("dims", [(2,), (2, 3), (2, 2, 2)])
    def test_maximally_mixed(self, dims):
        assert assert_fold_matches_unfolded(q.maximally_mixed(q.SystemShape(dims))).dimension == 0

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4)])
    def test_depolarized(self, dims):
        rho = depolarized(q.random_state(q.SystemShape(dims), seed=42), 1e-3)
        assert_fold_matches_unfolded(rho)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3), (2, 3, 4)])
    def test_off_hermitian_within_tolerance(self, dims):
        # A validated rho is Hermitian only to HERMITICITY_RTOL, so the folded
        # halves are orthogonal only to about that order.
        rho = off_hermitian(q.random_state(q.SystemShape(dims), seed=43), 0.5, seed=44)
        m = rho.matrix
        assert np.abs(m - m.conj().T).max() > 0.4 * HERMITICITY_RTOL * np.abs(m).max()
        assert_fold_matches_unfolded(rho, rtol=1e-11)

    def test_folded_columns_span_several_blocks_with_remainder(self):
        rho = q.random_state(q.SystemShape((3, 3, 3, 3)), seed=45)
        folded = rho.shape.total_dim ** 2
        assert folded > 2 * orbit_dim._QR_BLOCK
        assert folded % orbit_dim._QR_BLOCK != 0
        assert assert_fold_matches_unfolded(rho).dimension == 4 * 8  # every generator moves it

    def test_fold_allocates_no_frame_wide_array(self):
        # A warm call reuses the thread's QR buffer, (k + _QR_BLOCK + width) x k floats; the
        # rest (commutator blocks, QR copies) stays within as much again.
        rho = q.random_state(q.SystemShape((2,) * 9), seed=46)
        k = 27
        width = orbit_dim._stream_rows(rho.shape.dims) * rho.shape.total_dim
        workspace_bytes = (k + orbit_dim._QR_BLOCK + width) * k * 8
        q.orbit_dimension(rho)  # warm caches and the buffer outside the trace
        tracemalloc.start()
        try:
            q.orbit_dimension(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * workspace_bytes


class TestForcedStreaming:
    """Small qudit shapes streamed in tiny blocks: imaginary and non-unit generator
    entries through both slab branches of the commutator kernel."""

    @pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3, 3), (4, 4), (3, 2, 2)])
    @pytest.mark.parametrize("rank", [1, 2, None])
    @pytest.mark.parametrize("block_rows", ["last site", "one"])
    def test_matches_kron_reference(self, dims, rank, block_rows, monkeypatch):
        # Rows of the last site's dimension: that site holds whole groups of its row index
        # and every other site lies in one slab. One row: every site lies in one slab.
        d_total = math.prod(dims)
        rows = dims[-1] if block_rows == "last site" else 1
        monkeypatch.setattr(orbit_dim, "_STREAM_ENTRIES", rows * d_total)
        assert orbit_dim._stream_rows(dims) == rows
        rho = q.random_state(q.SystemShape(dims), rank=rank, seed=70)
        expected = np.linalg.svd(kron_frame(rho), compute_uv=False)
        result = q.orbit_dimension(rho)
        assert result.singular_values.shape == expected.shape
        assert np.max(np.abs(result.singular_values - expected)) <= 1e-13 * expected[0]
        assert result.dimension == reference_dimension(rho)


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300, 1.0, 2.0])
    def test_bad_tolerance_is_refused(self, tol):
        rho = q.random_state(q.SystemShape((2, 2)), seed=47)
        with pytest.raises(q.ValidationError, match="rank tolerance"):
            q.orbit_dimension(rho, tol=tol)
        with pytest.raises(q.ValidationError, match="rank tolerance"):
            q.invariant_count_numeric(rho, tol=tol)

    def test_zero_tolerance_counts_every_nonzero_value(self):
        rho = q.random_state(q.SystemShape((2, 2)), seed=48)
        assert q.orbit_dimension(rho, tol=0.0).dimension == 6


class TestFrameSizeBound:
    def test_oversized_shape_is_refused(self):
        rho = q.maximally_mixed(q.SystemShape((100,)))  # a 1.6 GB frame from a 100 x 100 state
        with pytest.raises(q.UnsupportedShape):
            q.tangent_frame(rho)
        with pytest.raises(q.UnsupportedShape):
            q.orbit_dimension(rho)

    def test_bound_admits_ten_qubits_not_eleven(self):
        orbit_dim._check_frame_size(q.SystemShape((2,) * 10))
        with pytest.raises(q.UnsupportedShape, match="tangent frame"):
            orbit_dim._check_frame_size(q.SystemShape((2,) * 11))
