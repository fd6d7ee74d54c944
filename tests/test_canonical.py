import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit.bloch import BlochTensor
from qorbit.canonical import (
    COMPONENT_TOL,
    EIGENGAP_RTOL,
    KLEIN,
    SIGN_INVARIANT_TOL,
    _uniform_sign_element,
)


def expand_random(dims, seed):
    return q.expand(q.random_state(q.SystemShape(dims), seed=seed))


def conjugated(dims, state_seed, unitary_seed):
    shape = q.SystemShape(dims)
    rho = q.random_state(shape, seed=state_seed)
    moved = q.apply(q.haar_local(shape, seed=unitary_seed), rho)
    return q.expand(rho), q.expand(moved)


def assert_uniform_signs(vec):
    signs = {np.sign(v) for v in vec if abs(v) > 1e-12}
    assert len(signs) <= 1


def klein_search_gauge(t):
    """canonicalize2's gauge by transforming with each of the 16 Klein
    pairs, the search its sign-product scoring replaced (reference)."""
    u, _, vt = np.linalg.svd(t.pair_12)
    o1 = u @ np.diag([1.0, 1.0, float(np.sign(np.linalg.det(u))) or 1.0])
    o2 = vt.T @ np.diag([1.0, 1.0, float(np.sign(np.linalg.det(vt))) or 1.0])
    base_rot = q.RotationTriple((o1.T, o2.T))
    base = q.transform_bloch(t, base_rot)
    tol = 1e-12 * (1.0 + base.max_abs())

    def sign_key(pair):
        c = q.transform_bloch(base, q.RotationTriple(pair))
        parts = np.concatenate([c.alpha, c.beta, np.diag(c.pair_12)])
        return tuple(0.0 if abs(v) <= tol else float(np.sign(v)) for v in parts)

    best = None
    for pair in itertools.product(KLEIN, KLEIN):
        if best is None or sign_key(pair) < sign_key(best):
            best = pair
    return q.RotationTriple((best[0] @ base_rot.mats[0], best[1] @ base_rot.mats[1]))


class TestCanonicalize3:
    def test_gram_matrices_diagonal_decreasing(self):
        point = q.canonicalize3(expand_random((2, 2, 2), seed=1))
        g = q.gram(point.tensor)
        for m, spectrum in zip(g.mats, g.spectra):
            off = m - np.diag(np.diag(m))
            assert np.max(np.abs(off)) <= 1e-10 * max(np.max(np.diag(m)), 1e-300)
            diag = np.diag(m)
            assert diag[0] > diag[1] > diag[2]

    def test_vectors_uniform_sign(self):
        point = q.canonicalize3(expand_random((2, 2, 2), seed=2))
        for vec in (point.tensor.alpha, point.tensor.beta, point.tensor.gamma):
            assert_uniform_signs(vec)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_orbit_uniqueness(self, seed):
        t1, t2 = conjugated((2, 2, 2), state_seed=seed, unitary_seed=100 + seed)
        c1, c2 = q.canonicalize3(t1), q.canonicalize3(t2)
        assert c1.report.generic and c2.report.generic
        assert np.max(np.abs(c1.tensor.flatten() - c2.tensor.flatten())) <= 1e-8

    def test_gauge_reproduces_canonical_tensor(self):
        t = expand_random((2, 2, 2), seed=7)
        point = q.canonicalize3(t)
        replay = q.transform_bloch(t, point.gauge)
        assert np.max(np.abs(replay.flatten() - point.tensor.flatten())) == 0.0

    def test_gauge_acts_through_unitary_lifts(self):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=8)
        t = q.expand(rho)
        point = q.canonicalize3(t)
        lifted = q.lift_rotations(point.gauge)
        via_matrix = q.expand(q.apply(lifted, rho))
        assert np.max(np.abs(via_matrix.flatten() - point.tensor.flatten())) <= 1e-10

    def test_idempotent(self):
        point = q.canonicalize3(expand_random((2, 2, 2), seed=9))
        again = q.canonicalize3(point.tensor)
        assert np.max(np.abs(again.tensor.flatten() - point.tensor.flatten())) <= 1e-10
        for mat in again.gauge.mats:
            assert np.max(np.abs(mat - np.eye(3))) <= 1e-10

    def test_orbit_invariance_under_arbitrary_rotations(self):
        t = expand_random((2, 2, 2), seed=10)
        u = q.haar_local(q.SystemShape((2, 2, 2)), seed=11)
        rot = q.RotationTriple(tuple(q.adjoint_rotation(f) for f in u.factors))
        moved = q.transform_bloch(t, rot)
        c1, c2 = q.canonicalize3(t), q.canonicalize3(moved)
        assert np.max(np.abs(c1.tensor.flatten() - c2.tensor.flatten())) <= 1e-8

    def test_ghz_flagged_degenerate(self, ghz):
        point = q.canonicalize3(q.expand(ghz))
        assert point.report.generic is False
        assert point.report.eigengaps[0] <= 1e-12

    def test_off_diagonal_constraint_count(self):
        # Nine vanishing off-diagonal Gram entries cut 63 coordinates to 54.
        point = q.canonicalize3(expand_random((2, 2, 2), seed=12))
        g = q.gram(point.tensor)
        constraints = 0
        for m in g.mats:
            for i, j in itertools.combinations(range(3), 2):
                assert abs(m[i, j]) <= 1e-10
                constraints += 1
        assert 63 - constraints == 54


class TestCanonicalize2:
    def test_bell_diagonal_magnitudes(self, bell):
        point = q.canonicalize2(q.expand(bell))
        diag = np.diag(point.tensor.pair_12)
        assert np.allclose(np.abs(diag), [0.25, 0.25, 0.25], atol=1e-12)
        assert np.prod(np.sign(diag)) == pytest.approx(-1.0)  # sign of det R
        assert point.report.generic is False

    def test_diagonal_sorted_by_magnitude(self):
        point = q.canonicalize2(expand_random((2, 2), seed=13))
        diag = np.abs(np.diag(point.tensor.pair_12))
        assert diag[0] >= diag[1] >= diag[2]
        off = point.tensor.pair_12 - np.diag(np.diag(point.tensor.pair_12))
        assert np.max(np.abs(off)) <= 1e-12

    @pytest.mark.parametrize("seed", [14, 15, 16, 17])
    def test_orbit_uniqueness(self, seed):
        t1, t2 = conjugated((2, 2), state_seed=seed, unitary_seed=200 + seed)
        c1, c2 = q.canonicalize2(t1), q.canonicalize2(t2)
        assert c1.report.generic and c2.report.generic
        assert np.max(np.abs(c1.tensor.flatten() - c2.tensor.flatten())) <= 1e-8

    def test_gauge_is_special_orthogonal_and_replays(self):
        t = expand_random((2, 2), seed=18)
        point = q.canonicalize2(t)
        replay = q.transform_bloch(t, point.gauge)
        assert np.max(np.abs(replay.flatten() - point.tensor.flatten())) == 0.0

    @pytest.mark.parametrize("kind", ["rank4", "rank2", "rank1", "no_vectors", "zero_components"])
    def test_gauge_matches_exhaustive_klein_search(self, kind):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if kind.startswith("rank"):
                rho = q.random_state(q.SystemShape((2, 2)), rank=int(kind[-1]), seed=seed)
                t = q.expand(rho)
            else:
                # Zero vector components leave the diagonal signs, and then
                # the element order, to pick the Klein pair.
                mask = np.zeros(3) if kind == "no_vectors" else np.array([1.0, 0.0, 1.0])
                t = BlochTensor(n=2, alpha=mask * rng.standard_normal(3),
                                beta=mask * rng.standard_normal(3),
                                pair_12=rng.standard_normal((3, 3)))
            gauge = q.canonicalize2(t).gauge
            for got, want in zip(gauge.mats, klein_search_gauge(t).mats):
                assert np.array_equal(got, want)

    def test_maximally_mixed(self):
        point = q.canonicalize2(q.expand(q.maximally_mixed(q.SystemShape((2, 2)))))
        assert point.tensor.max_abs() == 0.0
        assert point.report.generic is False


class TestGenericity:
    def test_ghz(self, ghz):
        report = q.genericity(q.expand(ghz))
        assert report.generic is False
        assert report.eigengaps[0] == pytest.approx(0.0, abs=1e-14)

    def test_random_three_qubit_generic(self):
        report = q.genericity(expand_random((2, 2, 2), seed=19))
        assert report.generic is True

    def test_maximally_mixed_margins_vanish(self):
        report = q.genericity(q.expand(q.maximally_mixed(q.SystemShape((2, 2, 2)))))
        assert report.generic is False
        for margin in report.eigengaps + report.min_components + report.sign_invariants:
            assert margin == pytest.approx(0.0, abs=1e-14)

    def test_report_matches_canonical_point(self):
        t = expand_random((2, 2, 2), seed=20)
        report = q.genericity(t)
        point = q.canonicalize3(t)
        for a, b in zip(report.min_components, point.report.min_components):
            assert a == pytest.approx(b, rel=1e-9)


@st.composite
def qubit_tensors(draw):
    """2- and 3-qubit states of every rank, a few of them depolarized."""
    n = draw(st.sampled_from((2, 3)))
    d = 2**n
    rank = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.sampled_from((1.0, 1.0, 1.0, 0.3, 0.01)))
    rho = q.random_state(q.SystemShape((2,) * n), rank=rank, seed=seed)
    mixed = (1.0 - p) * np.eye(d) / d + p * rho.matrix
    return q.expand(q.DensityMatrix(rho.shape, mixed))


class TestReportEquivalence:
    """``decide`` gates on ``canonicalize(t).report`` in place of ``genericity(t)``."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(qubit_tensors())
    def test_canonical_report_matches_genericity(self, t):
        direct = q.genericity(t)
        report = q.canonicalize(t).report
        assert report.generic == direct.generic
        close = dict(rel=1e-9, abs=1e-300)
        for site in range(t.n):
            trace = direct.gram_traces[site]
            assert report.gram_traces[site] == pytest.approx(trace, **close)
            if direct.eigengaps[site] <= EIGENGAP_RTOL * trace:
                # Coincident Gram eigenvalues leave the site's eigenframe,
                # and so its vector margins, undetermined.
                continue
            assert report.eigengaps[site] == pytest.approx(direct.eigengaps[site], **close)
            for key, tol in (("min_components", COMPONENT_TOL),
                             ("sign_invariants", SIGN_INVARIANT_TOL)):
                margin = getattr(direct, key)[site]
                if margin > tol:
                    assert getattr(report, key)[site] == pytest.approx(margin, **close)


class TestKleinSelection:
    def test_each_sign_orbit_has_one_uniform_pattern(self):
        for pattern in itertools.product((1.0, -1.0), repeat=3):
            vec = np.array(pattern)
            uniform = 0
            for k in KLEIN:
                moved = k @ vec
                if len({np.sign(v) for v in moved}) == 1:
                    uniform += 1
            assert uniform == 1

    def test_selected_element_aligns(self):
        vec = np.array([0.3, -0.2, 0.7])
        k = _uniform_sign_element(vec)
        assert_uniform_signs(k @ vec)
