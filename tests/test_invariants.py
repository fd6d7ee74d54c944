import math

import numpy as np
import pytest

import qorbit as q
from qorbit.errors import NumericalError, ParseError, ShapeMismatch, UnsupportedShape, ValidationError
from qorbit.invariants import (
    DEGREES2,
    DEGREES3,
    MINIMAL2,
    NAMES2,
    NAMES3,
    first_disagreement,
    invariant_payload_to_values,
)

from conftest import gap_rank, jacobian_singular_values, product_state


def rotated(t, seed):
    u = q.haar_local(q.SystemShape((2,) * t.n), seed=seed)
    rot = q.RotationTriple(tuple(q.adjoint_rotation(f) for f in u.factors))
    return q.transform_bloch(t, rot)


def assert_invariant(values_fn, t, seeds, rtol=1e-9):
    base = values_fn(t)
    for seed in seeds:
        moved = values_fn(rotated(t, seed))
        rel = np.abs(moved - base) / np.maximum(np.abs(base), 1e-300)
        assert np.max(rel) <= rtol


class TestGram:
    def test_maximally_mixed_vanishes(self):
        t = q.expand(q.maximally_mixed(q.SystemShape((2, 2, 2))))
        g = q.gram(t)
        for m in g.mats:
            assert np.max(np.abs(m)) <= 1e-15

    def test_ghz_spectrum(self, ghz):
        g = q.gram(q.expand(ghz))
        assert np.allclose(g.spectra[0], [1 / 32, 1 / 32, 0.0], atol=1e-14)
        assert np.allclose(g.spectra[1], [1 / 32, 1 / 32, 0.0], atol=1e-14)
        assert np.allclose(g.spectra[2], [1 / 32, 1 / 32, 0.0], atol=1e-14)

    def test_bell_gram(self, bell):
        g = q.gram(q.expand(bell))
        assert np.allclose(g.mats[0], np.eye(3) / 16, atol=1e-15)
        assert np.allclose(g.mats[1], np.eye(3) / 16, atol=1e-15)

    def test_two_qubit_spectra_match(self):
        t = q.expand(q.random_state(q.SystemShape((2, 2)), seed=1))
        g = q.gram(t)
        assert np.max(np.abs(g.spectra[0] - g.spectra[1])) <= 1e-12

    def test_frames_are_special_orthogonal(self):
        g = q.gram(q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=2)))
        for frame in g.frames:
            assert np.max(np.abs(frame.T @ frame - np.eye(3))) <= 1e-12
            assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_single_qubit(self):
        with pytest.raises(UnsupportedShape):
            q.gram(q.expand(q.random_state(q.SystemShape((2,)), seed=3)))

    # Finite tensors whose Gram matrices overflow: LAPACK fails to converge, or (n = 2 at
    # 1e155, through canonicalize) returns NaN eigenvalues.
    @pytest.mark.parametrize("size", [1e155, 1e200])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("call", [q.canonicalize, q.genericity, q.gram], ids=lambda f: f.__name__)
    def test_overflowing_gram_is_numerical_error(self, call, n, size):
        v = q.expand(q.random_state(q.SystemShape((2,) * n), seed=0)).flatten()
        t = q.BlochTensor.from_flat(n, v / np.abs(v).max() * size)
        with pytest.raises(NumericalError, match="Gram"):
            call(t)


# Valid finite tensors whose highest-degree members leave float range: the Gram matrices are
# finite, so only the invariant values overflow.
@pytest.mark.parametrize(("n", "scale"), [(3, 1e30), (3, 1e100), (2, 1e60), (2, 1e155)])
def test_overflowing_invariants_are_numerical_errors(n, scale):
    t = q.expand(q.random_state(q.SystemShape((2,) * n), seed=5))
    scaled = q.BlochTensor.from_flat(n, t.flatten() * scale)
    with pytest.raises(NumericalError, match="overflows float range"):
        q.invariants.fingerprint(scaled)


class TestInvariants3:
    def test_layout(self):
        assert len(NAMES3) == 75
        assert len(DEGREES3) == 75
        assert NAMES3[0] == "trX1"
        assert NAMES3[18] == "A9"
        assert NAMES3[21] == "I12_11"
        assert NAMES3[48] == "I123_111"
        assert NAMES3 == tuple(
            [f"tr{g}{r}" for g in "XYZ" for r in (1, 2, 3)]
            + [f"{f}{2 * r}" for f in "ABC" for r in (1, 2, 3)]
            + ["A9", "B9", "C9"]
            + [f"I{p}_{r}{s}" for p in ("12", "13", "23") for r in (1, 2, 3) for s in (1, 2, 3)]
            + [f"I123_{r}{s}{t}" for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
        )
        assert DEGREES3 == tuple(
            [2 * r for _ in "XYZ" for r in (1, 2, 3)]
            + [2 * r for _ in "ABC" for r in (1, 2, 3)]
            + [9, 9, 9]
            + [2 * r + 2 * s - 1 for _ in range(3) for r in (1, 2, 3) for s in (1, 2, 3)]
            + [2 * (r + s + t) - 2 for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
        )

    def test_maximally_mixed_all_zero(self):
        inv = q.invariants3(q.expand(q.maximally_mixed(q.SystemShape((2, 2, 2)))))
        assert np.max(np.abs(inv.values)) <= 1e-15

    def test_accessors_agree_with_layout(self):
        t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=4))
        inv = q.invariants3(t)
        g = q.gram(t)
        assert inv.trace_family(0)[0] == pytest.approx(np.trace(g.mats[0]), rel=1e-12)
        assert inv.quad_family(0)[0] == pytest.approx(t.alpha @ t.alpha, rel=1e-12)
        assert inv.pair_family("12")[0, 0] == pytest.approx(
            t.alpha @ t.pair_12 @ t.beta, rel=1e-12
        )
        assert inv.triple_family()[0, 0, 0] == pytest.approx(
            np.einsum("i,j,k,ijk->", t.alpha, t.beta, t.gamma, t.triple), rel=1e-12
        )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_local_unitary_invariance(self, seed):
        t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=seed))
        assert_invariant(lambda x: q.invariants3(x).values, t, seeds=range(40, 48))

    def test_product_state_sign_invariant_vanishes(self):
        rho = product_state([0.3, 0, 0], [0, 0.25, 0], [0, 0, 0.2])
        inv = q.invariants3(q.expand(rho))
        a9 = inv.sign_family()[0]
        # Rank-one Gram matrix: the wedge of (a, Xa, X^2 a) collapses.
        assert abs(a9) <= 1e-20


class TestInvariants2:
    def test_layout(self):
        assert len(NAMES2) == len(DEGREES2) == 14
        assert MINIMAL2 == 10
        assert NAMES2[:3] == ("trX1", "trX2", "detR")
        assert NAMES2 == (
            "trX1", "trX2", "detR", "A2", "A4", "A6", "mix1", "mix2", "mix3", "A9",
            "B2", "B4", "B6", "B9",
        )
        assert DEGREES2 == (2, 4, 3, 2, 4, 6, 3, 5, 7, 9, 2, 4, 6, 9)

    def test_bell_values(self, bell):
        inv = q.invariants2(q.expand(bell))
        named = dict(zip(NAMES2, inv.values))
        assert named["trX1"] == pytest.approx(3 / 16, abs=1e-15)
        assert named["trX2"] == pytest.approx(3 / 256, abs=1e-15)
        assert named["detR"] == pytest.approx(-1 / 64, abs=1e-15)
        for name in ("A2", "A4", "A6", "mix1", "mix2", "mix3", "A9", "B2", "B9"):
            assert named[name] == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed_all_zero(self):
        inv = q.invariants2(q.expand(q.maximally_mixed(q.SystemShape((2, 2)))))
        assert np.max(np.abs(inv.values)) <= 1e-15

    @pytest.mark.parametrize("seed", [7, 8])
    def test_local_unitary_invariance(self, seed):
        t = q.expand(q.random_state(q.SystemShape((2, 2)), seed=seed))
        assert_invariant(lambda x: q.invariants2(x).values, t, seeds=range(50, 58))

    def test_minimal_is_the_first_ten(self):
        inv = q.invariants2(q.expand(q.random_state(q.SystemShape((2, 2)), seed=9)))
        assert np.array_equal(inv.minimal(), inv.values[:MINIMAL2])
        assert inv.minimal().tolist() == inv.payload(minimal=True)["values"]


class TestInvariant1:
    def test_pure_state(self):
        t = q.expand(q.validate(np.diag([1.0, 0.0]), q.SystemShape((2,))))
        res = q.invariant1(t)
        assert res.value == pytest.approx(0.25, abs=1e-15)
        assert res.purity == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        res = q.invariant1(q.expand(q.maximally_mixed(q.SystemShape((2,)))))
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.purity == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_purity_identity(self, seed):
        rho = q.random_state(q.SystemShape((2,)), seed=seed)
        res = q.invariant1(q.expand(rho))
        assert res.purity == pytest.approx(0.5 + 2 * res.value, abs=1e-12)


class TestFunctionalIndependence:
    def test_three_qubit_rank(self):
        t = q.expand(q.random_state(q.SystemShape((2, 2, 2)), seed=11))
        s = jacobian_singular_values(t, lambda x: q.invariants3(x).values)
        assert gap_rank(s) == 54

    def test_two_qubit_rank_is_nine(self):
        # The minimal ten satisfy one functional relation, hence rank 9.
        t = q.expand(q.random_state(q.SystemShape((2, 2)), seed=11))
        s = jacobian_singular_values(t, lambda x: q.invariants2(x).values[:MINIMAL2])
        assert gap_rank(s) == 9


class TestSeparationSoundness:
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_differing_invariants_mean_oracle_failure(self, seed):
        shape = q.SystemShape((2, 2, 2))
        rho1 = q.random_state(shape, seed=seed)
        rho2 = q.random_state(shape, seed=1000 + seed)
        t1, t2 = q.expand(rho1), q.expand(rho2)
        bad = first_disagreement(
            q.invariants3(t1).values,
            q.invariants3(t2).values,
            DEGREES3,
            max(np.linalg.norm(t1.flatten()), np.linalg.norm(t2.flatten())),
        )
        assert bad is not None
        result = q.oracle_search(rho1, rho2, restarts=4, seed=seed)
        assert result.residual > 1e-6


class TestFirstDisagreementScale:
    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0])
    def test_scale_not_finite_and_positive_is_refused(self, scale):
        with pytest.raises(ValidationError, match="coefficient scale must be finite and positive"):
            first_disagreement(np.zeros(75), np.ones(75), DEGREES3, scale)

    @pytest.mark.parametrize("scale", [1e20, np.float64(1e20), 1e300])
    def test_overflowing_power_is_numerical_error(self, scale):
        # 1e20 ** 16 is beyond the float range; the degree-16 members set the power.
        with pytest.raises(NumericalError, match="overflows at degree 16"):
            first_disagreement(np.zeros(75), np.ones(75), DEGREES3, scale)

    def test_scale_with_powers_in_range_is_accepted(self):
        # 1e19 ** 16 = 1e304 is finite; tolerances from rtol * 1e38 up absorb every difference.
        assert first_disagreement(np.zeros(75), np.ones(75), DEGREES3, 1e19) is None


# Vectors that numpy would broadcast (75 against 1), fail to broadcast (75 against 14), or
# that differ only past the 75 degrees (80 against 80).
@pytest.mark.parametrize(("values_a", "values_b"), [
    (np.zeros(75), np.ones(1)),
    (np.zeros(75), np.ones(14)),
    (np.zeros(80), np.r_[np.zeros(75), np.ones(5)]),
], ids=["75-1", "75-14", "80-80"])
def test_first_disagreement_needs_one_value_per_degree(values_a, values_b):
    message = rf"shapes \({len(values_a)},\) and \({len(values_b)},\) for 75 degrees"
    with pytest.raises(ShapeMismatch, match=message):
        first_disagreement(values_a, values_b, DEGREES3, 1.0)


def test_boolean_n_in_invariant_payload_is_parse_error():
    payload = {"n": True, "names": ["I", "purity"], "values": [0.1, 0.7]}
    with pytest.raises(ParseError, match="field 'n' must be 1, 2, or 3"):
        invariant_payload_to_values(payload)
    for n, names in ((2.0, NAMES2), (3.0, NAMES3)):
        floated = {"n": n, "names": list(names), "values": [0.0] * len(names)}
        with pytest.raises(ParseError, match="field 'n' must be 1, 2, or 3"):
            invariant_payload_to_values(floated)
    payload["n"] = 1
    n, values = invariant_payload_to_values(payload)
    assert n == 1 and list(values) == [0.1, 0.7]


@pytest.mark.parametrize("n, names", [(1, ()), (1, ("I",)), (2, ()), (2, NAMES2[:3]), (2, NAMES2[:13])])
def test_truncated_invariant_names_are_parse_error(n, names):
    payload = {"n": n, "names": list(names), "values": [0.0] * len(names)}
    with pytest.raises(ParseError, match="invariant names do not match the canonical list"):
        invariant_payload_to_values(payload)


@pytest.mark.parametrize("family, size", [(q.InvariantSet3, 75), (q.InvariantSet2, 14)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_invariant_values_rejected(family, size, bad):
    values = np.zeros(size)
    values[size // 2] = bad
    with pytest.raises(q.ValidationError, match="invariant vector has a non-finite entry"):
        family(values)
    with pytest.raises(q.ValidationError):
        family(np.full(size, bad))


@pytest.mark.parametrize("family, size", [(q.InvariantSet3, 75), (q.InvariantSet2, 14)])
def test_wrong_length_invariant_vector_is_shape_mismatch(family, size):
    for shape in [(3,), (size - 1,), (size + 1,), (1, size), ()]:
        with pytest.raises(q.ShapeMismatch) as info:
            family(np.zeros(shape))
        assert str(info.value) == f"expected {size} values, got shape {shape}"
