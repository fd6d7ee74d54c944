"""The small per-state kernels against the implementations they replaced.

Each reference below is the earlier, call-per-component version of a
kernel, kept as the oracle. The rewrites only drop wrapper calls and
Python loops; every rounded operation stays, so results are compared bit
for bit (signed zeros included), never with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit import bloch, invariants
from qorbit.bloch import BlochTensor, _component_words
from qorbit.canonical import KLEIN, _report_from_gram, _uniform_sign_element
from qorbit.errors import NotSpecialOrthogonal, NumericalError, ShapeMismatch
from qorbit.invariants import GRAM_PSD_TOL, _gram_mats, _sign_invariant, _triple_product
from qorbit.local_action import UNITARITY_TOL, RotationTriple


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- references


def power_vectors_ref(mat, vec):
    mv = mat @ vec
    return np.stack([vec, mv, mat @ mv])


def sign_invariant_ref(vec, mat):
    pv = power_vectors_ref(mat, vec)
    return float(np.dot(pv[0], np.cross(pv[1], pv[2])))


def trace_powers_ref(mat):
    m2 = mat @ mat
    return [float(np.trace(mat)), float(np.trace(m2)), float(np.trace(m2 @ mat))]


def invariants3_ref(t):
    x, y, z = _gram_mats(t.triple)
    av = power_vectors_ref(x, t.alpha)
    bv = power_vectors_ref(y, t.beta)
    cv = power_vectors_ref(z, t.gamma)
    return np.concatenate([
        trace_powers_ref(x), trace_powers_ref(y), trace_powers_ref(z),
        av @ t.alpha, bv @ t.beta, cv @ t.gamma,
        [sign_invariant_ref(t.alpha, x), sign_invariant_ref(t.beta, y), sign_invariant_ref(t.gamma, z)],
        (av @ t.pair_12 @ bv.T).ravel(),
        (av @ t.pair_13 @ cv.T).ravel(),
        (bv @ t.pair_23 @ cv.T).ravel(),
        np.einsum("ri,sj,tk,ijk->rst", av, bv, cv, t.triple).ravel(),
    ])


def invariants2_ref(t):
    r = t.pair_12
    x, y = _gram_mats(r)
    av = power_vectors_ref(x, t.alpha)
    bv = power_vectors_ref(y, t.beta)
    tr = trace_powers_ref(x)
    return np.concatenate([
        [tr[0], tr[1], float(np.linalg.det(r))],
        av @ t.alpha,
        av @ (r @ t.beta),
        [sign_invariant_ref(t.alpha, x)],
        bv @ t.beta,
        [sign_invariant_ref(t.beta, y)],
    ])


def eig_desc_ref(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if np.linalg.det(vecs) < 0:
        vecs[:, -1] *= -1.0
    return vals, vecs


def gram_ref(t):
    """Spectra and frames from one eigh per site, or the error message."""
    mats = _gram_mats(t.triple if t.n == 3 else t.pair_12)
    spectra, frames = [], []
    for m in mats:
        vals, vecs = eig_desc_ref(m)
        if vals[-1] < GRAM_PSD_TOL:
            return f"Gram matrix has negative eigenvalue {vals[-1]:.3e}"
        spectra.append(vals)
        frames.append(vecs)
    if t.n == 2 and np.max(np.abs(spectra[0] - spectra[1])) > 1e-12:
        return "two-qubit Gram spectra disagree beyond 1e-12"
    return spectra, frames


def report_ref(g, vectors):
    """The genericity margins, one numpy reduction per quantity."""
    out = {"gaps": [], "traces": [], "mins": [], "signs": []}
    for site in range(g.n):
        s = g.spectra[site]
        out["gaps"].append(float(min(s[0] - s[1], s[1] - s[2])))
        out["traces"].append(float(np.sum(s)))
        out["mins"].append(float(np.min(np.abs(vectors[site]))))
        out["signs"].append(abs(sign_invariant_ref(vectors[site], np.diag(s))))
    return out


def uniform_sign_element_ref(vec):
    tol = 1e-12 * (1.0 + float(np.max(np.abs(vec))))
    for k in KLEIN:
        s = tuple(0.0 if abs(v) <= tol else float(np.sign(v)) for v in k @ vec)
        nonzero = [v for v in s if v != 0.0]
        if all(v == nonzero[0] for v in nonzero) if nonzero else True:
            return k
    raise AssertionError("unreachable")


def expand_ref(rho):
    """One einsum per component, each with its own residue check."""
    n = rho.shape.n
    parts = {}
    for name, words in _component_words(n).items():
        raw = np.einsum("...ab,ba->...", words, rho.matrix) / 2**n
        residue = float(np.max(np.abs(raw.imag)))
        if residue > bloch.IMAG_RESIDUE_TOL:
            raise NumericalError(f"expansion coefficient has imaginary residue {residue:.3e}")
        parts[name] = raw.real
    return BlochTensor(n=n, **parts)


def max_abs_ref(t):
    return max(float(np.max(np.abs(arr))) for _, arr in t.component_items())


def rotation_error_ref(mats):
    """(r, message, margin) of the first rotation failing its checks, else None."""
    for r, o in enumerate(mats):
        o = np.array(o, dtype=float)
        if o.shape != (3, 3):
            return r, f"rotation {r} has shape {o.shape}", None
        dev = float(np.max(np.abs(o.T @ o - np.eye(3))))
        det_dev = abs(float(np.linalg.det(o)) - 1.0)
        if dev > UNITARITY_TOL or det_dev > UNITARITY_TOL:
            message = f"rotation {r}: orthogonality residue {dev:.3e}, |det - 1| = {det_dev:.3e}"
            return r, message, max(dev, det_dev)
    return None


# ---------------------------------------------------------------- inputs

# Exact zeros of both signs, tied magnitudes and signs, values straddling
# the 1e-12 sign tolerance, and magnitudes from 1e-150 up.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-12, -1e-12, 2e-12, 1e-150, -1e-150, 5e-324]
scalars = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=True),
    st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=-1.0, max_value=1.0), st.integers(-150, 1)),
)


def arrays(shape):
    size = int(np.prod(shape))
    return st.lists(scalars, min_size=size, max_size=size).map(lambda v: np.array(v).reshape(shape))


def tensors(n):
    names = [name for name, _ in bloch._components(n)]
    return st.tuples(*(arrays(bloch._SHAPES[name]) for name in names)).map(
        lambda parts: BlochTensor(n=n, **dict(zip(names, parts))))


def states(n):
    """Random states of every rank, some depolarized toward 1e-150 contrast."""
    @st.composite
    def draw(draw_):
        shape = q.SystemShape((2,) * n)
        rank = draw_(st.integers(1, 2**n))
        rho = q.random_state(shape, rank=rank, seed=draw_(st.integers(0, 10**6)))
        p = draw_(st.sampled_from([1.0, 0.5, 1e-3, 1e-50, 1e-150]))
        d = 2**n
        return q.DensityMatrix(shape, (1.0 - p) * np.eye(d) / d + p * rho.matrix)
    return draw()


def rotation(seed: int, noise: float, reflect: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    o, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(o) < 0:
        o[:, 0] *= -1.0
    if reflect:
        o[:, 2] *= -1.0
    return o + noise * rng.standard_normal((3, 3))


rotations = st.builds(rotation, st.integers(0, 10**6),
                      st.sampled_from([0.0, 1e-15, 1e-13, 3e-13, 1e-12, 1e-11, 1e-6]), st.booleans())


# ---------------------------------------------------------------- tests


class TestInvariantKernels:
    @settings(max_examples=300, deadline=None)
    @given(arrays((3,)), arrays((3, 3)))
    def test_sign_invariant(self, vec, mat):
        assert same_bits(_sign_invariant(vec, mat), sign_invariant_ref(vec, mat))
        sym = mat @ mat.T
        assert same_bits(_sign_invariant(vec, sym), sign_invariant_ref(vec, sym))

    @settings(max_examples=300, deadline=None)
    @given(arrays((3, 3)))
    def test_triple_product_matches_np_cross(self, pv):
        assert same_bits(_triple_product(pv), float(np.dot(pv[0], np.cross(pv[1], pv[2]))))

    @settings(max_examples=100, deadline=None)
    @given(tensors(3))
    def test_invariants3(self, t):
        assert same_bits(q.invariants3(t).values, invariants3_ref(t))

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in det:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(tensors(2))
    def test_invariants2(self, t):
        assert same_bits(q.invariants2(t).values, invariants2_ref(t))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tensors(2), tensors(3)))
    def test_gram(self, t):
        ref = gram_ref(t)
        if isinstance(ref, str):
            with pytest.raises(NumericalError) as info:
                invariants.gram(t)
            assert str(info.value) == ref
            return
        g = invariants.gram(t)
        assert len(g.spectra) == len(g.frames) == len(ref[0]) == t.n
        for got, want in zip(g.spectra + g.frames, ref[0] + ref[1]):
            assert same_bits(got, want)
            assert got.flags.c_contiguous

    def test_gram_of_zero_tensor(self):
        t = BlochTensor.from_flat(3, np.zeros(63))
        g = invariants.gram(t)
        spectra, frames = gram_ref(t)
        for got, want in zip(g.spectra + g.frames, spectra + frames):
            assert same_bits(got, want)

    @settings(max_examples=200, deadline=None)
    @given(arrays((75,)), arrays((75,)), st.sampled_from([1e-30, 1e-3, 1.0, 7.5]))
    def test_first_disagreement(self, a, b, scale):
        b = np.where(np.arange(75) % 3 == 0, a, b)  # plenty of exact agreements

        def ref():
            diffs = np.abs(a - b)
            for i, (diff, k) in enumerate(zip(diffs, invariants.DEGREES3)):
                if diff > max(invariants.COMPARE_ABS_FLOOR, invariants.COMPARE_RTOL * scale**k):
                    return i
            return None

        assert invariants.first_disagreement(a, b, invariants.DEGREES3, scale) == ref()


class TestCanonicalKernels:
    @settings(max_examples=500, deadline=None)
    @given(arrays((3,)))
    def test_uniform_sign_element(self, vec):
        assert _uniform_sign_element(vec) is uniform_sign_element_ref(vec)

    @pytest.mark.parametrize("vec", [
        (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, -1.0, 1.0), (-1.0, -1.0, 1.0),
        (0.0, -1.0, 1.0), (1e-13, -1.0, 1.0), (-2e-12, 1.0, 1.0), (1e-150, -1e-150, 0.0),
    ])
    def test_uniform_sign_element_ties_and_zeros(self, vec):
        vec = np.array(vec)
        assert _uniform_sign_element(vec) is uniform_sign_element_ref(vec)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tensors(2), tensors(3)), st.lists(arrays((3,)), min_size=3, max_size=3))
    def test_report_from_gram(self, t, vectors):
        try:
            g = invariants.gram(t)
        except NumericalError:
            return
        vectors = vectors[:t.n]
        report = _report_from_gram(g, vectors)
        ref = report_ref(g, vectors)
        for got, want in ((report.eigengaps, ref["gaps"]), (report.gram_traces, ref["traces"]),
                          (report.min_components, ref["mins"]), (report.sign_invariants, ref["signs"])):
            assert same_bits(np.array(got[:t.n], dtype=float), np.array(want))

    def test_trace_keeps_np_sum_signed_zero(self):
        g = invariants.GramTriple(n=2, mats=(), spectra=(np.array([-0.0, -0.0, -0.0]),) * 2,
                                  frames=(np.eye(3),) * 2)
        report = _report_from_gram(g, [np.ones(3), np.ones(3)])
        assert same_bits(report.gram_traces[0], float(np.sum(g.spectra[0])))


class TestBlochKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(states(1), states(2), states(3)))
    def test_expand(self, rho):
        t, ref = q.expand(rho), expand_ref(rho)
        for (name, got), (_, want) in zip(t.component_items(), ref.component_items()):
            assert same_bits(got, want), name
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("vec", [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 1], [1, 1j, 0, 0, 0, 0, 0, -1]])
    def test_expand_pure_states_with_exact_zeros(self, vec):
        v = np.array(vec, dtype=complex) / np.linalg.norm(vec)
        rho = q.DensityMatrix(q.SystemShape((2, 2, 2)), np.outer(v, v.conj()))
        assert same_bits(q.expand(rho).flatten(), expand_ref(rho).flatten())

    def test_expand_imaginary_residue_raises(self):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=3)
        bad = rho.matrix.copy()
        bad[0, 0] += 1e-6j  # not Hermitian: every Z-type coefficient picks up 1.25e-7j
        object.__setattr__(rho, "matrix", bad)
        with pytest.raises(NumericalError) as info:
            q.expand(rho)
        with pytest.raises(NumericalError) as ref:
            expand_ref(rho)
        assert str(info.value) == str(ref.value) == "expansion coefficient has imaginary residue 1.250e-07"

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tensors(1), tensors(2), tensors(3)))
    def test_max_abs(self, t):
        assert same_bits(t.max_abs(), max_abs_ref(t))
        assert same_bits(invariants.coefficient_scale(t), max(1e-30, max_abs_ref(t)))


class TestRotationChecks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rotations, min_size=1, max_size=3))
    def test_stacked_checks_match_per_rotation(self, mats):
        ref = rotation_error_ref(mats)
        if ref is None:
            built = RotationTriple(tuple(mats))
            for got, want in zip(built.mats, mats):
                assert same_bits(got, want) and not got.flags.writeable
            return
        with pytest.raises(NotSpecialOrthogonal) as info:
            RotationTriple(tuple(mats))
        assert str(info.value) == ref[1]
        assert same_bits(info.value.margin, ref[2])

    def test_bad_second_rotation_named_with_margin(self):
        good = rotation(1, 0.0, False)
        bad = rotation(2, 1e-9, False)
        _, message, margin = rotation_error_ref([good, bad, good])
        with pytest.raises(NotSpecialOrthogonal) as info:
            RotationTriple((good, bad, good))
        assert str(info.value).startswith("rotation 1: ")
        assert str(info.value) == message
        assert info.value.margin == margin and margin > UNITARITY_TOL

    @pytest.mark.parametrize("first_ok", [True, False])
    def test_error_order_with_a_misshapen_rotation(self, first_ok):
        first = rotation(1, 0.0, not first_ok)
        mats = (first, np.eye(2))
        r, message, _ = rotation_error_ref(mats)
        expected = ShapeMismatch if first_ok else NotSpecialOrthogonal
        with pytest.raises(expected) as info:
            RotationTriple(mats)
        assert r == (1 if first_ok else 0)
        assert str(info.value) == message

