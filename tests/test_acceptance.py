"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``)
carrying the measured margin next to the required tolerance. Tolerances
are pinned here and nowhere else.
"""

import io
import time
from contextlib import contextmanager

import numpy as np

import qorbit as q
from qorbit.cli import run as cli_run
from qorbit.invariants import MINIMAL2
from qorbit.reconstruction import VandermondeSystem, reconstruct_canonical

from conftest import gap_rank, jacobian_singular_values, pure_state


@contextmanager
def criterion(number, description):
    record = {}
    try:
        yield record
    except Exception:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    detail = record.get("detail", "")
    print(f"criterion {number:2d} PASS: {description}{detail}")


def random3(seed):
    return q.random_state(q.SystemShape((2, 2, 2)), seed=seed)


def on_orbit_pair(dims, state_seed, unitary_seed):
    shape = q.SystemShape(dims)
    rho = q.random_state(shape, seed=state_seed)
    return rho, q.apply(q.haar_local(shape, seed=unitary_seed), rho)


def test_criterion_1_counting_formula():
    shapes = [(2, 2), (2, 2, 2), (2, 3), (3, 3), (2, 2, 2, 2)]
    with criterion(1, "invariant count matches the closed formula on 5 shapes x 20 seeds") as rec:
        start = time.perf_counter()
        for dims in shapes:
            shape = q.SystemShape(dims)
            expected = q.invariant_count_formula(shape)
            for seed in range(20):
                rho = q.random_state(shape, seed=10_000 + seed)
                assert q.invariant_count_numeric(rho, tol=1e-9) == expected
        assert q.invariant_count_formula(q.SystemShape((2, 2))) == 9
        assert q.invariant_count_formula(q.SystemShape((2, 2, 2))) == 54
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        rec["detail"] = f" ({elapsed:.1f}s < 30s)"


def test_criterion_2_generic_orbit_dimensions():
    with criterion(2, "generic orbit dimensions are 2 / 6 / 9 and 0 for maximally mixed"):
        for n_sites, expected in ((1, 2), (2, 6), (3, 9)):
            shape = q.SystemShape((2,) * n_sites)
            for seed in range(20):
                rho = q.random_state(shape, seed=20_000 + seed)
                assert q.orbit_dimension(rho).dimension == expected
            assert q.orbit_dimension(q.maximally_mixed(shape)).dimension == 0


def test_criterion_3_single_qubit_kernel():
    with criterion(3, "single-qubit tangent kernel is the line spanned by alpha") as rec:
        worst = 1.0
        for seed in range(20):
            rho = q.random_state(q.SystemShape((2,)), seed=30_000 + seed)
            alpha = q.expand(rho).alpha
            frame = q.tangent_frame(rho).vectors
            u, s, _ = np.linalg.svd(frame)
            assert int(np.sum(s > 1e-9 * s[0])) == 2  # kernel dimension one
            kernel = u[:, -1]
            cosine = abs(kernel @ alpha) / (np.linalg.norm(kernel) * np.linalg.norm(alpha))
            worst = min(worst, cosine)
            assert cosine >= 1 - 1e-9
        rec["detail"] = f" (worst cosine deficit {1 - worst:.1e} <= 1e-9)"


def test_criterion_4_local_unitary_invariance():
    with criterion(4, "all invariants stable to relative 1e-9 under 50 x 10 local unitaries") as rec:
        worst = 0.0
        for n_sites, evaluate in ((3, lambda t: q.invariants3(t).values),
                                  (2, lambda t: q.invariants2(t).values)):
            shape = q.SystemShape((2,) * n_sites)
            for state_seed in range(10):
                t = q.expand(q.random_state(shape, seed=40_000 + state_seed))
                base = evaluate(t)
                for unitary_seed in range(50):
                    u = q.haar_local(shape, seed=41_000 + 50 * state_seed + unitary_seed)
                    rot = q.RotationTriple(tuple(q.adjoint_rotation(f) for f in u.factors))
                    moved = evaluate(q.transform_bloch(t, rot))
                    rel = np.max(np.abs(moved - base) / np.maximum(np.abs(base), 1e-300))
                    worst = max(worst, rel)
                    assert rel <= 1e-9
        rec["detail"] = f" (worst relative drift {worst:.1e})"


def _check_canonical3(point):
    g = q.gram(point.tensor)
    for mat in g.mats:
        diag = np.diag(mat)
        assert diag[0] > diag[1] > diag[2]
        off = np.max(np.abs(mat - np.diag(diag)))
        assert off <= 1e-10 * max(np.max(diag), 1e-300)
    for vec in (point.tensor.alpha, point.tensor.beta, point.tensor.gamma):
        signs = {np.sign(v) for v in vec if abs(v) > 1e-12}
        assert len(signs) == 1


def test_criterion_5_canonical_uniqueness():
    with criterion(5, "canonical points agree across 50 conjugated pairs (3 and 2 qubits)") as rec:
        worst3 = worst2 = 0.0
        for seed in range(50):
            t1_state, t2_state = on_orbit_pair((2, 2, 2), 50_000 + seed, 51_000 + seed)
            c1 = q.canonicalize3(q.expand(t1_state))
            c2 = q.canonicalize3(q.expand(t2_state))
            assert c1.report.generic and c2.report.generic
            dev = np.max(np.abs(c1.tensor.flatten() - c2.tensor.flatten()))
            worst3 = max(worst3, dev)
            assert dev <= 1e-8
            _check_canonical3(c1)
        for seed in range(50):
            s1, s2 = on_orbit_pair((2, 2), 52_000 + seed, 53_000 + seed)
            c1 = q.canonicalize2(q.expand(s1))
            c2 = q.canonicalize2(q.expand(s2))
            assert c1.report.generic and c2.report.generic
            dev = np.max(np.abs(c1.tensor.flatten() - c2.tensor.flatten()))
            worst2 = max(worst2, dev)
            assert dev <= 1e-8
            diag = np.abs(np.diag(c1.tensor.pair_12))
            assert diag[0] >= diag[1] >= diag[2]
            off = c1.tensor.pair_12 - np.diag(np.diag(c1.tensor.pair_12))
            assert np.max(np.abs(off)) <= 1e-10
        rec["detail"] = f" (max deviation 3q {worst3:.1e}, 2q {worst2:.1e} <= 1e-8)"


def test_criterion_6_reconstruction_round_trip():
    with criterion(6, "invariants alone rebuild the canonical point on 20 seeds") as rec:
        start = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            point = q.canonicalize3(q.expand(random3(60_000 + seed)))
            inv = q.invariants3(point.tensor)
            rebuilt = reconstruct_canonical(inv)
            dev = np.max(np.abs(rebuilt.tensor.flatten() - point.tensor.flatten()))
            worst = max(worst, dev)
            assert dev <= 1e-5
            # The factor determinants of the inversion must reproduce the
            # degree-9 sign invariants.
            signs = inv.sign_family()
            spectra = tuple(q.spectra_from_traces(inv.trace_family(site)) for site in range(3))
            vectors = tuple(
                q.vector_from_quadratics(inv.quad_family(site), float(signs[site]), spectra[site])
                for site in range(3)
            )
            system = VandermondeSystem(spectra=spectra, vectors=vectors)
            system.verify_determinants()
            system.verify_signs(signs)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        rec["detail"] = f" (max deviation {worst:.1e} <= 1e-5, {elapsed:.1f}s < 10s)"


def test_criterion_7_separation_and_oracle_agreement():
    with criterion(7, "decide separates 200+200 pairs and agrees with the oracle on 50") as rec:
        shape = q.SystemShape((2, 2, 2))
        for seed in range(200):
            rho1, rho2 = on_orbit_pair((2, 2, 2), 70_000 + seed, 71_000 + seed)
            assert q.decide(rho1, rho2).verdict == "equivalent"
        for seed in range(200):
            rho1 = q.random_state(shape, seed=72_000 + seed)
            rho2 = q.random_state(shape, seed=73_000 + seed)
            verdict = q.decide(rho1, rho2)
            assert verdict.verdict == "distinct"
            assert verdict.witness.name
            assert verdict.witness.difference > 0
        misses = 0
        for index in range(50):
            if index % 2 == 0:
                rho1, rho2 = on_orbit_pair((2, 2, 2), 74_000 + index, 75_000 + index)
            else:
                rho1 = q.random_state(shape, seed=76_000 + index)
                rho2 = q.random_state(shape, seed=77_000 + index)
            equivalent = q.decide(rho1, rho2).verdict == "equivalent"
            restarts = 20 if equivalent else 4
            result = q.oracle_search(rho1, rho2, restarts=restarts, seed=index,
                                     stop_residual=5e-7)
            if equivalent and 1e-6 < result.residual < 1e-3:
                # Oracle miss, not a decide error: retry harder.
                misses += 1
                result = q.oracle_search(rho1, rho2, restarts=40, seed=1000 + index,
                                         stop_residual=5e-7)
            assert (result.residual <= 1e-6) == equivalent
        rec["detail"] = f" ({misses} oracle misses retried)"


def test_criterion_8_functional_independence_ranks():
    with criterion(8, "invariant Jacobian ranks are 54 (3 qubits) and 9 (2 qubits)") as rec:
        for seed in range(5):
            t3 = q.expand(random3(80_000 + seed))
            s3 = jacobian_singular_values(t3, lambda t: q.invariants3(t).values, step=1e-5)
            assert gap_rank(s3, gap=1e-4) == 54
            t2 = q.expand(q.random_state(q.SystemShape((2, 2)), seed=81_000 + seed))
            s2 = jacobian_singular_values(
                t2, lambda t: q.invariants2(t).values[:MINIMAL2], step=1e-5
            )
            assert gap_rank(s2, gap=1e-4) == 9
        rec["detail"] = " (rank deficit of the two-qubit ten is exactly one)"


def test_criterion_9_degeneracy_detection():
    with criterion(9, "degenerate inputs are flagged, never silently canonicalized"):
        vec = np.zeros(8)
        vec[0] = vec[7] = 1
        ghz = pure_state(vec, (2, 2, 2))
        point = q.canonicalize3(q.expand(ghz))
        assert point.report.generic is False
        assert point.report.eigengaps[0] <= 1e-12
        spectrum = q.gram(q.expand(ghz)).spectra[0]
        assert np.allclose(spectrum, [1 / 32, 1 / 32, 0.0], atol=1e-14)

        mm = q.maximally_mixed(q.SystemShape((2, 2, 2)))
        assert np.max(np.abs(q.invariants3(q.expand(mm)).values)) == 0.0
        verdict = q.decide(mm, random3(90_000))
        assert verdict.verdict == "distinct"
        assert verdict.witness.name == "spectrum"


def test_criterion_10_purity_identity(tmp_path):
    with criterion(10, "tr(rho^2) = 1/2 + 2|alpha|^2 on 100 qubits, factor 2 documented") as rec:
        worst = 0.0
        for seed in range(100):
            rho = q.random_state(q.SystemShape((2,)), seed=100_000 + seed)
            res = q.invariant1(q.expand(rho))
            gap = abs(res.purity - (0.5 + 2.0 * res.value))
            worst = max(worst, gap)
            assert gap <= 1e-12
        path = tmp_path / "qubit.json"
        q.write_state(q.random_state(q.SystemShape((2,)), seed=100_000), path)
        out, err = io.StringIO(), io.StringIO()
        assert cli_run(["invariants", str(path)], out=out, err=err) == 0
        assert "factor of 2" in out.getvalue()
        rec["detail"] = f" (worst identity gap {worst:.1e} <= 1e-12)"
