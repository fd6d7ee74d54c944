import io
import json

import numpy as np
import pytest

import qorbit as q
from qorbit.cli import run
from qorbit.invariants import NAMES2, NAMES3


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def state_file(tmp_path):
    rho = q.random_state(q.SystemShape((2, 2, 2)), seed=5)
    path = tmp_path / "rho.json"
    q.write_state(rho, path)
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    shape = q.SystemShape((2, 2, 2))
    rho1 = q.random_state(shape, seed=6)
    rho2 = q.apply(q.haar_local(shape, seed=7), rho1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    q.write_state(rho1, p1)
    q.write_state(rho2, p2)
    return str(p1), str(p2)


class TestCount:
    def test_three_qubits(self):
        code, out, _ = invoke("count", "--dims", "2,2,2")
        assert code == 0
        assert out.strip() == "54"

    def test_two_qubits_json(self):
        code, out, _ = invoke("count", "--dims", "2,2", "--json")
        assert code == 0
        assert json.loads(out) == {"dims": [2, 2], "count": 9}

    def test_single_site_notes_formula_scope(self):
        code, out, _ = invoke("count", "--dims", "5")
        assert code == 0
        assert out.splitlines()[0] == "4"
        assert "n >= 2" in out


class TestRandomAndOrbitDim:
    def test_random_writes_valid_state(self, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = invoke("random", "--dims", "2,3", "--seed", "4", "-o", str(path))
        assert code == 0
        assert q.read_state(str(path)).shape.dims == (2, 3)

    def test_random_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        invoke("random", "--dims", "2,2", "--seed", "9", "-o", str(p1))
        invoke("random", "--dims", "2,2", "--seed", "9", "-o", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_orbit_dim_random(self):
        code, out, _ = invoke("orbit-dim", "--random", "--dims", "2,2", "--seed", "7")
        assert code == 0
        assert "orbit dimension: 6" in out
        assert "singular values:" in out

    def test_orbit_dim_state_file(self, state_file):
        code, out, _ = invoke("orbit-dim", "--state", state_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 9
        assert len(payload["singular_values"]) == 9

    def test_orbit_dim_rank_flag(self):
        code, out, _ = invoke(
            "orbit-dim", "--random", "--dims", "2,2", "--seed", "3", "--rank", "1", "--json"
        )
        assert code == 0
        assert json.loads(out)["dimension"] < 6


class TestExpand:
    def test_payload_round_trips(self, state_file):
        code, out, err = invoke("expand", state_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert len(payload["triple"]) == 3
        assert "max |coefficient|" in err

    def test_deterministic_payload(self, state_file):
        _, out1, _ = invoke("expand", state_file, "--json")
        _, out2, _ = invoke("expand", state_file, "--json")
        assert out1 == out2


class TestInvariants:
    def test_full_set_three_qubits(self, state_file):
        code, out, _ = invoke("invariants", state_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert len(payload["names"]) == len(payload["values"]) == 75

    def test_two_qubit_minimal(self, tmp_path):
        rho = q.random_state(q.SystemShape((2, 2)), seed=8)
        path = tmp_path / "two.json"
        q.write_state(rho, path)
        code, out, _ = invoke("invariants", str(path), "--set", "minimal", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["names"]) == 10

    def test_single_qubit_reports_identity_note(self, tmp_path):
        rho = q.random_state(q.SystemShape((2,)), seed=9)
        path = tmp_path / "one.json"
        q.write_state(rho, path)
        code, out, _ = invoke("invariants", str(path))
        assert code == 0
        assert "factor of 2" in out
        assert "tr(rho^2)" in out

    @pytest.mark.parametrize("dims", [(2,), (2, 2, 2)])
    @pytest.mark.parametrize("family", ["minimal", "full"])
    def test_set_is_usage_error_beyond_two_qubits(self, tmp_path, dims, family):
        path = tmp_path / "state.json"
        q.write_state(q.random_state(q.SystemShape(dims), seed=9), path)
        code, out, err = invoke("invariants", str(path), "--set", family)
        assert code == 3
        assert out == "" and f"--set goes with two-qubit states, not n={len(dims)}" in err

    def test_two_qubit_full_set_is_the_default(self, tmp_path):
        path = tmp_path / "two.json"
        q.write_state(q.random_state(q.SystemShape((2, 2)), seed=8), path)
        assert invoke("invariants", str(path), "--set", "full") == invoke("invariants", str(path))


class TestCanonicalAndReconstruct:
    def test_canonical_payload(self, state_file):
        code, out, _ = invoke("canonical", state_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["generic"] is True
        assert len(payload["gauge"]) == 3

    def test_reconstruct_round_trip_via_files(self, state_file, tmp_path):
        _, inv_json, _ = invoke("invariants", state_file, "--json")
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(inv_json)
        code, out, _ = invoke("reconstruct", str(inv_path), "--json")
        assert code == 0
        rebuilt = json.loads(out)
        _, canon_json, _ = invoke("canonical", state_file, "--json")
        canonical = json.loads(canon_json)
        for name in ("alpha", "beta", "gamma", "pair_12", "pair_13", "pair_23", "triple"):
            assert np.max(np.abs(np.array(rebuilt[name]) - np.array(canonical[name]))) <= 1e-5

    def test_reconstruct_traces_beyond_float_range_exit_numerical(self, state_file, tmp_path):
        _, inv_json, _ = invoke("invariants", state_file, "--json")
        payload = json.loads(inv_json)
        payload["values"] = [v * 1e200 for v in payload["values"]]
        path = tmp_path / "scaled-inv.json"
        path.write_text(json.dumps(payload))
        code, out, err = invoke("reconstruct", str(path))
        assert (code, out) == (5, "")
        assert "numerical error: traces" in err and "over- or underflow when scaled" in err

    def test_reconstruct_rejects_degenerate_invariants(self, tmp_path):
        mm = q.maximally_mixed(q.SystemShape((2, 2, 2)))
        payload = q.invariants3(q.expand(mm)).payload()
        path = tmp_path / "mm-inv.json"
        path.write_text(json.dumps(payload))
        code, _, err = invoke("reconstruct", str(path))
        assert code == 5
        assert "numerical error" in err


class TestEquiv:
    def test_same_file_equivalent(self, state_file):
        code, out, _ = invoke("equiv", state_file, state_file)
        assert code == 0
        assert "equivalent" in out

    def test_on_orbit_pair(self, pair_files):
        code, out, _ = invoke("equiv", *pair_files)
        assert code == 0
        assert "verdict: equivalent" in out

    def test_distinct_pair_exit_code(self, tmp_path):
        shape = q.SystemShape((2, 2))
        p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
        q.write_state(q.random_state(shape, seed=10), p1)
        q.write_state(q.random_state(shape, seed=11), p2)
        code, out, _ = invoke("equiv", str(p1), str(p2))
        assert code == 1
        assert "distinct" in out

    def test_invariant_witness_line(self, tmp_path):
        """An isospectral pair (a global unitary apart) is told apart by an invariant."""
        shape = q.SystemShape((2, 2, 2))
        rho = q.random_state(shape, seed=8)
        v, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((8, 8)))
        p1, p2 = tmp_path / "r.json", tmp_path / "s.json"
        q.write_state(rho, p1)
        q.write_state(q.DensityMatrix(shape, v @ rho.matrix @ v.T), p2)
        code, out, _ = invoke("equiv", str(p1), str(p2))
        w = q.decide(q.read_state(p1), q.read_state(p2)).witness
        assert code == 1
        assert w.name in NAMES3
        assert out.splitlines()[:2] == [
            "verdict: distinct",
            f"witness: {w.name} = {w.values[0]:.9g} vs {w.values[1]:.9g} (difference {w.difference:.3e})",
        ]

    def test_inconclusive_exit_code(self, tmp_path, ghz):
        moved = q.apply(q.haar_local(ghz.shape, seed=12), ghz)
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        q.write_state(ghz, p1)
        q.write_state(moved, p2)
        code, out, _ = invoke("equiv", str(p1), str(p2))
        assert code == 2
        assert "inconclusive" in out

    def test_oracle_flag(self, pair_files):
        code, out, _ = invoke("equiv", *pair_files, "--oracle", "--restarts", "12")
        assert code == 0
        assert "oracle residual" in out

    def test_json_separates_payload_from_report(self, pair_files):
        code, out, err = invoke("equiv", *pair_files, "--json")
        assert code == 0
        payload = json.loads(out)  # stdout is pure JSON
        assert payload["verdict"] == "equivalent"
        assert "verdict" in err


class TestErrorPaths:
    def test_unknown_subcommand(self):
        code, _, err = invoke("frobnicate")
        assert code == 3
        assert "usage" in err

    def test_no_subcommand(self):
        code, _, err = invoke()
        assert code == 3

    def test_missing_file(self):
        code, _, err = invoke("expand", "/nonexistent/state.json")
        assert code == 3
        assert "parse error" in err

    def test_invalid_state_exits_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "matrix": [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]]}')
        code, _, err = invoke("expand", str(path))
        assert code == 4
        assert "validation error" in err

    def test_non_finite_state_entry_is_parse_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
        code, out, err = invoke("invariants", str(path))
        assert code == 3
        assert out == ""
        assert "parse error" in err and "NaN" in err

    def test_overflowing_state_entry_is_parse_error(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text('{"dims": [2], "matrix": [[[1e999, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
        code, out, err = invoke("invariants", str(path))
        assert code == 3
        assert out == ""
        assert "parse error" in err and "1e999" in err

    @pytest.mark.parametrize("token, message", [
        ("NaN", "NaN"),
        ("1e999", "non-finite"),  # overflows to infinity when parsed
        ('"x"', "not a numeric array"),
    ])
    def test_bad_invariant_value_is_parse_error(self, tmp_path, token, message):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=15)
        payload = q.invariants3(q.expand(rho)).payload()
        payload["values"][20] = 1234.5
        path = tmp_path / "bad-inv.json"
        path.write_text(json.dumps(payload).replace("1234.5", token))
        code, out, err = invoke("reconstruct", str(path), "--json")
        assert code == 3
        assert out == ""
        assert "parse error" in err and message in err

    @pytest.mark.parametrize("literal, message", [
        ("1" + "0" * 400, "row 0, column 0: number out of float range"),
        ("1" * 5000, "too many digits"),
    ], ids=["beyond-float-range", "beyond-digit-limit"])
    def test_huge_integer_state_entry_is_parse_error(self, tmp_path, literal, message):
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [2], "matrix": [[[%s, 0], [0, 0]], [[0, 0], [0.5, 0]]]}' % literal)
        for command in ("invariants", "expand", "canonical"):
            code, out, err = invoke(command, str(path))
            assert code == 3
            assert out == ""
            assert "parse error" in err and message in err

    @pytest.mark.parametrize("literal, message", [
        ("1" + "0" * 400, "out of float range"),
        ("1" * 5000, "too many digits"),
    ], ids=["beyond-float-range", "beyond-digit-limit"])
    def test_huge_integer_invariant_value_is_parse_error(self, tmp_path, literal, message):
        rho = q.random_state(q.SystemShape((2, 2, 2)), seed=15)
        payload = q.invariants3(q.expand(rho)).payload()
        payload["values"][20] = 1234.5
        path = tmp_path / "huge-inv.json"
        path.write_text(json.dumps(payload).replace("1234.5", literal))
        code, out, err = invoke("reconstruct", str(path), "--json")
        assert code == 3
        assert out == ""
        assert "parse error" in err and message in err

    def test_boolean_dims_is_parse_error(self, tmp_path):
        path = tmp_path / "bool-dims.json"
        path.write_text('{"dims": [true], "matrix": [[[1, 0]]]}')
        code, out, err = invoke("invariants", str(path))
        assert code == 3
        assert out == ""
        assert "parse error" in err and "dims" in err

    def test_boolean_n_in_invariant_file_is_parse_error(self, tmp_path):
        rho = q.random_state(q.SystemShape((2,)), seed=16)
        path = tmp_path / "bool-n.json"
        q.write_state(rho, tmp_path / "state.json")
        code, out, _ = invoke("invariants", str(tmp_path / "state.json"), "--json")
        assert code == 0
        path.write_text(out.replace('"n": 1', '"n": true'))
        code, out, err = invoke("reconstruct", str(path), "--json")
        assert code == 3
        assert out == ""
        assert "parse error" in err and "field 'n'" in err

    def test_float_n_in_invariant_file_is_parse_error(self, tmp_path):
        q.write_state(q.random_state(q.SystemShape((2, 2, 2)), seed=16), tmp_path / "state.json")
        code, out, _ = invoke("invariants", str(tmp_path / "state.json"), "--json")
        assert code == 0
        path = tmp_path / "float-n.json"
        path.write_text(out.replace('"n": 3', '"n": 3.0'))
        code, out, err = invoke("reconstruct", str(path), "--json")
        assert code == 3
        assert out == ""
        assert "parse error" in err and "field 'n'" in err

    def test_qudit_expand_unsupported(self, tmp_path):
        path = tmp_path / "qudit.json"
        q.write_state(q.random_state(q.SystemShape((2, 3)), seed=13), path)
        code, _, err = invoke("expand", str(path))
        assert code == 4

    def test_bad_dims_argument(self):
        code, _, err = invoke("count", "--dims", "2,banana")
        assert code == 3

    def test_orbit_dim_oversized_shape_refused_before_drawing(self):
        code, out, err = invoke("orbit-dim", "--random", "--dims", ",".join(["2"] * 12))
        assert code == 4
        assert out == ""
        assert "validation error" in err and "tangent frame" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "tight"])
    def test_bad_tol_is_usage_error(self, tol, pair_files):
        for argv in (("orbit-dim", "--random", "--dims", "2,2"), ("equiv", *pair_files)):
            code, out, err = invoke(*argv, f"--tol={tol}")
            assert code == 3
            assert out == ""
            assert "--tol expects a finite number >= 0" in err

    def test_rank_tol_at_one_exits_validation(self):
        code, out, err = invoke("orbit-dim", "--random", "--dims", "2,2", "--tol", "1")
        assert code == 4
        assert out == ""
        assert "rank tolerance" in err

    @pytest.mark.parametrize("restarts", ["0", "-2", "two"])
    def test_restarts_below_one_is_usage_error(self, restarts, pair_files):
        code, out, err = invoke("equiv", *pair_files, "--oracle", f"--restarts={restarts}")
        assert code == 3
        assert out == ""
        assert "--restarts expects an integer >= 1" in err

    def test_orbit_dim_random_requires_dims(self):
        code, _, err = invoke("orbit-dim", "--random")
        assert code == 3
        assert "--dims" in err

    def test_bad_rank_exits_validation(self):
        code, _, err = invoke("orbit-dim", "--random", "--dims", "2,2", "--rank", "9")
        assert code == 4

    def test_reconstruct_rejects_two_qubit_file(self, tmp_path):
        rho = q.random_state(q.SystemShape((2, 2)), seed=14)
        payload = q.invariants2(q.expand(rho)).payload()
        path = tmp_path / "two-inv.json"
        path.write_text(json.dumps(payload))
        code, _, err = invoke("reconstruct", str(path))
        assert code == 4

    def test_help_exits_zero(self):
        code, _, _ = invoke("--help")
        assert code == 0


class TestSharedParser:
    def test_help_goes_to_out(self, capsys):
        code, out, err = invoke("--help")
        assert code == 0
        assert out.startswith("usage: qorbit") and "orbit-dim" in out
        assert err == ""
        code, out, _ = invoke("count", "--help")
        assert code == 0
        assert out.startswith("usage: qorbit count") and "--dims" in out
        assert capsys.readouterr().out == ""

    def test_parser_is_built_once(self):
        from qorbit import cli
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert invoke("count", "--dims", "2,2")[0] == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_option_does_not_carry_to_next_call(self, tmp_path):
        path = tmp_path / "two.json"
        q.write_state(q.random_state(q.SystemShape((2, 2)), seed=12), path)
        code, out, _ = invoke("invariants", str(path), "--set", "minimal", "--json")
        assert code == 0
        assert len(json.loads(out)["values"]) == 10
        code, out, _ = invoke("invariants", str(path), "--json")
        assert code == 0
        assert json.loads(out)["names"] == list(NAMES2)

    def test_usage_error_then_valid_call(self):
        code, out, err = invoke("count", "--dims", "2,banana")
        assert code == 3
        assert out == "" and "error:" in err
        code, out, err = invoke("count", "--dims", "2,2,2")
        assert code == 0
        assert out.strip() == "54" and err == ""

    def test_exclusive_group_resets_between_calls(self, state_file):
        code, out, _ = invoke("orbit-dim", "--state", state_file)
        assert code == 0
        assert out.startswith("orbit dimension: 9")
        code, out, _ = invoke("orbit-dim", "--random", "--dims", "2,2")
        assert code == 0
        assert out.startswith("orbit dimension: 6")


class TestOptionsWhereRead:
    """--tol and --seed exist only on the subcommands that read them."""

    @pytest.fixture
    def argvs(self, state_file, tmp_path):
        _, inv_json, _ = invoke("invariants", state_file, "--json")
        inv = tmp_path / "inv.json"
        inv.write_text(inv_json)
        return {
            "expand": ("expand", state_file),
            "invariants": ("invariants", state_file),
            "canonical": ("canonical", state_file),
            "reconstruct": ("reconstruct", str(inv)),
            "count": ("count", "--dims", "2,2"),
            "random": ("random", "--dims", "2,2", "-o", str(tmp_path / "r.json")),
        }

    @pytest.mark.parametrize("command", [
        "expand", "invariants", "canonical", "reconstruct", "count", "random",
    ])
    def test_tol_is_usage_error(self, argvs, command):
        code, out, err = invoke(*argvs[command], "--tol", "5")
        assert code == 3
        assert out == "" and "unrecognized arguments: --tol 5" in err

    @pytest.mark.parametrize(
        "command", ["expand", "invariants", "canonical", "reconstruct", "count"]
    )
    def test_seed_is_usage_error(self, argvs, command):
        code, out, err = invoke(*argvs[command], "--seed", "9")
        assert code == 3
        assert out == "" and "unrecognized arguments: --seed 9" in err

    @pytest.mark.parametrize("extra", [("--dims", "2,2,2"), ("--rank", "1")])
    def test_orbit_dim_state_refuses_random_options(self, state_file, extra):
        code, out, err = invoke("orbit-dim", "--state", state_file, *extra)
        assert code == 3
        assert out == "" and "--dims and --rank go with --random" in err

    @pytest.mark.parametrize("seed", ["5", "0"])
    def test_orbit_dim_state_refuses_seed(self, state_file, seed):
        code, out, err = invoke("orbit-dim", "--state", state_file, "--seed", seed)
        assert code == 3
        assert out == "" and "--seed goes with --random" in err

    def test_seed_defaults_to_zero(self, tmp_path):
        orbit = ("orbit-dim", "--random", "--dims", "2,2", "--rank", "2", "--json")
        assert invoke(*orbit) == invoke(*orbit, "--seed", "0")
        code, out, _ = invoke("random", "--dims", "2,2", "-o", str(tmp_path / "r.json"), "--json")
        assert code == 0 and json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("seed", ["-1", "-3", "2.5", "x", ""])
    def test_bad_seed_is_usage_error(self, state_file, tmp_path, seed):
        argvs = [
            ("equiv", state_file, state_file, "--oracle"),
            ("random", "--dims", "2,2", "-o", str(tmp_path / "r.json")),
            ("orbit-dim", "--random", "--dims", "2,2"),
        ]
        for argv in argvs:
            for option in (("--seed", seed), (f"--seed={seed}",)):
                code, out, err = invoke(*argv, *option)
                assert code == 3, (argv, option)
                assert out == "" and "--seed expects an integer >= 0" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("extra", [("--seed", "0"), ("--seed", "4"), ("--restarts", "5"),
                                       ("--seed", "1", "--restarts", "2")])
    def test_equiv_oracle_options_need_oracle(self, pair_files, extra):
        code, out, err = invoke("equiv", *pair_files, *extra)
        assert code == 3
        assert out == "" and "--seed and --restarts go with --oracle" in err

    def test_equiv_oracle_seed_defaults_to_zero(self, tmp_path):
        shape = q.SystemShape((2, 2))
        rho = q.random_state(shape, seed=6)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        q.write_state(rho, p1)
        q.write_state(q.apply(q.haar_local(shape, seed=7), rho), p2)
        equiv = ("equiv", str(p1), str(p2), "--oracle", "--restarts", "2", "--json")
        default = invoke(*equiv)
        assert default[0] == 0 and "oracle" in json.loads(default[1])
        assert default == invoke(*equiv, "--seed", "0")

    def test_options_still_read_where_used(self, pair_files, tmp_path):
        out = str(tmp_path / "r.json")
        assert invoke("equiv", *pair_files, "--tol", "1e-6", "--oracle", "--restarts", "1", "--seed", "2")[0] == 0
        assert invoke("orbit-dim", "--random", "--dims", "2,2", "--tol", "1e-6", "--seed", "2")[0] == 0
        assert invoke("random", "--dims", "2,2", "--seed", "2", "-o", out)[0] == 0
