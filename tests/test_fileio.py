import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qorbit as q
from qorbit import fileio
from qorbit.errors import ParseError


def reference_dumps(obj, indent: int = 0) -> str:
    """The element-at-a-time emitter the array fast paths must match byte for byte."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return fileio._fmt_number(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, dict):
        inner = "  " * (indent + 1)
        items = [
            f"{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def reference_pairs(matrix) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1 / 3, 2.0**-1074]


class TestDumps:
    @pytest.mark.parametrize("obj", [
        EDGE_FLOATS,
        [1e308, 1e308],  # finite values whose sum overflows
        [2**70, -2**64, 0, 1, True, False],
        [1.5, 2, None, "x", True],
        {"values": EDGE_FLOATS, "names": ["a", "bé", 'q"uote'], "n": 3},
        {"nested": [[EDGE_FLOATS[:3], [1e308]], []], "empty": {}, "t": (0.5, -0.0)},
        np.array([[-0.0, 5e-324], [1e308, 2.5]]),
        [np.float64(0.1), np.float64(-0.0)],
        ["only", "strings"],
        [],
    ])
    def test_matches_reference(self, obj):
        assert fileio.dumps(obj) == reference_dumps(obj)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=40,
    ))
    def test_matches_reference_on_random_payloads(self, obj):
        assert fileio.dumps(obj) == reference_dumps(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_flat_float_list_refuses_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps([0.5, 1e308, bad, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps({"values": [bad]})


class TestPairs:
    def test_complex_to_pairs_matches_reference(self):
        m = q.random_state(q.SystemShape((2, 2, 2)), seed=3).matrix.copy()
        m[0, 1] = complex(-0.0, 5e-324)
        m[1, 0] = complex(1e308, -0.0)
        assert fileio.dumps(fileio.complex_to_pairs(m)) == reference_dumps(reference_pairs(m))
        assert fileio.complex_to_pairs(np.eye(2, dtype=int)) == reference_pairs(np.eye(2, dtype=int))

    def test_decode_is_exact(self):
        rows = [[[-0.0, -0.0], [1e308, -5e-324]], [[5e-324, 1e308], [0.25, 1 / 3]]]
        m = fileio.pairs_to_complex(rows)
        expected = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert m.dtype == complex
        assert m.tobytes() == expected.tobytes()  # signed zeros included
        assert np.signbit(m.real[0, 0]) and np.signbit(m.imag[0, 0])

    def test_round_trip_is_exact(self):
        m = q.random_state(q.SystemShape((2, 3)), seed=4).matrix
        back = fileio.pairs_to_complex(fileio.loads(fileio.dumps(fileio.complex_to_pairs(m))))
        assert back.tobytes() == m.tobytes()

    def test_int_and_bool_cells_accepted(self):
        m = fileio.pairs_to_complex([[[1, 0], [True, False]], [[0, 2], [False, True]]])
        assert np.array_equal(m, np.array([[1, 1], [2j, 1j]]))
        m = fileio.pairs_to_complex([[[1, 2**70]]])
        assert m[0, 0] == complex(1, 2**70)

    @pytest.mark.parametrize("rows, message", [
        ([[["1.0", 0.0]]], "field 'm', row 0, column 0: expected [re, im]"),
        ([[[0.5, 0.0], [0.0, "0"]]], "field 'm', row 0, column 1: expected [re, im]"),
        ([[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]], "field 'm', row 1: ragged row"),
        ([[[0.5, 0.0]], 3], "field 'm', row 1: ragged row"),
        ([[[0.5, 0.0, 0.0]]], "field 'm', row 0, column 0: expected [re, im]"),
        ([[[0.5], [0.0, 0.0]]], "field 'm', row 0, column 0: expected [re, im]"),
        ([[[0.5, [0.0]]]], "field 'm', row 0, column 0: expected [re, im]"),
        ([[[None, 0.0]]], "field 'm', row 0, column 0: expected [re, im]"),
        ([[(0.5, 0.0)]], "field 'm', row 0, column 0: expected [re, im]"),
        ([], "field 'm' must be a non-empty array of rows"),
    ])
    def test_malformed_rows_refused_with_location(self, rows, message):
        with pytest.raises(ParseError) as info:
            fileio.pairs_to_complex(rows, field="m")
        assert str(info.value) == message


class TestHugeIntegers:
    BIG = 10**400  # beyond float range, inside int()'s digit limit

    def test_cell_beyond_float_range_refused_with_location(self):
        with pytest.raises(ParseError) as info:
            fileio.pairs_to_complex([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [self.BIG, 0.0]]], field="m")
        assert str(info.value) == "field 'm', row 1, column 1: number out of float range"

    def test_real_array_beyond_float_range_refused(self):
        with pytest.raises(ParseError, match="field 'values' has a number out of float range"):
            fileio.real_array([1.0, self.BIG], (2,), "values")

    def test_literal_beyond_digit_limit_refused(self):
        with pytest.raises(ParseError, match="too many digits"):
            fileio.loads("[" + "1" * 5000 + "]")

    def test_large_literals_in_range_still_parse(self):
        assert fileio.loads("[" + "9" * 300 + "]") == [int("9" * 300)]
        assert fileio.real_array([10**300], (1,), "values")[0] == 1e300
