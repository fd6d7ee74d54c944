"""Deterministic JSON serialization used by all file formats.

Floats are written with 17 significant digits so a write/read round trip
reproduces every value exactly. The emitter is hand-rolled because the
stdlib encoder offers no control over float formatting; output bytes are a
pure function of the payload.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import ParseError


def _fmt_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        if types == {float}:
            if not all(map(math.isfinite, obj)):
                for v in obj:
                    _fmt_number(v)  # raises on the first non-finite value
            return "[" + ", ".join([format(v, ".17g") for v in obj]) + "]"
        if types == {str}:
            return json.dumps(obj)
        return "[" + ", ".join(dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, dict):
        inner = "  " * (indent + 1)
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token} is not allowed")


def _parse_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"number {token} overflows to a non-finite value")
    return value


def loads(text: str):
    """Parse JSON text; like the writer, refuse NaN, Infinity and overflowing numbers."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_parse_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer literal beyond int()'s digit limit
        raise ParseError("integer literal has too many digits to parse") from None


def write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def qubit_count(payload, kind: str) -> int:
    """The 'n' field, 1, 2 or 3, of a file payload that must be one object; kind names the file."""
    if not isinstance(payload, dict):
        raise ParseError(f"{kind} file must contain a single object")
    n = payload.get("n")
    if type(n) is not int or n not in (1, 2, 3):
        raise ParseError("field 'n' must be 1, 2, or 3")
    return n


def complex_to_pairs(matrix: np.ndarray) -> list:
    """Encode a complex matrix as nested [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def pairs_to_complex(rows, field: str = "matrix") -> np.ndarray:
    """Decode nested [re, im] pairs back into a complex matrix."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"field '{field}' must be a non-empty array of rows")
    if set(map(type, rows)) == {list} and set(map(type, chain.from_iterable(rows))) == {list}:
        try:
            a = np.array(rows)
        except ValueError:  # ragged
            a = None
        # well-formed: a rectangular grid of [re, im] list cells holding bools, ints or
        # floats; anything else (tuples, strings, nulls, huge ints) takes the walk below
        if a is not None and a.ndim == 3 and a.shape[2] == 2 and a.dtype.kind in "bif":
            out = np.empty(a.shape[:2], dtype=complex)
            out.real = a[..., 0]
            out.imag = a[..., 1]
            return out
    # malformed input: walk the cells to name the first bad one
    out = np.empty((len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows[0]):
            raise ParseError(f"field '{field}', row {i}: ragged row")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(v, (int, float)) for v in cell)
            ):
                raise ParseError(f"field '{field}', row {i}, column {j}: expected [re, im]")
            try:
                out[i, j] = complex(cell[0], cell[1])
            except OverflowError:
                raise ParseError(f"field '{field}', row {i}, column {j}: number out of float range") from None
    return out


def real_array(data, shape: tuple, field: str) -> np.ndarray:
    """Decode a nested list into a float array with a mandatory shape."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"field '{field}' is not a numeric array") from None
    except OverflowError:
        raise ParseError(f"field '{field}' has a number out of float range") from None
    if arr.shape != shape:
        raise ParseError(f"field '{field}' has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field '{field}' has a non-finite entry")
    return arr
