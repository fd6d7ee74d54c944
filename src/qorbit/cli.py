"""Command-line surface: one subcommand per pipeline, reproducible seeds.

Exit codes: 0 success (and "equivalent" for equiv), 1 distinct,
2 inconclusive, 3 usage/parse errors, 4 validation errors, 5 numerical
errors. With --json the machine payload goes to stdout and the human
report moves to stderr, so payloads can be piped or redirected cleanly.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import fileio
from .bloch import bloch_payload, expand
from .canonical import canonical_payload, canonicalize
from .equivalence import decide, oracle_search
from .errors import (
    NumericalError,
    ParseError,
    ShapeMismatch,
    ToolkitError,
    UnsupportedShape,
    ValidationError,
)
from .invariants import InvariantSet3, fingerprint, invariant1, invariant_payload_to_values
from .orbit_dim import _check_frame_size, invariant_count_formula, orbit_dimension
from .reconstruction import reconstruct_canonical
from .states import SystemShape, random_state, read_state, write_state
from .tolerances import COMPARE_RTOL, ORACLE_STOP_RESIDUAL, RANK_RTOL

EXIT_OK = 0
EXIT_DISTINCT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5


class _UsageError(Exception):
    pass


class _Help(Exception):
    """Carries help text out of argparse so ``run`` can print it to ``out``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _dims_arg(text: str) -> SystemShape:
    try:
        dims = tuple(int(part) for part in text.split(","))
        return SystemShape(dims)
    except (ValueError, ShapeMismatch):
        raise argparse.ArgumentTypeError(
            f"--dims expects comma-separated integers >= 2, got {text!r}"
        ) from None


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
        if math.isfinite(tol) and tol >= 0.0:
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"--tol expects a finite number >= 0, got {text!r}")


def _int_arg(option: str, low: int):
    """An argparse type taking an integer >= ``low``; its error names ``option``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{option} expects an integer >= {low}, got {text!r}")
    return parse


@functools.cache
def build_parser() -> _Parser:
    """The ``qorbit`` parser, built on first use and shared by every ``run`` call."""
    # Each option goes only to the subcommands that read it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="write the machine payload to stdout, report to stderr")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tol_arg, default=None,
                     help="override the comparison tolerance (equiv: relative to the pair's "
                          "coefficient norm) or the rank tolerance (orbit-dim)")

    parser = _Parser(prog="qorbit",
                     description="local-unitary orbit toolkit for multi-particle density matrices")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("expand", parents=[common],
                       help="expand a 1-3 qubit state in the Pauli basis")
    p.add_argument("state", help="state file")

    p = sub.add_parser("invariants", parents=[common],
                       help="polynomial invariant fingerprint of a state")
    p.add_argument("state", help="state file")
    p.add_argument("--set", choices=("minimal", "full"), default=None,
                   help="two-qubit family: the minimal ten or all members (default full)")

    p = sub.add_parser("canonical", parents=[common],
                       help="canonical point of a 2- or 3-qubit orbit")
    p.add_argument("state", help="state file")

    p = sub.add_parser("reconstruct", parents=[common],
                       help="rebuild the canonical point from a 3-qubit invariant file")
    p.add_argument("invariants", help="invariant file")

    p = sub.add_parser("equiv", parents=[common, tol],
                       help="decide local-unitary equivalence of two states")
    p.add_argument("--seed", type=_int_arg("--seed", 0), default=None, help="oracle seed (default 0)")
    p.add_argument("state1")
    p.add_argument("state2")
    p.add_argument("--oracle", action="store_true",
                   help="also run the optimization oracle")
    p.add_argument("--restarts", type=_int_arg("--restarts", 1), default=None,
                   help="oracle restarts (default 20)")

    p = sub.add_parser("orbit-dim", parents=[common, tol],
                       help="orbit dimension from the tangent frame")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="state file")
    group.add_argument("--random", action="store_true", help="use a seeded random state")
    p.add_argument("--dims", type=_dims_arg, help="system shape, e.g. 2,2,2")
    p.add_argument("--rank", type=int, default=None, help="rank of the random state")
    p.add_argument("--seed", type=_int_arg("--seed", 0), default=None, help="random seed (default 0)")

    p = sub.add_parser("count", parents=[common],
                       help="closed-form count of non-local parameters")
    p.add_argument("--dims", type=_dims_arg, required=True, help="system shape, e.g. 2,2,2")

    p = sub.add_parser("random", parents=[common], help="write a seeded random state")
    p.add_argument("--seed", type=_int_arg("--seed", 0), default=0, help="random seed")
    p.add_argument("--dims", type=_dims_arg, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("-o", "--output", required=True, help="output state file")

    return parser


def _emit(args, out, err, lines: list[str], payload) -> None:
    if getattr(args, "json", False) and payload is not None:
        print(fileio.dumps(payload), file=out)
        for line in lines:
            print(line, file=err)
    else:
        for line in lines:
            print(line, file=out)


def _cmd_expand(args, out, err) -> int:
    tensor = expand(read_state(args.state))
    lines = [f"expanded {tensor.n}-qubit state; max |coefficient| = {tensor.max_abs():.6g}"]
    _emit(args, out, err, lines, bloch_payload(tensor))
    return EXIT_OK


def _cmd_invariants(args, out, err) -> int:
    tensor = expand(read_state(args.state))
    if args.set is not None and tensor.n != 2:
        raise _UsageError(f"--set goes with two-qubit states, not n={tensor.n}")
    if tensor.n == 1:
        res = invariant1(tensor)
        payload = res.payload()
        lines = [
            f"I = |alpha|^2 = {res.value:.17g}",
            f"tr(rho^2) = {res.purity:.17g}",
            res.IDENTITY_NOTE,
        ]
    else:
        inv = fingerprint(tensor)
        payload = inv.payload(minimal=True) if args.set == "minimal" else inv.payload()
        lines = [f"{name} = {value:.17g}"
                 for name, value in zip(payload["names"], payload["values"])]
    _emit(args, out, err, lines, payload)
    return EXIT_OK


def _report_lines(report) -> list[str]:
    return [
        f"generic: {report.generic}",
        f"eigengaps: {[None if g is None else float(g) for g in report.eigengaps]}",
        f"min components: {[None if m is None else float(m) for m in report.min_components]}",
        f"sign invariants: {[None if s is None else float(s) for s in report.sign_invariants]}",
    ]


def _cmd_canonical(args, out, err) -> int:
    point = canonicalize(expand(read_state(args.state)))
    _emit(args, out, err, _report_lines(point.report), canonical_payload(point))
    return EXIT_OK


def _cmd_reconstruct(args, out, err) -> int:
    n, values = invariant_payload_to_values(fileio.read(args.invariants))
    if n != 3:
        raise UnsupportedShape("reconstruction needs the 75-member 3-qubit invariant file")
    point = reconstruct_canonical(InvariantSet3(values))
    _emit(args, out, err, _report_lines(point.report), canonical_payload(point))
    return EXIT_OK


def _cmd_equiv(args, out, err) -> int:
    if not args.oracle and (args.seed is not None or args.restarts is not None):
        raise _UsageError("--seed and --restarts go with --oracle")
    rho1 = read_state(args.state1)
    rho2 = read_state(args.state2)
    verdict = decide(rho1, rho2, rtol=args.tol if args.tol is not None else COMPARE_RTOL)
    payload = verdict.payload()
    lines = [f"verdict: {verdict.verdict}"]
    w = verdict.witness
    if w.values is not None:
        lines.append(f"witness: {w.name} = {w.values[0]:.9g} vs {w.values[1]:.9g} "
                     f"(difference {w.difference:.3e})")
    else:
        lines.append(f"witness: {w.name} (difference {w.difference:.3e})")
    if args.oracle:
        oracle = oracle_search(rho1, rho2, restarts=args.restarts or 20, seed=args.seed or 0,
                               stop_residual=ORACLE_STOP_RESIDUAL)
        payload["oracle"] = {
            "residual": oracle.residual,
            "spectral_lower_bound": oracle.spectral_lower_bound,
            "restarts_used": oracle.restarts_used,
        }
        lines.append(f"oracle residual: {oracle.residual:.3e} "
                     f"(spectral lower bound {oracle.spectral_lower_bound:.3e}, "
                     f"{oracle.restarts_used} restarts)")
    _emit(args, out, err, lines, payload)
    return {"equivalent": EXIT_OK, "distinct": EXIT_DISTINCT}.get(
        verdict.verdict, EXIT_INCONCLUSIVE
    )


def _cmd_orbit_dim(args, out, err) -> int:
    if args.state:
        if args.dims is not None or args.rank is not None:
            raise _UsageError("--dims and --rank go with --random, not --state")
        if args.seed is not None:
            raise _UsageError("--seed goes with --random, not --state")
        rho = read_state(args.state)
    else:
        if args.dims is None:
            raise _UsageError("--random requires --dims")
        _check_frame_size(args.dims)  # refuse before drawing a state too large to rank
        rho = random_state(args.dims, rank=args.rank, seed=args.seed or 0)
    tol = args.tol if args.tol is not None else RANK_RTOL
    result = orbit_dimension(rho, tol=tol)
    payload = {
        "dims": list(rho.shape.dims),
        "dimension": result.dimension,
        "singular_values": result.singular_values.tolist(),
    }
    lines = [
        f"orbit dimension: {result.dimension}",
        "singular values: " + " ".join(f"{s:.6e}" for s in result.singular_values),
    ]
    _emit(args, out, err, lines, payload)
    return EXIT_OK


def _cmd_count(args, out, err) -> int:
    count = invariant_count_formula(args.dims)
    payload = {"dims": list(args.dims.dims), "count": count}
    lines = [str(count)]
    if args.dims.n == 1:
        lines.append("note: single-site count d - 1 (independent eigenvalues); "
                     "the product formula applies to n >= 2")
    _emit(args, out, err, lines, payload)
    return EXIT_OK


def _cmd_random(args, out, err) -> int:
    rho = random_state(args.dims, rank=args.rank, seed=args.seed)
    write_state(rho, args.output)
    payload = {
        "path": args.output,
        "dims": list(args.dims.dims),
        "rank": args.rank if args.rank is not None else args.dims.total_dim,
        "seed": args.seed,
    }
    _emit(args, out, err, [f"wrote {args.dims} state (seed {args.seed}) to {args.output}"], payload)
    return EXIT_OK


_HANDLERS = {
    "expand": _cmd_expand,
    "invariants": _cmd_invariants,
    "canonical": _cmd_canonical,
    "reconstruct": _cmd_reconstruct,
    "equiv": _cmd_equiv,
    "orbit-dim": _cmd_orbit_dim,
    "count": _cmd_count,
    "random": _cmd_random,
}


def run(argv, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        print(parser.format_usage().rstrip(), file=err)
        return EXIT_USAGE
    except _Help as exc:
        out.write(exc.args[0])
        return EXIT_OK
    if args.command is None:
        print(parser.format_usage().rstrip(), file=err)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, out, err)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_USAGE
    except (ValidationError, ShapeMismatch, UnsupportedShape) as exc:
        print(f"validation error: {exc}", file=err)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=err)
        return EXIT_NUMERICAL
    except ToolkitError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
