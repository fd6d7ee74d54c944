"""The four workloads: one op each, and the check of each op's output.

An op calls the public ``qorbit`` API (or ``qorbit.cli.run``) on raw
inputs from the corpus. Attributes are looked up on the modules at call
time, so the tracer's wrappers see every call. ``check`` returns an
``Outcome``: ``ok`` is the workload's pass condition (it feeds
``failed_share`` and the throughput of correct ops); ``wrong`` marks an
output that contradicts the ground truth where the program claims to be
right, and makes the whole run incorrect. An honest refusal, such as
``inconclusive``, a reconstruction error exit or an oracle miss, fails the
op without being wrong.
"""

from __future__ import annotations

import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import qorbit
import qorbit.cli

from checks import ORACLE_RESIDUAL, round_trip_holds


@dataclass
class Outcome:
    ok: bool
    wrong: bool
    key: str                      # row of the per-kind verdict table
    checks: tuple[str, ...]       # names of the checks that ran
    info: dict = field(default_factory=dict)


def route_of(witness_name: str) -> str:
    if witness_name in ("identical", "spectrum", "canonical"):
        return witness_name
    if witness_name == "non-generic":
        return "non_generic"
    return "invariant"


def _shape(n: int):
    return qorbit.SystemShape((2,) * n)


class Workload:
    """Defaults; ``chunk`` is how many ops a traced run alternates at a time."""

    chunk = 1

    def __init__(self, corpus: dict, workdir: str):
        self.items = corpus["items"]
        self.first = corpus["first"]
        self.second = corpus.get("second")
        self.workdir = workdir

    def inputs(self) -> list[dict]:
        """The inputs ops run on; those marked ``probe`` are checked, not timed."""
        return self.items

    def cold_start(self, timed: list[int]) -> int:
        """The input of the cold op."""
        return timed[0]

    def observe(self, i: int, out) -> None:
        """Take workload figures from the output of an untraced warm op."""

    def extras(self) -> dict:
        """Workload figures for the result file."""
        return {}


class DecideMix(Workload):
    """Build two DensityMatrix from raw matrices, then ``decide``."""

    name = "decide-mix"
    chunk = 50

    def op(self, i: int):
        shape = _shape(self.items[i]["n"])
        return qorbit.decide(qorbit.DensityMatrix(shape, self.first[i]),
                             qorbit.DensityMatrix(shape, self.second[i]))

    def check(self, i: int, verdict) -> Outcome:
        item = self.items[i]
        kind = item["kind"]
        v = verdict.verdict
        checks = []
        if kind in ("on_orbit", "depolarized", "identical"):
            checks.append("equivalent_pair_not_distinct")
            ok = v != "distinct"
        else:
            checks.append("inequivalent_pair_not_equivalent")
            ok = v != "equivalent"
        wrong = not ok
        if kind == "random" and item["spectra_differ"]:
            checks.append("different_spectra_distinct")
            ok = ok and v == "distinct"
        rank = "full" if item["rank"] == 2 ** item["n"] else "low"
        route = route_of(verdict.witness.name)
        return Outcome(ok, wrong, f"{kind}/{item['n']}q/{rank}: {v} via {route}", tuple(checks),
                       {"verdict": v, "route": route})


class Numerics(Workload):
    """The two numerical checks beside the invariant pipeline.

    The timed inputs are the shapes up to 8 qubits, one ``orbit_dimension``
    call each (4 ms to 0.3 s). The rest are probes, checked once per run
    and not timed: the 9-qubit shape, which sets the memory peak, and one
    ``oracle_search`` per oracle pair with criterion 7's settings (misses
    are not retried). A 9-qubit call takes about 2 s and an oracle pair
    0.2 to 1 s; over the few repeats a run can afford, the fastest of them
    does not filter out a host slowdown that lasts seconds.
    """

    name = "numerics"

    def __init__(self, corpus: dict, workdir: str):
        super().__init__(corpus, workdir)
        shapes = [k for k, it in enumerate(self.items) if "dims" in it]
        self.shape_ns: dict[str, list[int]] = {label(self.items[k]["dims"]): [] for k in shapes}
        self.units = [{"shapes": [k], "probe": self.items[k]["probe"]} for k in shapes]
        self.units += [{"pair": k, "probe": True} for k, it in enumerate(self.items) if "kind" in it]

    def inputs(self) -> list[dict]:
        return self.units

    def op(self, u: int):
        unit = self.units[u]
        if "pair" in unit:
            return self.oracle(unit["pair"])
        dims_out, times = [], []
        for k in unit["shapes"]:
            start = time.perf_counter_ns()
            rho = qorbit.DensityMatrix(qorbit.SystemShape(tuple(self.items[k]["dims"])), self.first[k])
            dims_out.append(qorbit.orbit_dimension(rho).dimension)
            times.append(time.perf_counter_ns() - start)
        return dims_out, times

    def oracle(self, k: int):
        item = self.items[k]
        shape = _shape(item["n"])
        return qorbit.oracle_search(qorbit.DensityMatrix(shape, self.first[k]),
                                    qorbit.DensityMatrix(shape, self.second[k]),
                                    restarts=item["restarts"], seed=k, stop_residual=5e-7)

    def check(self, u: int, out) -> Outcome:
        unit = self.units[u]
        if "pair" in unit:
            return self.check_oracle(unit["pair"], out)
        shapes = [self.items[k] for k in unit["shapes"]]
        bad = [label(it["dims"]) for it, got in zip(shapes, out[0]) if got != it["expected"]]
        ok = not bad
        return Outcome(ok, not ok, "orbit dimension: " + ("matches" if ok else "mismatch " + ",".join(bad)),
                       ("dimension_matches_formula",))

    def check_oracle(self, k: int, result) -> Outcome:
        item = self.items[k]
        on_orbit = item["kind"] == "on_orbit"
        found = result.residual <= ORACLE_RESIDUAL
        # The reported residual must be the one the returned unitary achieves.
        u = result.unitary.full_matrix()
        achieved = float(np.linalg.norm(u @ self.first[k] @ u.conj().T - self.second[k]))
        honest = abs(achieved - result.residual) <= 1e-9 + 1e-6 * result.residual
        ok = found == on_orbit and honest
        wrong = (found and not on_orbit) or not honest
        return Outcome(ok, wrong, f"oracle {item['kind']}/{item['n']}q: {'found' if found else 'not found'}",
                       ("residual_iff_on_orbit", "residual_matches_unitary"),
                       {"restarts": result.restarts_used, "found": found, "kind": item["kind"]})

    def observe(self, u: int, out) -> None:
        if "shapes" in self.units[u]:
            for k, ns in zip(self.units[u]["shapes"], out[1]):
                self.shape_ns[label(self.items[k]["dims"])].append(ns)

    def extras(self) -> dict:
        # The largest tangent frame, computed from its array shape:
        # sum(d^2 - 1) rows of 2 D^2 float64 entries.
        frame_bytes = max(sum(k * k - 1 for k in it["dims"]) * 2 * int(np.prod(it["dims"])) ** 2 * 8
                          for it in self.items if "dims" in it)
        return {"shape_ns": self.shape_ns, "frame_mb": frame_bytes / 1e6}


def label(dims) -> str:
    return "-".join(str(d) for d in dims)


class FingerprintFiles(Workload):
    """invariants -> file -> reconstruct, and canonical, through ``qorbit.cli.run``."""

    name = "fingerprint-files"
    chunk = 10

    def __init__(self, corpus: dict, workdir: str):
        super().__init__(corpus, workdir)
        self.paths = [os.path.join(workdir, f"state_{i}.json") for i in range(len(self.items))]
        self.bytes: dict[int, int] = {}

    def op(self, i: int):
        state = self.paths[i]
        inv_path = os.path.join(self.workdir, f"inv_{i}.json")
        out, err = io.StringIO(), io.StringIO()
        rc_inv = qorbit.cli.run(["invariants", state, "--json"], out=out, err=err)
        with open(inv_path, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        rec, err = io.StringIO(), io.StringIO()
        rc_rec = qorbit.cli.run(["reconstruct", inv_path, "--json"], out=rec, err=err)
        can, err = io.StringIO(), io.StringIO()
        rc_can = qorbit.cli.run(["canonical", state, "--json"], out=can, err=err)
        return rc_inv, rc_rec, rc_can, rec.getvalue(), can.getvalue()

    def check(self, i: int, result) -> Outcome:
        rc_inv, rc_rec, rc_can, rec_text, can_text = result
        kind = self.items[i]["kind"]
        checks = ("exit_codes", "round_trip")
        if rc_inv != 0 or rc_can != 0:
            return Outcome(False, True, f"{kind}: invariants/canonical exit {rc_inv}/{rc_can}", checks)
        if rc_rec != 0:
            return Outcome(False, False, f"{kind}: reconstruct exit {rc_rec}", checks)
        ok = round_trip_holds(rec_text, can_text)
        return Outcome(ok, not ok, f"{kind}: round trip {'holds' if ok else 'broken'}", checks)

    def observe(self, i: int, out) -> None:
        if i not in self.bytes:
            state = os.path.getsize(self.paths[i])
            inv = os.path.getsize(os.path.join(self.workdir, f"inv_{i}.json"))
            # the state is read twice; the invariants are written once and read once
            self.bytes[i] = 2 * state + 2 * inv

    def extras(self) -> dict:
        return {"bytes_per_op": sum(self.bytes.values()) / len(self.bytes)}


WORKLOADS = {cls.name: cls for cls in (DecideMix, Numerics, FingerprintFiles)}
