"""One fresh process of a workload: import, cold op, then the timed phase.

Usage (started by run.py): python3 worker.py CONFIG.json LAUNCH_NS

LAUNCH_NS is the parent's CLOCK_MONOTONIC reading just before it started
this interpreter, so the import time below includes interpreter start-up.
Only reading the config runs before ``import qorbit`` is timed. The result
is written as JSON to the path named in the config.

Modes:
  setup    only the import, the cold op and the same op warm: one more
           sample of the set-up time.
  measure  run the op over the corpus's timed items until the time share is
           used up and every item has run (see ``measure``); no tracing.
           Probe items run once afterwards, checked but not timed.
  trace    cover the whole corpus once in chunks; each chunk runs untraced
           and traced (order alternating), so the tracing overhead compares
           the same ops. Then repeat the untraced/traced pairs until the time
           share is used up. Spans of the first pass are kept.
"""

import json
import sys
import time

_LAUNCH_NS = int(sys.argv[2])
with open(sys.argv[1], encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)
sys.path.insert(0, CONFIG["src"])

import qorbit  # noqa: E402,F401  (the import being timed)

IMPORT_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - _LAUNCH_NS

import io  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import corpus as corpus_mod  # noqa: E402  (this script's directory is on sys.path)
import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter_ns
GAUGE_EVERY_NS = 50_000_000
GAUGE_LOOPS = 30
# Gauges within this factor of the fastest one read as the host's fast state.
# The states are about a factor 1.7 apart; two gauges in a row differ by
# 2.5 % at the median and 16 % at p90.
FAST = 1.15
_GAUGE_A = np.random.default_rng(0).standard_normal((48, 48))
_GAUGE_H = _GAUGE_A[:8, :8] + _GAUGE_A[:8, :8].T


def _record(summary: dict, index: int, outcome) -> None:
    """Keep the first outcome seen for each corpus item."""
    if index in summary:
        return
    summary[index] = {"ok": outcome.ok, "wrong": outcome.wrong, "key": outcome.key,
                      "checks": list(outcome.checks), "info": outcome.info}


def gauge_ns() -> int:
    """Time a fixed small numpy kernel: a reading of the host's current speed."""
    t0 = clock()
    for _ in range(GAUGE_LOOPS):
        _GAUGE_A @ _GAUGE_A
        np.linalg.eigh(_GAUGE_H)
    return clock() - t0


def measure(w, timed: list[int], share_ns: int) -> dict:
    """Op by op until the share is used and every timed input has run.

    On a shared VM the host switches between a fast state and a slow one,
    about 1.7 times slower, and each lasts from seconds to a minute. The
    timings keep each input's fastest op, so each input needs an op while
    the host is fast. The gauge, timed about every 50 ms, tells the states
    apart: an op counts as taken in the fast state when the gauges before
    and after it read within ``FAST`` of the fastest gauge so far. While
    the host is fast, the loop runs first the inputs that have no such op
    yet; otherwise it goes round the inputs in order. The gauge only picks
    the next input; it never scales a time.
    """
    n = len(timed)
    item_ns: dict[int, list[int]] = {i: [] for i in timed}
    # Per input: over its ops, the lowest reading of the slower of the two
    # gauges around the op.
    level = dict.fromkeys(timed, math.inf)
    outcomes, failed = {}, set()
    attempted = wrong = pos = 0
    floor = last = gauge_ns()
    block, block_start = [], clock()
    start = clock()
    while len(outcomes) < n or clock() - start < share_ns:
        i = timed[pos % n]
        if last <= FAST * floor:
            for step in range(n):
                j = timed[(pos + step) % n]
                if level[j] > FAST * floor:
                    i, pos = j, pos + step
                    break
        pos += 1
        t0 = clock()
        out = w.op(i)
        t1 = clock()
        outcome = w.check(i, out)
        w.observe(i, out)
        item_ns[i].append(t1 - t0)
        _record(outcomes, i, outcome)
        attempted += 1
        if not outcome.ok:
            failed.add(i)
        wrong += outcome.wrong
        block.append(i)
        if clock() - block_start >= GAUGE_EVERY_NS:
            g = gauge_ns()
            floor = min(floor, g)
            for j in block:
                level[j] = min(level[j], max(last, g))
            last, block, block_start = g, [], clock()
    fast = sum(level[i] <= FAST * floor for i in timed)
    return {"item_ns": item_ns, "elapsed_ns": clock() - start, "attempted": attempted,
            "failed_items": failed, "wrong": wrong, "outcomes": outcomes,
            "fast_share": fast / n, "gauge_floor_us": floor / 1e3}


def run_probes(w, probes: list[int], result: dict) -> None:
    """Ops that are checked once per run but not timed."""
    for i in probes:
        outcome = w.check(i, w.op(i))
        _record(result["outcomes"], i, outcome)
        result["attempted"] += 1
        if not outcome.ok:
            result["failed_items"].add(i)
        result["wrong"] += outcome.wrong


def traced(w, order: list[int], share_ns: int, spans_path: str) -> dict:
    """Chunks of ``order``, each run untraced and traced (order alternating).

    The first pass covers every item once traced; its spans are kept. More
    passes follow until the share is used, for the overhead figure.
    """
    kept = None
    untraced_ns = traced_ns = 0
    op_ns, outcomes = {}, {}
    item_ns: dict[int, list[int]] = {i: [] for i in order}
    failed = set()
    attempted = wrong = 0
    start = clock()
    passes = 0
    while passes == 0 or clock() - start < share_ns:
        tracer = spans_mod.Tracer()
        for c, lo in enumerate(range(0, len(order), w.chunk)):
            ids = order[lo:lo + w.chunk]
            for traced_now in ((False, True) if c % 2 == 0 else (True, False)):
                uninstall = spans_mod.install(tracer) if traced_now else None
                try:
                    for i in ids:
                        t0 = clock()
                        out = tracer.run_op(i, w.op, i) if traced_now else w.op(i)
                        t1 = clock()
                        outcome = w.check(i, out)
                        attempted += 1
                        if not outcome.ok:
                            failed.add(i)
                        wrong += outcome.wrong
                        if traced_now:
                            traced_ns += t1 - t0
                            if passes == 0:
                                op_ns[i] = t1 - t0
                                _record(outcomes, i, outcome)
                        else:
                            w.observe(i, out)
                            untraced_ns += t1 - t0
                            item_ns[i].append(t1 - t0)
                finally:
                    if uninstall is not None:
                        uninstall()
        if passes == 0:
            kept = tracer
        passes += 1
    kept.write(spans_path)
    return {"item_ns": item_ns, "passes": passes, "untraced_ns": untraced_ns,
            "traced_ns": traced_ns, "op_ns": op_ns, "attempted": attempted, "failed_items": failed,
            "wrong": wrong, "outcomes": outcomes, "spans": summarize_spans(kept),
            "observed": kept.observed}


def summarize_spans(tracer) -> dict:
    """Per span name: calls, self ns and errors; per op: summed self ns."""
    by_name: dict[str, list[int]] = {}
    op_self: dict[int, int] = {}
    for nid, _start, _end, _parent, op, self_ns, error in tracer.spans:
        entry = by_name.setdefault(tracer.names[nid], [0, 0, 0])
        entry[0] += 1
        entry[1] += self_ns
        entry[2] += error is not None
        op_self[op] = op_self.get(op, 0) + self_ns
    return {"by_name": by_name, "op_self_ns": op_self}


def main() -> None:
    data = corpus_mod.load(CONFIG["corpus"])
    w = workloads.WORKLOADS[CONFIG["workload"]](data, CONFIG["workdir"])
    items = w.inputs()
    timed = [i for i, item in enumerate(items) if not item.get("probe")]
    probes = [i for i, item in enumerate(items) if item.get("probe")]
    cold = w.cold_start(timed)

    # The cold op, then the same input warm right after it: the host's speed
    # changes over seconds, so the warm reference is taken at the same time.
    t0 = clock()
    cold_out = w.op(cold)
    cold_ns = clock() - t0
    t0 = clock()
    w.op(cold)
    warm_ns = clock() - t0

    share_ns = int(CONFIG["seconds"] * 1e9)
    if CONFIG["mode"] == "trace":
        result = traced(w, timed + probes, share_ns, CONFIG["spans"])
    elif CONFIG["mode"] == "measure":
        result = measure(w, timed, share_ns)
        run_probes(w, probes, result)
    else:
        result = {"item_ns": {cold: []}, "attempted": 2, "failed_items": set(),
                  "wrong": 0, "outcomes": {}}
    outcome = w.check(cold, cold_out)
    _record(result["outcomes"], cold, outcome)
    if not outcome.ok:
        result["failed_items"].add(cold)
    result["wrong"] += outcome.wrong
    result["item_ns"][cold].append(warm_ns)
    result.update({
        "import_ns": IMPORT_NS,
        "cold_ns": cold_ns,
        "warm_ns": warm_ns,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    result["failed_items"] = sorted(result["failed_items"])
    if CONFIG["mode"] != "setup":
        result.update(w.extras())
    if CONFIG.get("cli_reference"):
        write_cli_reference(CONFIG["cli_reference"])
    with open(CONFIG["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def write_cli_reference(paths: dict) -> None:
    """Invariants file and canonical point of the CLI processes' first state."""
    for command, target in (("invariants", paths["invariants"]), ("canonical", paths["canonical"])):
        out = io.StringIO()
        if qorbit.cli.run([command, paths["state"], "--json"], out=out, err=io.StringIO()) != 0:
            raise SystemExit(f"{command} failed on the CLI reference state")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())


if __name__ == "__main__":
    main()
