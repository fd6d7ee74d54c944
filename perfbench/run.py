"""qorbit benchmark: one workload, seeded inputs, checked outputs, one JSON line.

Usage, from the root of a qorbit checkout:

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and BENCHMARK.json): decide-mix, numerics,
fingerprint-files. Each is a closed loop with one client: the next op
starts when the previous one returns.

With --trace 0 the run starts fresh worker processes one after the other.
Each times interpreter start-up plus ``import qorbit``, one cold op and the
same op warm; these are the set-up samples. The last worker then runs the
timed phase for --seconds and the untimed probes. The end-to-end metrics
come from these untraced runs.

On a shared 2-vCPU Xeon VM (2.1 GHz) the host switches between a fast
state and one about 1.7 times slower; each lasts from seconds to a minute.
Contention only ever adds time, so every timing metric is taken from each
input's fastest op in the run: the median and tail over inputs of those
best times, and throughput as correct inputs per second of best time. The
timed phase steers toward fast-state ops (see worker.measure) and keeps
each workload's pass over its inputs at about a second, so that a run
needs about a second of fast state in all. A run that never sees the fast
state reads about 1.7 times slower. The raw wall-clock rate and median and
the share of inputs timed in the fast state are kept in the details line.

With --trace 1 a single worker runs the whole corpus once in chunks, each
chunk untraced and then traced (order alternating), keeps the spans
(written to perfbench/out/), and reports the per-layer metrics. Real
``qorbit`` CLI processes (count, equiv, reconstruct) are timed and checked,
and the import split comes from ``python -X importtime`` in fresh processes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. ``attempted`` counts the corpus inputs that
ran (and the CLI processes), ``failed`` those whose output failed its
check, so both repeat exactly at a fixed seed. The line before it holds the
details: the environment record, the calibration kernel timings, the
per-kind verdict table and the exact shares. Both are also saved under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
# Fresh processes whose import and cold op give the set-up time; the median
# is reported.
SETUP_SAMPLES = 3
# One client on one thread: with more BLAS threads the large orbit-dimension
# matrices also depend on how busy the other vCPU is, and over five seeds
# the spread of numerics throughput went from 9 % (two threads) to 5 %.
BLAS_THREADS = 1
# Every child process is killed once the run has lasted this long, so a hung
# worker cannot keep the run past the three minutes it is allowed.
RUN_LIMIT_S = 170
STARTED = time.monotonic()
# Inputs per seed; a pass over them takes about a second.
SIZES = {"decide-mix": 500, "fingerprint-files": 100}
ROUTES = ("identical", "spectrum", "invariant", "canonical", "non_generic")
CLI_MAIN = "from qorbit.cli import main; main()"
# The output checks each workload must run for its result to count as correct.
REQUIRED_CHECKS = {
    "decide-mix": ("equivalent_pair_not_distinct", "inequivalent_pair_not_equivalent",
                   "different_spectra_distinct"),
    "numerics": ("dimension_matches_formula", "residual_iff_on_orbit", "residual_matches_unitary"),
    "fingerprint-files": ("exit_codes", "round_trip"),
}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in ("states.DensityMatrix", "bloch.BlochTensor", "local_action.transform_bloch",
                 "local_action.RotationTriple", "invariants.gram", "canonical.genericity",
                 "equivalence.oracle.minimize"):
        units[f"{name}.calls_per_op"] = "count"
    for name in ("states.DensityMatrix", "states.eigenvalues", "bloch.expand", "bloch.BlochTensor",
                 "local_action.transform_bloch", "local_action.RotationTriple",
                 "invariants.gram", "invariants.invariants3", "invariants.invariants2",
                 "invariants.first_disagreement", "canonical.genericity",
                 "canonical.canonicalize3", "canonical.canonicalize2",
                 "reconstruction.reconstruct_canonical", "equivalence.decide",
                 "fileio.read", "fileio.pairs_to_complex", "fileio.dumps", "cli.run",
                 "cli.build_parser"):
        units[f"{name}.self_us_per_op"] = "us"
    for name in ("orbit_dim.tangent_frame", "orbit_dim.orbit_dimension",
                 "equivalence.oracle_search", "equivalence.oracle.minimize"):
        units[f"{name}.self_ms_per_op"] = "ms"
    units["canonical.generic_ratio"] = "ratio"
    units["reconstruction.reconstruct_canonical.errors_per_op"] = "count"
    units["orbit_dim.frame_mb"] = "MB"
    for dims in corpus.ORBIT_DIM_SHAPES:
        units[f"orbit_dim.latency_ms.{'-'.join(map(str, dims))}"] = "ms"
    for route in ROUTES:
        units[f"equivalence.route.{route}.share"] = "ratio"
        units[f"equivalence.route.{route}.p50_us"] = "us"
    units["equivalence.canonical_useful_ratio"] = "ratio"
    units["equivalence.oracle.restarts_per_op.on_orbit"] = "count"
    units["equivalence.oracle.restarts_per_op.isospectral"] = "count"
    units["equivalence.oracle.useful_restart_ratio"] = "ratio"
    units["equivalence.oracle.minimize.nfev_per_op"] = "count"
    units["fileio.bytes_per_op"] = "bytes"
    for command in ("count", "equiv", "reconstruct"):
        units[f"cli.process_ms.{command}"] = "ms"
    units["cli_process_p50_ms"] = "ms"
    units["setup.import_qorbit_ms"] = "ms"
    units["setup.import_scipy_optimize_ms"] = "ms"
    units["setup.cold_first_op_ms"] = "ms"
    units["failed_share"] = "ratio"
    units["inconclusive_share"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    units["trace.self_time_coverage"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(REQUIRED_CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def time_left() -> float:
    return max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": BLAS_THREADS,
        "machine": platform.machine(),
    }


def calibration_ms() -> float:
    """A fixed small numpy kernel; a host-drift diagnostic, never a scale factor."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    h = rng.standard_normal((8, 8))
    h = h + h.T
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(100):
            a @ a
            np.linalg.eigh(h)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def start_worker(config: dict, workdir: str, tag: str, env: dict) -> dict:
    config = dict(config, result=os.path.join(workdir, f"result_{tag}.json"))
    path = os.path.join(workdir, f"config_{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    launch = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path, str(launch)],
                          env=env, capture_output=True, text=True, timeout=time_left())
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(config["result"], encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(root: str, workdir: str, env: dict) -> list[dict]:
    """Time one real process each of ``qorbit count``, ``equiv`` and ``reconstruct``."""
    a, b = os.path.join(workdir, "cli_a.json"), os.path.join(workdir, "cli_b.json")
    commands = {
        "count": ["count", "--dims", "2,2,2"],
        "equiv": ["equiv", a, b, "--json"],
        "reconstruct": ["reconstruct", os.path.join(workdir, "cli_a.inv.json"), "--json"],
    }
    runs = []
    for name, args in commands.items():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=time_left())
        wall = time.perf_counter() - start
        runs.append({"command": name, "ms": wall * 1e3, "exit": proc.returncode,
                     "ok": checks.cli_ok(name, proc.returncode, proc.stdout, workdir)})
    return runs


def importtime_ms(env: dict, samples: int = 3) -> dict:
    """Cumulative import times of qorbit and scipy.optimize from -X importtime."""
    found = {"qorbit": [], "scipy.optimize": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qorbit"],
                              env=env, capture_output=True, text=True, timeout=time_left())
        if proc.returncode != 0:
            raise BenchError(f"importtime run failed:\n{proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e3)
    if not all(found.values()):
        raise BenchError("importtime output lacks qorbit or scipy.optimize")
    return {name: statistics.median(values) for name, values in found.items()}


def tail_ms(best_ms: list[float]) -> tuple[float, str]:
    """The highest of p99/p90 with at least ten inputs beyond it; p75 for small input sets."""
    q = next((q for q in (99, 90) if len(best_ms) * (100 - q) / 100 >= 10), 75)
    return float(np.percentile(best_ms, q)), f"p{q}"


def best_times(workers: list[dict]) -> dict[int, float]:
    """Each input's fastest warm op time in the run, in seconds."""
    best: dict[int, float] = {}
    for w in workers:
        for i, times in w["item_ns"].items():
            if times:
                best[int(i)] = min(best.get(int(i), math.inf), min(times) / 1e9)
    return best


def outcome_tables(outcomes: list[dict]) -> dict:
    table, checks = {}, {}
    for o in outcomes:
        table[o["key"]] = table.get(o["key"], 0) + 1
        for c in o["checks"]:
            checks[c] = checks.get(c, 0) + 1
    verdicts = [o["info"].get("verdict") for o in outcomes]
    return {
        "items": len(outcomes),
        "failed_share": sum(not o["ok"] for o in outcomes) / len(outcomes),
        "inconclusive_share": verdicts.count("inconclusive") / len(outcomes),
        "wrong": sum(o["wrong"] for o in outcomes),
        "verdict_table": dict(sorted(table.items())),
        "checks_run": checks,
    }


def cold_excess_ns(w: dict) -> float:
    """The cold op minus the warm op of the same input; a negative
    difference is noise, as a cold op does no less work, and counts as 0."""
    return max(0.0, w["cold_ns"] - w["warm_ns"])


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    best = best_times(workers)
    ok = {int(i) for w in workers for i, o in w["outcomes"].items() if o["ok"]}
    best_ms = sorted(t * 1e3 for t in best.values())
    tail, percentile = tail_ms(best_ms)
    setups = [(w["import_ns"] + cold_excess_ns(w)) / 1e9 for w in workers]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": sum(1 for i in best if i in ok) / sum(best.values()),
        "latency_p50_ms": statistics.median(best_ms),
        "latency_tail_ms": tail,
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    timed = workers[-1]
    details = {"inputs": len(best), "ops_timed": timed["attempted"], "tail_percentile": percentile,
               "wall_clock_rate": timed["attempted"] / (timed["elapsed_ns"] / 1e9),
               "raw_p50_ms": statistics.median(t / 1e6 for v in timed["item_ns"].values() for t in v),
               "fast_share": timed["fast_share"], "gauge_floor_us": timed["gauge_floor_us"],
               "setup_samples_s": setups, "import_s": [w["import_ns"] / 1e9 for w in workers]}
    return values, details


def per_layer(workload: str, w: dict, cli: list[dict], imports: dict, tables: dict) -> dict:
    n_ops = len(w["op_ns"])
    by_name = w["spans"]["by_name"]
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        calls, self_ns, errors = by_name.get(base, (0, 0, 0))
        if stat == "calls_per_op":
            values[name] = calls / n_ops
        elif stat == "self_us_per_op":
            values[name] = self_ns / n_ops / 1e3
        elif stat == "self_ms_per_op":
            values[name] = self_ns / n_ops / 1e6
        elif stat == "errors_per_op":
            values[name] = errors / n_ops
    generic = [v for name, _, v in w["observed"] if name == "canonical.genericity"]
    values["canonical.generic_ratio"] = sum(generic) / len(generic) if generic else 0.0
    nfev = [v for name, _, v in w["observed"] if name == "equivalence.oracle.minimize"]
    values["equivalence.oracle.minimize.nfev_per_op"] = sum(nfev) / n_ops

    outcomes = w["outcomes"]
    best = best_times([w])
    if workload == "decide-mix":
        for route in ROUTES:
            ids = [i for i, o in outcomes.items() if o["info"]["route"] == route]
            values[f"equivalence.route.{route}.share"] = len(ids) / len(outcomes)
            times = [best[int(i)] for i in ids]
            values[f"equivalence.route.{route}.p50_us"] = statistics.median(times) * 1e6 if times else 0.0
        reached = [o for o in outcomes.values() if o["info"]["route"] == "canonical"]
        useful = sum(o["info"]["verdict"] == "equivalent" for o in reached)
        values["equivalence.canonical_useful_ratio"] = useful / len(reached) if reached else 0.0
    if workload == "numerics":
        oracle = [o["info"] for o in outcomes.values() if "restarts" in o["info"]]
        for kind in ("on_orbit", "isospectral"):
            restarts = [o["restarts"] for o in oracle if o["kind"] == kind]
            values[f"equivalence.oracle.restarts_per_op.{kind}"] = statistics.mean(restarts)
        on_orbit = [o for o in oracle if o["kind"] == "on_orbit"]
        spent = sum(o["restarts"] for o in on_orbit)
        values["equivalence.oracle.useful_restart_ratio"] = sum(o["found"] for o in on_orbit) / spent
        values["orbit_dim.frame_mb"] = w["frame_mb"]
        for label, times in w["shape_ns"].items():
            values[f"orbit_dim.latency_ms.{label}"] = min(times) / 1e6
    if workload == "fingerprint-files":
        values["fileio.bytes_per_op"] = w["bytes_per_op"]
    for r in cli:
        values[f"cli.process_ms.{r['command']}"] = r["ms"]
    values["cli_process_p50_ms"] = statistics.median(r["ms"] for r in cli)
    values["setup.import_qorbit_ms"] = imports["qorbit"]
    values["setup.import_scipy_optimize_ms"] = imports["scipy.optimize"]
    values["setup.cold_first_op_ms"] = cold_excess_ns(w) / 1e6
    values["failed_share"] = tables["failed_share"]
    values["inconclusive_share"] = tables["inconclusive_share"]
    values["trace.overhead_share"] = 1.0 - w["untraced_ns"] / w["traced_ns"]
    values["trace.self_time_coverage"] = statistics.median(self_time_coverage(w))
    return values


def self_time_coverage(w: dict) -> list[float]:
    """Per traced op: summed self time of its spans over its measured duration."""
    return [w["spans"]["op_self_ns"].get(i, 0) / ns for i, ns in w["op_ns"].items()]


def run(args, root: str) -> tuple[dict, dict]:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run_workload(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, root: str, workdir: str) -> tuple[dict, dict]:
    env = child_env(root)
    calibration_start = calibration_ms()
    corpus_path = corpus.build(args.workload, args.seed, SIZES, workdir)
    base = {"src": os.path.join(root, "src"), "workload": args.workload, "corpus": corpus_path,
            "workdir": workdir, "spans": os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")}
    reference = {"state": os.path.join(workdir, "cli_a.json"),
                 "invariants": os.path.join(workdir, "cli_a.inv.json"),
                 "canonical": os.path.join(workdir, "cli_a.canon.json")}
    cli = []
    if args.trace:
        workers = [start_worker(dict(base, mode="trace", seconds=args.seconds, cli_reference=reference),
                                workdir, "trace", env)]
        cli = run_cli(root, workdir, env)
    else:
        # Set-up samples first, each in a fresh process; the last process
        # is also the one that measures.
        workers = [start_worker(dict(base, mode="setup", seconds=0), workdir, str(k), env)
                   for k in range(SETUP_SAMPLES - 1)]
        workers.append(start_worker(dict(base, mode="measure", seconds=args.seconds),
                                    workdir, "measure", env))
    tables = outcome_tables(list(workers[-1]["outcomes"].values()))
    attempted = len({i for w in workers for i in w["outcomes"]}) + len(cli)
    failed = len({i for w in workers for i in w["failed_items"]}) + sum(not r["ok"] for r in cli)
    wrong = sum(w["wrong"] for w in workers) + sum(not r["ok"] for r in cli)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(), "tables": tables,
               "cli": cli, "workers": len(workers)}
    if args.trace:
        imports = importtime_ms(env)
        metrics = per_layer(args.workload, workers[-1], cli, imports, tables)
        units = PER_LAYER
        details["trace_passes"] = workers[-1]["passes"]
        details["self_time_coverage_min"] = min(self_time_coverage(workers[-1]))
    else:
        metrics, extra = end_to_end(workers)
        units = END_TO_END
        details.update(extra)
    details["calibration_ms"] = {"start": calibration_start, "end": calibration_ms()}
    correct = wrong == 0 and required_checks_ran(args.workload, tables["checks_run"])
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}}
    return result, details


def required_checks_ran(workload: str, checks_run: dict) -> bool:
    return all(checks_run.get(c, 0) > 0 for c in REQUIRED_CHECKS[workload])


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qorbit", "__init__.py")):
        print("error: run from the root of a qorbit checkout (src/qorbit not found)", file=sys.stderr)
        return 2
    try:
        result, details = run(args, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
