"""Quick self-check of the benchmark; not part of the test suite.

Usage, from the root of a qorbit checkout:

    python3 perfbench/selfcheck.py

Runs every workload for one second, untraced and traced, and checks that
the result line has exactly the contract's keys, that every metric named
in BENCHMARK.json is printed with its unit and a finite value, that every
output check of the workload ran, and that the run is correct. It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds no program. Prints one line per run and exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

ROOT = os.getcwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfCheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckError(message)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} == set(run.REQUIRED_CHECKS),
           "BENCHMARK.json workloads differ from the runner's")
    return spec


def check_run(workload: str, trace: int, spec: dict) -> str:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run([sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:]],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    expect(set(result) == RESULT_KEYS, f"result keys are {sorted(result)}")
    expect(result["correct"] is True, f"{workload} trace={trace} is not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted < 1")
    expect(isinstance(result["failed"], int), "failed is not an integer")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{workload} trace={trace} prints another metric set")
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{m['name']} value {got['value']!r}")
        if not trace:
            expect(got["value"] != 0, f"end-to-end metric {m['name']} is 0")
    ran = details["tables"]["checks_run"]
    for name in run.REQUIRED_CHECKS[workload]:
        expect(ran.get(name, 0) > 0, f"{workload}: check {name} never ran")
    expect(all(c["ok"] for c in details["cli"]), f"{workload}: a CLI process failed its check")
    return (f"{workload} trace={trace}: {len(result['metrics'])} metrics, "
            f"{result['attempted']} inputs, {result['failed']} failed, checks {sorted(ran)}")


def check_refuses_without_program(spec: dict) -> str:
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "perfbench", "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [*spec["command"], "--workload", "decide-mix", "--seed", "0", "--seconds", "1",
               "--trace", "0"]
        proc = subprocess.run([sys.executable, *cmd[1:]], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    expect(proc.returncode != 0, "the benchmark ran without the program")
    expect(proc.stdout.strip() == "", "the benchmark printed a result without the program")
    return f"without the program: exit {proc.returncode}, no result"


def main() -> int:
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    try:
        spec = load_spec()
        for workload in run.REQUIRED_CHECKS:
            for trace in (0, 1):
                print(check_run(workload, trace, spec), flush=True)
        print(check_refuses_without_program(spec))
    except (SelfCheckError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
