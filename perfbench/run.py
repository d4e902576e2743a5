#!/usr/bin/env python3
"""Builds and runs the benchmark for one workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository.  It builds
perfbench/main.exe with dune, runs it, adds the process's peak resident
memory as `peak_host_mb` to the end-to-end metrics, checks that the
metric names are the ones BENCHMARK.json declares, and prints the
benchmark's result as the last line of standard output.  The exit code
is the benchmark's: non-zero when a correctness gate failed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# a run must end within 180 s; stop well before that
WALL_LIMIT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        fail("not the root of a checkout of the repository: "
             "dune-project, lib/ or BENCHMARK.json is missing")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", build.returncode or 2)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WALL_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail("benchmark printed no result (exit %d)" % proc.returncode,
             proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("result line is not JSON: %s" % e, proc.returncode or 1)
    metrics = result["metrics"]
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux
        metrics["peak_host_mb"] = {"value": usage.ru_maxrss / 1024.0,
                                   "unit": "MB"}
        declared = bench["end_to_end"]
    else:
        declared = bench["per_layer"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(metrics), sorted(names)), 1)
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"]:
            fail("metric %s has keys %s, not value and unit"
                 % (name, sorted(m)), 1)
        if m["unit"] != units[name]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, m["unit"], units[name]), 1)
        if (not isinstance(m["value"], (int, float))
                or isinstance(m["value"], bool)
                or not math.isfinite(m["value"])):
            fail("value of %s is not a finite number: %r"
                 % (name, m["value"]), 1)
        m["value"] = float(m["value"])
    result["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
