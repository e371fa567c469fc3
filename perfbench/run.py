#!/usr/bin/env python3
"""Build the tree and run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N [--out results.jsonl]      # every workload

Run from the root of a source tree.  The script builds
perfbench/suite.exe and bin/lumpd.exe with dune, then runs the suite
once per workload, each in a process of its own.  With --trace 0 it
first runs the workload's set-up alone in 2 to 8 more processes and
reports setup_s as the median of all the set-ups.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1).  --out appends the full record of each workload (the
metrics, the workload's own numbers and the environment) as one JSON
line; perfbench/compare.py reads those files.  The exit status is 0
only if every output was checked correct.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE = os.path.join(ROOT, "_build", "default", "perfbench", "suite.exe")
DEADLINE_S = 170  # a run must end within 180 s
# setup_s is the median of at least SETUP_RUNS set-ups, each in a fresh
# process, taken until they add up to SETUP_MIN_S or number SETUP_MAX_RUNS.
SETUP_RUNS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_RUNS = 9


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for f in ("dune-project", os.path.join("bin", "lumpd.ml"), os.path.join("lib", "core", "dune")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            fail(f"{f} is missing: run this from an mdlump source tree")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./perfbench/suite.exe", "./bin/lumpd.exe"]
    if subprocess.run(cmd, cwd=ROOT, env=env, timeout=850).returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """Kill whatever is left of a suite's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_suite(args, deadline):
    """Run suite.exe in its own process group; return (status, stdout lines)."""
    proc = subprocess.Popen([SUITE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"suite {' '.join(args)} ran past the time limit")
    finally:
        stop_group(proc.pid)
    return proc.returncode, out.splitlines()


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if trace == 0:
        # The run's own set-up is one more sample.  A short set-up (the
        # sweep's and lumpd's take about 0.15 s) moves more between
        # processes, so it is sampled more often.
        while len(setups) < SETUP_RUNS - 1 or (sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_RUNS - 1):
            status, lines = run_suite(common + ["--setup-only"], deadline)
            if status != 0 or not lines:
                fail(f"{name}: set-up failed")
            setups.append(json.loads(lines[-1])["setup_s"])
    status, lines = run_suite(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{name}: the suite ended without a result (status {status})")
    extras = {}
    for line in lines[:-1]:
        if line.startswith("extras: "):
            extras = json.loads(line[len("extras: "):])
        else:
            print(line)
    if trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        extras["setup_s_samples"] = setups
    return status, result, extras


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="one workload; every workload when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append one JSON line per workload to this file")
    args = p.parse_args()
    start = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    env = {"nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
           "loadavg_1m": os.getloadavg()[0]}
    build()
    chosen = [args.workload] if args.workload else names
    summary = {"correct": True, "attempted": 0, "failed": 0}
    per_workload = {}
    for name in chosen:
        # A single workload gets the whole time limit; the full set is
        # for interactive use and only bounded per workload.
        deadline = (start if args.workload else time.monotonic()) + DEADLINE_S
        status, result, extras = run_workload(name, args.seed, seconds, args.trace, deadline)
        ok = status == 0 and result["correct"]
        summary["correct"] = summary["correct"] and ok
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        per_workload[name] = result
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({**extras, **env, **result}) + "\n")
        if not args.workload:
            print(f"{name}: " + json.dumps(result))
    if args.workload:
        print(json.dumps(per_workload[args.workload]))
    else:
        print(json.dumps({**summary, "workloads": per_workload}))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
