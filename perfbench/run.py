"""Benchmark of the c2loop verifier.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: theorem-symbolic, recurrence-numeric, dimers-spectral (see
perfbench/README.md).  Each run uses fresh single-threaded processes: a few
that only set up, to time set-up, then one that sets up and measures.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Exits non-zero without a result line when
the workload cannot be set up or run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_child(args, setup_only, deadline):
    """Start a child that is killed at `deadline`; return (process, timer,
    seconds from spawn to its `ready` line)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0),
                            proc.kill)
    timer.daemon = True
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, timer)
        raise RunError(f"set-up failed (exit {proc.returncode})")
    return proc, timer, ready


def finish(proc, timer):
    """Wait for a child, stop its timer, and return its remaining output."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def run(args):
    deadline = time.perf_counter() + TIME_LIMIT
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, timer, ready = start_child(args, True, deadline)
        finish(proc, timer)
        if proc.returncode != 0:
            raise RunError(f"set-up child exited {proc.returncode}")
        setups.append(ready)
    proc, timer, ready = start_child(args, False, deadline)
    setups.append(ready)
    lines = finish(proc, timer).splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"measuring child exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"setup_s is the median of {len(setups)} set-ups")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (RunError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
