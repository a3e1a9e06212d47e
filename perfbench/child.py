"""One benchmark process: set a workload up, then measure it.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1
                               [--setup-only]

Set-up imports numpy and c2loop and builds the workload's operations from
the seed; the process then prints `ready` and, unless --setup-only, runs
passes over the operations.  The number of passes is --seconds divided by
the workload's per-pass budget, so every run of a workload takes the same
number of samples; a run stops early only when the next pass would end
after 1.25 times --seconds (which a slow machine can cause).  With
--trace 1 the passes alternate untraced and traced; traced passes give the
per-layer metrics and the untraced ones the overhead baseline.  The last
line of output is the result object (without set-up time, which the parent
process measures).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time

import c2loop
import numpy  # noqa: F401  (set-up imports it, as any c2loop user does)

import ops
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TAIL_BEYOND = 10
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
OVERRUN = 1.25


def parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def tail(latencies):
    """The highest of the usual percentiles with at least TAIL_BEYOND
    samples beyond it (p50 when none has): (value, percentile, count).
    Fixed levels keep the answer on the same kind of operation however many
    passes a run makes."""
    lat = sorted(latencies)
    n = len(lat)
    level = 50.0
    for q in TAIL_LEVELS:
        if n - math.ceil(q * n / 100) >= TAIL_BEYOND:
            level = q
    return lat[max(math.ceil(level * n / 100), 1) - 1], level, n


class Runner:
    """Runs passes over a workload's operations and keeps the samples."""

    def __init__(self, operations, tracer, stats, traced_mode):
        self.operations = operations
        self.tracer = tracer
        self.stats = stats
        self.traced_mode = traced_mode
        self.walls = {False: [], True: []}
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.layer_failed = {}
        self.slab_ok = []
        self.reported = set()
        self.counters = {}

    def run_pass(self, traced):
        tr = self.tracer
        self.stats.clear()
        n = len(self.walls[False]) + len(self.walls[True])
        ctx = tr.installed() if traced else contextlib.nullcontext()
        if traced:
            tr.counters = dict.fromkeys(tr.counters, 0)
        start = time.perf_counter()
        with ctx:
            for op in self.operations:
                tr.op = f"{n}:{op.name}"
                t0 = time.perf_counter()
                outcome, layer, msg = "ok", None, None
                try:
                    op.run()
                except ops.KnownFailure as exc:
                    outcome, layer, msg = "known", exc.layer, str(exc)
                except ops.CheckFailed as exc:
                    outcome, layer, msg = "failed", exc.layer, str(exc)
                except Exception as exc:
                    outcome = "failed"
                    layer = tr.failing_layer(tr.op) if traced else None
                    msg = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if not traced:
                    self.latencies.append(dt)
                self.record(op, outcome, layer, msg, traced)
        self.walls[traced].append(time.perf_counter() - start)
        self.slab_ok.append(max(self.stats.get("slab_ok", ()), default=0))
        if traced:
            for k, v in tr.counters.items():
                self.counters[k] = self.counters.get(k, 0) + v

    def record(self, op, outcome, layer, msg, traced):
        self.attempted += 1
        if outcome == "ok":
            return
        if outcome == "known":
            self.known += 1
        else:
            self.failed += 1
        layer = layer or op.layer
        if traced:
            self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1
        if (op.name, msg) not in self.reported:
            self.reported.add((op.name, msg))
            kind = "known failure" if outcome == "known" else "FAILED"
            print(f"{kind}: {op.name} [{layer}]: {msg}", file=sys.stderr)

    def measure(self, passes, limit):
        start = time.perf_counter()
        for n in range(passes):
            self.run_pass(self.traced_mode and n % 2 == 1)
            longest = max(self.walls[False] + self.walls[True])
            if (n >= self.traced_mode
                    and time.perf_counter() - start + longest > limit):
                return

    def end_to_end(self):
        value, pct, count = tail(self.latencies)
        walls = ", ".join(f"{w:.3f}" for w in self.walls[False])
        print(f"op_tail_s is p{pct:g} of {count} operation latencies; "
              f"run_s is the median of the passes {walls}", flush=True)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "run_s": (statistics.median(self.walls[False]), "s"),
            "op_p50_s": (statistics.median(self.latencies), "s"),
            "op_tail_s": (value, "s"),
            "peak_rss_mb": (rss, "MiB"),
        }

    def per_layer(self):
        traced = len(self.walls[True])
        out = {}
        for name, (busy, self_s, calls) in \
                self.tracer.layer_times().items():
            out[f"{name}.busy_s"] = (busy / traced, "s")
            out[f"{name}.self_s"] = (self_s / traced, "s")
            out[f"{name}.calls"] = (calls / traced, "count")
        for layer in spans.LAYERS:
            out[f"{layer}.failed"] = (
                self.layer_failed.get(layer, 0) / traced, "count")
        for name in spans.COUNTERS:
            out[name] = (self.counters.get(name, 0) / traced, "count")
        out["fail_frac"] = ((self.failed + self.known) / self.attempted,
                            "ratio")
        passes = traced + len(self.walls[False])
        out["known_failures"] = (self.known / passes, "count")
        out["max_slab_ok"] = (min(self.slab_ok), "N")
        out["trace_overhead_frac"] = (
            statistics.median(self.walls[True])
            / statistics.median(self.walls[False]) - 1.0, "ratio")
        return out


def main(argv=None):
    args = parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(c2loop.__file__).startswith(src + os.sep):
        print(f"c2loop imported from {c2loop.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    if args.workload not in ops.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build, budget = ops.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer()
    stats = {}
    operations = build(args.seed, tracer, workdir, stats)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    runner = Runner(operations, tracer, stats, bool(args.trace))
    runner.measure(max(round(args.seconds / budget), 1 + args.trace),
                   OVERRUN * args.seconds)
    if args.trace:
        metrics = runner.per_layer()
        tracer.dump(os.path.join(
            workdir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = runner.end_to_end()
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
