"""Tests of the benchmark itself (not of c2loop).

    python3 -m pytest perfbench/tests -q

The traced runs take a few minutes: every workload runs twice on one seed
with a one-second budget, which still makes one untraced and one traced
pass.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from c2loop.limitshape import y_closed_form  # noqa: E402

import child  # noqa: E402
import ops  # noqa: E402
import seeded  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = ("taut.configs", "kashaev.cubes", "ffdimers.matchings",
          "laurent.max_terms", "fail_frac", "max_slab_ok")


def run_bench(workload, seed, trace, seconds=1):
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload on the same seed."""
    return {w["name"]: [run_bench(w["name"], 11, 1) for _ in range(2)]
            for w in SPEC["workloads"]}


# -- inputs ----------------------------------------------------------------

def test_generators_repeat_for_a_seed():
    def draw(seed):
        rng = seeded.stream(seed, "test")
        pile = seeded.random_pile(rng, 60)
        values = seeded.VertexValues(seed)
        return (pile, seeded.random_order(rng, pile),
                seeded.layered_data(rng), seeded.theta(rng),
                [values[(i, -i, 2 * i)] for i in range(-5, 5)])
    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_generated_solids_and_orders_are_valid():
    rng = seeded.stream(1, "test")
    pile = set(seeded.random_pile(rng, 80))
    assert len(pile) == 80
    for p in pile:
        for e in seeded.UNITS:
            q = tuple(a + b for a, b in zip(p, e))
            assert q in pile or max(q) > -1
    order = seeded.random_order(rng, pile)
    filled = set()
    for p in order:
        for e in seeded.UNITS:
            q = tuple(a - b for a, b in zip(p, e))
            assert q not in pile or q in filled
        filled.add(p)


def test_slab_band_straddles_the_float_range():
    """Every draw of the layered data keeps N = 15 finite in the closed form
    and puts N = 20 past the overflow seen at 1e131."""
    for a in seeded.SLAB_A_C:
        for b in seeded.SLAB_B:
            for c in seeded.SLAB_A_C:
                assert math.log10(y_closed_form(15, a, b, c)[0]) < 100
                assert math.log10(y_closed_form(20, a, b, c)[0]) > 135


# -- counts and metrics ----------------------------------------------------

def test_same_seed_gives_same_counts(traced):
    for name, (r1, r2) in traced.items():
        for key in COUNTS + tuple(k for k in r1["metrics"]
                                  if k.endswith(".calls")):
            assert r1["metrics"][key] == r2["metrics"][key], (name, key)
        assert r1["failed"] == r2["failed"] == 0, name


def test_known_failures_are_counted(traced):
    m = {name: runs[0]["metrics"] for name, runs in traced.items()}
    assert m["theorem-symbolic"]["kashaev.failed"]["value"] >= 1
    assert m["recurrence-numeric"]["max_slab_ok"]["value"] == 15
    assert m["recurrence-numeric"]["kashaev.failed"]["value"] >= 1
    for metrics in m.values():
        assert metrics["fail_frac"]["value"] > 0


def test_printed_metrics_are_declared(traced):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced.values():
        got = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        assert got == per_layer
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    res = run_bench("dimers-spectral", 3, 0)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in res["metrics"].values())


# -- the contract of BENCHMARK.json and the runner -------------------------

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = child.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and pct == 75.0


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.spans = [["taut.build_taut_window", 0.0, 10.0, None, "0:a", False],
                ["stepped.surface_graph", 1.0, 4.0, 0, "0:a", False],
                ["stepped.surface_graph", 5.0, 6.0, 0, "0:a", True]]
    t = tr.layer_times()
    assert t["taut.build_taut_window"] == [10.0, 6.0, 1]
    assert t["stepped.surface_graph"] == [4.0, 4.0, 2]
    assert tr.failing_layer("0:a") == "stepped"


def test_binomial_tail():
    assert ops.binomial_tail(50, 100, 0.5) > 0.5
    assert ops.binomial_tail(90, 100, 0.5) < 1e-15


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dimers-spectral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert "{" not in p.stdout
