"""The functions the benchmark's tracer wraps exist and take the arguments
the benchmark passes.  The benchmark's own tests live in perfbench/tests and
are not part of this suite, so a rename would otherwise go unnoticed here."""

import ast
import importlib
import inspect
from pathlib import Path

from c2loop.kashaev import solve_origin
from c2loop.loopmodel import enumerate_configs, weight
from c2loop.quadgraph import QuadGraph
from c2loop.stepped import SteppedSolid, surface_graph
from c2loop.taut import build_taut_window, taut_weight

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
OPS = PERFBENCH / "ops.py"


def target_entries(tree):
    """The (module, function, hook) tuples of the TARGETS list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["TARGETS"]:
            return node.value.elts
    raise AssertionError("no TARGETS list in perfbench/spans.py")


def traced_targets():
    """(module, function) pairs of the TARGETS list, read without importing
    the benchmark."""
    return [(t.elts[0].value, t.elts[1].value)
            for t in target_entries(ast.parse(SPANS.read_text()))]


def attribute_paths(tree, root):
    """Every dotted attribute path read off the name root, as a tuple."""
    paths = set()
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id == root:
            paths.add(tuple(reversed(path)))
    return paths


def window_reads():
    """What the benchmark reads off a TautWindow: `win.*` in its operations
    and `res.*` in the span hook of build_taut_window."""
    spans = ast.parse(SPANS.read_text())
    hook, = (t.elts[2].id for t in target_entries(spans)
             if t.elts[1].value == "build_taut_window")
    fn, = (node for node in spans.body
           if isinstance(node, ast.FunctionDef) and node.name == hook)
    return attribute_paths(ast.parse(OPS.read_text()), "win") | \
        attribute_paths(fn, "res")


def graph_reads():
    """What parametrization_op reads off the graphs it builds: `sg.*` off
    the stepped window and `g.*` off the QuadGraph."""
    fn, = (node for node in ast.parse(OPS.read_text()).body
           if isinstance(node, ast.FunctionDef)
           and node.name == "parametrization_op")
    return attribute_paths(fn, "sg"), attribute_paths(fn, "g")


def test_traced_targets_exist():
    targets = traced_targets()
    assert len(targets) > 20
    for mod, fn in targets:
        module = importlib.import_module(f"c2loop.{mod}")
        assert callable(getattr(module, fn, None)), f"c2loop.{mod}.{fn}"


def test_traced_signatures():
    params = list(inspect.signature(solve_origin).parameters)
    # the tracer names a solve by its mode, passed by keyword or third
    assert params[2] == "mode"
    assert {"g_init", "order", "window_radius"} <= set(params)
    assert {"symbolic", "g_init"} <= set(
        inspect.signature(taut_weight).parameters)


def test_loopmodel_signatures():
    # the benchmark calls enumerate_configs(comp, boundary) and
    # weight(comp, cfg, W) positionally
    assert list(inspect.signature(enumerate_configs).parameters)[:2] == \
        ["graph", "boundary"]
    params = inspect.signature(weight).parameters
    assert list(params)[:3] == ["graph", "config", "W"]
    assert all(p.default is not p.empty for p in list(params.values())[3:])


def test_benchmark_window_reads_exist():
    # a TautWindow field the benchmark reads must survive a field prune
    paths = window_reads()
    assert {("zone",), ("registry",), ("sg",)} <= paths
    win = build_taut_window(SteppedSolid.from_removed([(-1, -1, -1)]))
    for path in paths:
        obj = win
        for attr in path:
            assert hasattr(obj, attr), ".".join(("win",) + path)
            obj = getattr(obj, attr)


def test_benchmark_graph_reads_exist():
    # a SurfaceGraph or QuadGraph attribute the benchmark reads must survive
    # a refactor of either
    sg_paths, g_paths = graph_reads()
    assert {("faces",), ("vertices",), ("positions",)} <= sg_paths
    assert {("faces",), ("corner_labels",)} <= g_paths
    sg = surface_graph(SteppedSolid.from_removed([(-1, -1, -1)]))
    colors = {v: "black" if sum(v) % 2 == 0 else "white"
              for v in sg.vertices}
    g = QuadGraph(colors, dict(sg.faces), dict(sg.positions))
    for root, graph, paths in (("sg", sg, sg_paths), ("g", g, g_paths)):
        for path in paths:
            obj = graph
            for attr in path:
                assert hasattr(obj, attr), ".".join((root,) + path)
                obj = getattr(obj, attr)
