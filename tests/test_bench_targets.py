"""The functions the benchmark's tracer wraps exist and take the arguments
the benchmark passes.  The benchmark's own tests live in perfbench/tests and
are not part of this suite, so a rename would otherwise go unnoticed here."""

import ast
import importlib
import inspect
from pathlib import Path

from c2loop.kashaev import solve_origin
from c2loop.loopmodel import enumerate_configs, weight
from c2loop.taut import taut_weight

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    """(module, function) pairs of the TARGETS list, read without importing
    the benchmark."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["TARGETS"]:
            return [(t.elts[0].value, t.elts[1].value)
                    for t in node.value.elts]
    raise AssertionError("no TARGETS list in perfbench/spans.py")


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
