"""Every name a module under src/c2loop imports is used in that module,
every module-level private name it defines is read somewhere in the package,
and every c2loop name the benchmark calls still resolves."""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "c2loop"
PERFBENCH = SRC.parent.parent / "perfbench"


def unused_imports(source):
    """(line, name) of each imported name that no expression refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_scan_finds_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(pi, os.sep)\n"
    assert unused_imports(src) == [(2, "tau")]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{p.name}:{line}: {name}" for p in paths
             for line, name in unused_imports(p.read_text())]
    assert found == []


def unused_private_names(sources):
    """(module, name) of each module-level private name (_x) that no other
    top-level statement of the sources reads, by name or as an attribute.
    sources maps module names to their source text."""
    defined, reads = [], []
    for module, source in sources.items():
        for k, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, k, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
            read = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            read |= {node.attr for node in ast.walk(stmt)
                     if isinstance(node, ast.Attribute)}
            reads.append((module, k, read))
    return sorted((module, name) for module, k, name in defined
                  if not any(name in read for m, j, read in reads
                             if (m, j) != (module, k)))


def test_private_scan_finds_a_dead_helper():
    # a helper only its own body calls is dead; an import is no use
    sources = {"a": "def _used():\n    return 1\n\n\n"
                    "def _dead():\n    return _dead()\n\n\n"
                    "_TABLE = {}\n_LEFT = 1\n",
               "b": "import a\nfrom a import _used, _LEFT\n\n"
                    "print(_used(), a._TABLE)\n"}
    assert unused_private_names(sources) == [("a", "_LEFT"), ("a", "_dead")]


def test_no_dead_private_names():
    found = unused_private_names({p.name: p.read_text()
                                  for p in sorted(SRC.glob("*.py"))})
    assert found == []


def c2loop_reads(source):
    """(module, name) of each c2loop name the source reads: names it imports
    from a c2loop module, and attributes it reads off the c2loop modules it
    imports."""
    tree = ast.parse(source)
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "c2loop":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("c2loop."):
            reads.update((node.module[7:], a.name) for a in node.names)
    reads.update((modules[node.value.id], node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return reads


def traced_names():
    """(module, function) of each entry of the benchmark tracer's TARGETS."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    targets, = (node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"])
    return {(t.elts[0].value, t.elts[1].value) for t in targets.elts}


def test_scan_finds_benchmark_reads():
    src = ("from c2loop import (ffdimers,\n    taut as t)\n"
           "from c2loop.kashaev import solve_origin\n"
           "ffdimers.build_gq(t.window.sg, taut.gone)\n")
    assert c2loop_reads(src) == {("ffdimers", "build_gq"), ("taut", "window"),
                                 ("kashaev", "solve_origin")}


def test_benchmark_names_resolve():
    # a rename of a benchmarked function fails here, not in a benchmark run
    reads = c2loop_reads((PERFBENCH / "ops.py").read_text())
    assert ("ffdimers", "gq_torus_domain") in reads
    names = reads | traced_names()
    missing = [f"c2loop.{mod}.{name}" for mod, name in sorted(names)
               if not hasattr(importlib.import_module(f"c2loop.{mod}"), name)]
    assert missing == []
