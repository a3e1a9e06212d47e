"""Every name a module under src/c2loop imports is used in that module,
every module-level private name it defines is read somewhere in the package,
every public function, class or method is read by the package or the
benchmark, every parameter default is overridden by some call of the package
or the benchmark (apart from a list that may only shrink), and every c2loop
name the benchmark calls still resolves."""

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


def names_read(node):
    """The names a syntax tree reads, by name or as an attribute."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unread_public_names(sources, outside=frozenset()):
    """module.name or module.Class.name of each public function, class or
    method of the sources that no statement of the sources outside its own
    definition reads, by name or as an attribute, and that is not in
    outside.  sources maps module names to their source text."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    parts = []
    for tree in trees.values():
        for stmt in tree.body:
            parts += [*stmt.decorator_list, *stmt.bases, *stmt.body] \
                if isinstance(stmt, ast.ClassDef) else [stmt]
    reads = [(part, names_read(part)) for part in parts]
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(stmt.name, stmt)]
            if isinstance(stmt, ast.ClassDef):
                defs += [(f"{stmt.name}.{d.name}", d) for d in stmt.body
                         if isinstance(d, ast.FunctionDef)]
            for qual, node in defs:
                name = qual.rsplit(".", 1)[-1]
                if name.startswith("_") or name in outside:
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not any(name in read for part, read in reads
                           if id(part) not in own):
                    found.append(f"{module}.{qual}")
    return sorted(found)


def test_scan_finds_an_unread_public_name():
    # K is read only inside itself, K.n and unread by nothing but
    # themselves; outside readers count
    sources = {"a": "def used():\n    return 1\n\n\n"
                    "def unread():\n    return unread()\n\n\n"
                    "class K:\n    def m(self):\n        return K\n\n"
                    "    def n(self):\n        return self.m()\n",
               "b": "from a import used\n\nprint(used())\n"}
    assert unread_public_names(sources) == ["a.K", "a.K.n", "a.unread"]
    assert unread_public_names(sources, {"n"}) == ["a.K", "a.unread"]


def test_public_names_have_readers():
    # a public name of src must be read by src or by the benchmark
    outside = {name for _module, name in traced_names()}
    for path in sorted(PERFBENCH.glob("*.py")):
        outside |= names_read(ast.parse(path.read_text()))
    found = unread_public_names(
        {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}, outside)
    assert found == [], "read only by tests"


def _options(fn, offset):
    """Each parameter of fn that has a default, with its position among the
    arguments a call passes (offset of them bound first, as self is), or
    None for a keyword-only one."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = {p.arg: k - offset for k, p in enumerate(pos) if k >= first}
    out.update((p.arg, None) for p, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None)
    return out


def unset_options(sources, outside=()):
    """(function, parameter) of each parameter with a default, of a
    module-level function or a method of the sources, that no call of the
    sources or of the outside texts sets: by keyword, by position, or
    through * or **.  A call is matched to every definition of its name; a
    call Name(...) counts for Name.__init__.  A dict literal assigned under
    `if f is name:` counts as keywords set on name, since it is passed as
    f(**dict).  sources maps module names to their source text."""
    defs = {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef):
                defs.setdefault(stmt.name, []).append(
                    (f"{module}.{stmt.name}", _options(stmt, 0)))
            elif isinstance(stmt, ast.ClassDef):
                for d in stmt.body:
                    if not isinstance(d, ast.FunctionDef):
                        continue
                    static = any(getattr(x, "id", None) == "staticmethod"
                                 for x in d.decorator_list)
                    name = stmt.name if d.name == "__init__" else d.name
                    defs.setdefault(name, []).append(
                        (f"{module}.{stmt.name}.{d.name}",
                         _options(d, 0 if static else 1)))
    done = set()
    for source in [*sources.values(), *outside]:
        for node in ast.walk(ast.parse(source)):
            test = getattr(node, "test", None)
            if isinstance(node, ast.If) and isinstance(test, ast.Compare) \
                    and isinstance(test.ops[0], ast.Is) \
                    and isinstance(test.comparators[0], ast.Name):
                keys = {k.value for stmt in node.body
                        if isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Dict)
                        for k in stmt.value.keys
                        if isinstance(k, ast.Constant)}
                for qual, opts in defs.get(test.comparators[0].id, ()):
                    done |= {(qual, p) for p in opts if p in keys}
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for qual, opts in defs.get(name, ()):
                done |= {(qual, p) for p, k in opts.items()
                         if None in keywords or p in keywords
                         or (k is not None and (star or k < len(node.args)))}
    return sorted((qual, p) for entries in defs.values()
                  for qual, opts in entries for p in opts
                  if (qual, p) not in done)


def test_scan_finds_an_unset_option():
    # f's b is set by position and c by keyword, h's b through *, k's
    # options through **, K's size by K(...) and g's x by the dict under
    # `if run is g:`; f's d, K.m's step and g's y are set by nothing
    sources = {"a": "def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n"
                    "def h(a, b=1):\n    return a\n\n\n"
                    "def k(a=1, *, z=2):\n    return a\n\n\n"
                    "class K:\n    def __init__(self, size=4):\n"
                    "        self.size = size\n\n"
                    "    def m(self, step=1):\n        return step\n\n\n"
                    "def g(x=1, y=2):\n    return x\n",
               "b": "from a import K, f, g, h, k\n\n"
                    "f(0, 5, c=1)\nh(*args)\nk(**kw)\nK(9).m()\n"
                    "if run is g:\n    kw = {'x': 2}\n"}
    assert unset_options(sources) == [("a.K.m", "step"), ("a.f", "d"),
                                      ("a.g", "y")]
    assert unset_options(sources, ["K(1).m(step=2)\ng(1, 2)\n"]) == \
        [("a.f", "d")]


def test_options_have_callers():
    # a default of src must be overridden by src or by the benchmark
    found = unset_options(
        {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))},
        [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))])
    assert found == [], "set by no program caller"
