"""Every name a module under src/c2loop imports is used in that module, and
every module-level private name it defines is read somewhere in the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "c2loop"


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
