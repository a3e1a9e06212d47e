"""Every name a module under src/c2loop imports is used in that module."""

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
