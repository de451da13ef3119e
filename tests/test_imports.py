"""Every module of the package and of its tests uses each name it imports (a stdlib
stand-in for a linter)."""

import ast
from pathlib import Path

import quantplan

# perfbench/test_perfbench.py::test_instrument_rebinds_import_sites_and_restores checks that
# tracing env.render rebinds planner's import of it, so planner keeps that import
KEPT = {("planner", "render")}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("import os\nfrom a.b import c, d as e\nc(os)\n") == {"e"}


def test_modules_use_every_name_they_import():
    unused = set()
    paths = [*Path(quantplan.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        if path.name != "__init__.py":  # re-exports the package API
            unused |= {(path.stem, name) for name in unused_imports(path.read_text())}
    assert unused == KEPT
