"""Each module of the package imports only modules of a lower layer, only
``graphs`` knows how a ``Graph`` and an ``EdgeColoring`` are stored, no
module calls their checking constructors, and importing the package loads
no ``multiprocessing``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmstruct"

RANK = {
    "errors": 0,
    "graphs": 1,
    "matching": 2,
    "constructions": 2,
    "partition": 3,
    "loss": 4,
    "bounds": 5,
    "search": 6,
    "cli": 7,
}


def _package_imports(path: Path) -> set[str]:
    """Modules named by the relative imports (``from .x``, ``from . import x``)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_is_ranked():
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert modules == set(RANK)


def test_modules_import_only_lower_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name in _package_imports(path):
            assert RANK[name] < RANK[path.stem], f"{path.stem} imports {name}"


# The stored layout of Graph and EdgeColoring, and the helpers that set it
# without checks.
LAYOUT_FIELDS = {"_adj", "_by_color"}
LAYOUT_BUILDERS = {"_build", "_index", "_rows"}


def test_only_graphs_touches_the_stored_layout():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "graphs":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in LAYOUT_FIELDS | LAYOUT_BUILDERS, (
                    f"{path.stem} reads .{node.attr}"
                )
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    assert alias.name not in LAYOUT_BUILDERS, (
                        f"{path.stem} imports {alias.name}"
                    )


# The checking constructors, which are for data from outside the package.
CHECKING_CONSTRUCTORS = {"Graph", "Graph.from_edges", "EdgeColoring"}


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def test_no_module_calls_the_checking_constructors():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is not None and name.startswith("graphs."):
                    name = name[len("graphs."):]
                if name in CHECKING_CONSTRUCTORS:
                    calls.append(f"{path.stem} line {node.lineno}: {name}(...)")
    assert calls == []


def test_importing_the_package_loads_no_multiprocessing():
    # Only search workers use multiprocessing; it is imported when a pool
    # starts them, so no other command pays for loading it.
    code = (
        "import cmstruct, cmstruct.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
