"""Each module of the package imports only modules of a lower layer, only
``graphs`` knows how a ``Graph`` and an ``EdgeColoring`` are stored, no
module calls their checking constructors, each entry point loads only the
layers it uses (and none loads ``multiprocessing``), and the lazy package
namespace keeps its public surface."""

import ast
import json
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


def _child(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


# A child script's helpers: ``loaded()`` prints the package modules loaded so
# far, ``main(...)`` runs one command with its stdout dropped, and
# ``multiprocessing()`` prints every loaded multiprocessing module.
HELPERS = """
import contextlib, io, sys
def loaded():
    print(sorted(m for m in sys.modules if m.split(".")[0] == "cmstruct"))
def main(*argv):
    import cmstruct.cli
    with contextlib.redirect_stdout(io.StringIO()):
        cmstruct.cli.main(list(argv))
def multiprocessing():
    print(sorted(m for m in sys.modules if m.startswith("multiprocessing")))
"""
CLI_LAYERS = ["cli", "errors", "graphs", "matching"]


def _modules(*names: str) -> str:
    return str(sorted(["cmstruct", *(f"cmstruct.{name}" for name in names)]))


def test_importing_the_package_loads_no_multiprocessing(tmp_path):
    # Each entry point loads only the layers it uses: the package namespace
    # is lazy, the CLI module loads the layers every command reads, and each
    # command imports its own. Only search workers use multiprocessing; it
    # is imported when a pool starts them, so no entry point here loads it.
    out = _child(
        HELPERS
        + "import cmstruct\nloaded()\n"
        + "import cmstruct.cli\nloaded()\n"
        + "main('search', '--n-vertices', '5', '--k', '2', '--n', '4')\nloaded()\n"
        + "multiprocessing()\n"
    )
    assert out.splitlines() == [
        _modules(),
        _modules(*CLI_LAYERS),
        _modules(*CLI_LAYERS, "search"),
        "[]",
    ]
    path = tmp_path / "edge.g"
    path.write_text("p cm 3 1\ne 0 1 1\n")
    out = _child(
        HELPERS
        + "main('classify', '--n', '4', '--input', sys.argv[1])\nloaded()\n"
        + "multiprocessing()\n",
        str(path),
    )
    assert out.splitlines() == [_modules(*CLI_LAYERS, "loss", "partition"), "[]"]


# The public names of each module, all reexported by the package; the
# module names themselves are public too.
PUBLIC = {
    "bounds": [
        "AuditParams", "AuditReport", "HypothesisCheck", "audit_coloring",
        "check_hypotheses", "erdos_gallai_check", "small_components_bound",
    ],
    "constructions": [
        "affine_plane_coloring", "bounded_component_coloring",
        "disjoint_cliques_coloring", "random_coloring",
    ],
    "errors": [],
    "graphs": [
        "ComponentLabeling", "EdgeColoring", "Graph", "color_class",
        "complete_graph", "components", "cycle_graph", "disjoint_union",
        "parse_graph", "path_graph", "serialize", "star_graph", "to_dot",
    ],
    "loss": [
        "LossLedger", "VertexClass", "check_F_inequality", "check_f_inequality",
        "classify_vertices", "f_graph", "f_vertex",
    ],
    "matching": [
        "CMWitness", "DeficiencyWitness", "Matching", "check_witness",
        "find_mono_cm", "matching_number", "max_connected_matching",
        "matching_of_size", "maximum_matching", "odd_components", "tutte_berge",
    ],
    "partition": [
        "PartitionReport", "SQIPartition", "component_partitions",
        "partition_edge_bound", "sqi_partition", "verify_sqi",
    ],
    "search": [
        "BUDGET_EXHAUSTED", "CERTIFIED_NONE", "FOUND", "RamseyResult",
        "SearchConfig", "SearchResult", "ramsey_cm", "search_avoider",
    ],
}

# Reads every public name of a fresh package, passed as PUBLIC in argv[1]:
# the first read goes through the lazy namespace, and must give the home
# module's object.
SURFACE = """
import importlib, json, sys
import cmstruct
same = 0
for home, names in json.loads(sys.argv[1]).items():
    module = importlib.import_module("cmstruct." + home)
    same += getattr(cmstruct, home) is module
    same += sum(getattr(cmstruct, name) is getattr(module, name) for name in names)
star = {}
exec("from cmstruct import *", star)
del star["__builtins__"]
try:
    cmstruct.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "all": cmstruct.__all__,
    "same": same,
    "star": sorted(star),
    "star_same": all(star[name] is getattr(cmstruct, name) for name in star),
    "not_in_dir": sorted(set(cmstruct.__all__) - set(dir(cmstruct))),
    "unknown": unknown,
}))
"""


def test_the_package_exports_every_public_name():
    expected = sorted(name for home, names in PUBLIC.items() for name in [home, *names])
    assert len(expected) == 64
    got = json.loads(_child(SURFACE, json.dumps(PUBLIC)))
    assert got == {
        "all": expected,
        "same": 64,
        "star": expected,
        "star_same": True,
        "not_in_dir": [],
        "unknown": "module 'cmstruct' has no attribute 'no_such_name'",
    }
