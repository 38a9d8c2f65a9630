"""Structure, loss accounting, and exact search for graphs without large
connected matchings.

The package namespace is lazy (PEP 562): ``import cmstruct`` runs only this
file, and the first read of a public name imports its home module and keeps
the value here, so later reads are plain attribute lookups. A short process
pays only for the layers it uses. ``__all__``, ``dir()`` and
``from cmstruct import *`` list every public name, the submodules included.
"""

from importlib import import_module as _import_module

# Each module's public names; the module's own name is public too.
_EXPORTS = {
    "bounds": (
        "AuditParams",
        "AuditReport",
        "HypothesisCheck",
        "audit_coloring",
        "check_hypotheses",
        "erdos_gallai_check",
        "small_components_bound",
    ),
    "constructions": (
        "affine_plane_coloring",
        "bounded_component_coloring",
        "disjoint_cliques_coloring",
        "random_coloring",
    ),
    "errors": (),
    "graphs": (
        "ComponentLabeling",
        "EdgeColoring",
        "Graph",
        "color_class",
        "complete_graph",
        "components",
        "cycle_graph",
        "disjoint_union",
        "parse_graph",
        "path_graph",
        "serialize",
        "star_graph",
        "to_dot",
    ),
    "loss": (
        "LossLedger",
        "VertexClass",
        "check_F_inequality",
        "check_f_inequality",
        "classify_vertices",
        "f_graph",
        "f_vertex",
    ),
    "matching": (
        "CMWitness",
        "DeficiencyWitness",
        "Matching",
        "check_witness",
        "find_mono_cm",
        "matching_number",
        "max_connected_matching",
        "matching_of_size",
        "maximum_matching",
        "odd_components",
        "tutte_berge",
    ),
    "partition": (
        "PartitionReport",
        "SQIPartition",
        "component_partitions",
        "partition_edge_bound",
        "sqi_partition",
        "verify_sqi",
    ),
    "search": (
        "BUDGET_EXHAUSTED",
        "CERTIFIED_NONE",
        "FOUND",
        "RamseyResult",
        "SearchConfig",
        "SearchResult",
        "ramsey_cm",
        "search_avoider",
    ),
}
_HOME = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(
        name
        for name in {*globals(), *__all__}
        if not name.startswith("_") or name.endswith("__")
    )
