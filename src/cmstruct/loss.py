"""Exact-rational edge-loss accounting for graphs without large connected
matchings.

The single-color loss of a graph is ``(n-1)/2 * v(G) - e(G)``; with k colors
it is ``k * (n-1)/2 * v(G) - e(G)``. Both totals distribute over vertices
through the S/Q/I partition of each component: S vertices carry ``(n-1)/4``,
Q vertices the gap between ``(n-1)/2`` and half their degree, I vertices
nothing. The per-vertex sum never exceeds the graph total; that inequality
is what the checkers verify, in exact arithmetic (denominators stay in
{1, 2, 4}).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvalidPartitionError
from .graphs import EdgeColoring, Graph, components, distinct_with_counts, per_color
from .matching import require_no_connected_matching, require_no_monochromatic_cm
from .partition import SQIPartition, component_partitions, verify_sqi


class VertexClass(enum.Enum):
    STRONG = "strong"
    Q_SATURATED = "q-saturated"
    SMALL = "small"


@dataclass(frozen=True)
class LossLedger:
    """Per-vertex loss values plus the graph-level total."""

    mode: str  # "single" or "multi"
    n: int
    per_vertex: Mapping[int, Fraction]
    total: Fraction
    classes: Mapping[int, str]
    partitions: Mapping[int, tuple[SQIPartition, ...]]  # keyed by color

    @property
    def vertex_sum(self) -> Fraction:
        return sum(self.per_vertex.values(), Fraction(0))


def f_graph(g: Graph, n: int) -> Fraction:
    """Edge loss of the whole graph against ``(n-1)/2`` per vertex."""
    require_no_connected_matching(g, n)
    return Fraction(n - 1, 2) * g.vertex_count - g.edge_count


def f_vertex(
    g: Graph, n: int, partitions: Sequence[SQIPartition]
) -> dict[int, Fraction]:
    """Per-vertex loss, given valid partitions, one per component."""
    labeling = components(g)
    component_sets = labeling.vertex_sets()
    covered: set[int] = set()
    for p in partitions:
        comp_vertices = p.vertices
        if not comp_vertices:
            raise InvalidPartitionError("empty partition")
        if comp_vertices != component_sets[labeling.component_of(min(comp_vertices))]:
            raise InvalidPartitionError("partition set is not a component")
        if covered & comp_vertices:
            raise InvalidPartitionError("partitions overlap")
        sub, ids = g.induced(comp_vertices)
        local = p.relabel({orig: j for j, orig in enumerate(ids)})
        report = verify_sqi(sub, n, local)
        if not report.all_pass:
            names = ", ".join(c.name for c in report.failed())
            raise InvalidPartitionError(f"partition fails: {names}")
        covered |= comp_vertices
    if covered != set(range(g.vertex_count)):
        raise InvalidPartitionError("partitions do not cover the graph")

    values: dict[int, Fraction] = {}
    for p in partitions:
        for v in p.S:
            values[v] = Fraction(n - 1, 4)
        for v in p.Q:
            values[v] = Fraction(n - 1, 2) - Fraction(g.degree(v), 2)
        for v in p.I:
            values[v] = Fraction(0)
    assert all(x >= 0 for x in values.values())
    return values


def check_f_inequality(g: Graph, n: int) -> tuple[bool, LossLedger]:
    """Verify that per-vertex losses sum to at most the graph loss.

    A False result indicates an implementation bug, not a property of the
    input; callers should treat it as fatal.
    """
    require_no_connected_matching(g, n)
    parts = component_partitions(g, n)
    values = f_vertex(g, n, parts)
    total = Fraction(n - 1, 2) * g.vertex_count - g.edge_count
    classes = {}
    for p in parts:
        for v in p.vertices:
            classes[v] = p.class_of(v)
    ledger = LossLedger("single", n, values, total, classes, {1: tuple(parts)})
    return ledger.vertex_sum <= total, ledger


def classify_vertices(
    g: Graph, coloring: EdgeColoring, n: int
) -> dict[int, VertexClass]:
    """Strong / Q-saturated / small classification over all color classes.

    A vertex is strong when some color puts it in S, Q-saturated when every
    color puts it in Q, and small otherwise.
    """
    return _classify(g, _color_partitions(g, coloring, n))


def _color_partitions(
    g: Graph, coloring: EdgeColoring, n: int
) -> dict[int, tuple[SQIPartition, ...]]:
    """S/Q/I partitions of every color class, after the detection guard.

    The unused colors share one tuple (see ``graphs.per_color``).
    """
    require_no_monochromatic_cm(g, coloring, n)
    return per_color(g, coloring, lambda cls: tuple(component_partitions(cls, n)))


def _classify(
    g: Graph, partitions: Mapping[int, tuple[SQIPartition, ...]]
) -> dict[int, VertexClass]:
    in_s = [False] * g.vertex_count
    q_count = [0] * g.vertex_count
    # Colors that share one partition tuple (the unused ones) are read once.
    for parts, count in distinct_with_counts(partitions):
        for p in parts:
            for v in p.S:
                in_s[v] = True
            for v in p.Q:
                q_count[v] += count
    k = len(partitions)
    out: dict[int, VertexClass] = {}
    for v in range(g.vertex_count):
        if in_s[v]:
            out[v] = VertexClass.STRONG
        elif q_count[v] == k:
            out[v] = VertexClass.Q_SATURATED
        else:
            out[v] = VertexClass.SMALL
    return out


def F_graph(g: Graph, coloring: EdgeColoring, n: int) -> Fraction:
    """Total loss over all colors: ``k * (n-1)/2 * v(G) - e(G)``."""
    require_no_monochromatic_cm(g, coloring, n)
    return Fraction(coloring.color_count * (n - 1), 2) * g.vertex_count - g.edge_count


def F_vertex(g: Graph, coloring: EdgeColoring, n: int) -> dict[int, Fraction]:
    """Per-vertex multicolor loss: ``(n-1)/4`` for strong vertices,
    ``k * (n-1)/2 - deg(v)/2`` for Q-saturated ones, 0 for small ones.

    These are the ``per_vertex`` values of check_F_inequality's ledger.
    """
    return dict(check_F_inequality(g, coloring, n)[1].per_vertex)


def check_F_inequality(
    g: Graph, coloring: EdgeColoring, n: int
) -> tuple[bool, LossLedger]:
    """Multicolor analogue of check_f_inequality."""
    partitions = _color_partitions(g, coloring, n)
    classes = _classify(g, partitions)
    k = coloring.color_count
    values: dict[int, Fraction] = {}
    for v in range(g.vertex_count):
        cls = classes[v]
        if cls is VertexClass.STRONG:
            values[v] = Fraction(n - 1, 4)
        elif cls is VertexClass.Q_SATURATED:
            values[v] = Fraction(k * (n - 1), 2) - Fraction(g.degree(v), 2)
        else:
            values[v] = Fraction(0)
    total = Fraction(k * (n - 1), 2) * g.vertex_count - g.edge_count
    ledger = LossLedger(
        "multi",
        n,
        values,
        total,
        {v: c.value for v, c in classes.items()},
        partitions,
    )
    return ledger.vertex_sum <= total, ledger
