"""Exact-rational edge-loss accounting for graphs without large connected
matchings.

The single-color loss of a graph is ``(n-1)/2 * v(G) - e(G)``; with k colors
it is ``k * (n-1)/2 * v(G) - e(G)``. Both totals distribute over vertices
through the S/Q/I partition of each component: S vertices carry ``(n-1)/4``,
Q vertices the gap between ``(n-1)/2`` and half their degree, I vertices
nothing. The per-vertex sum never exceeds the graph total; that inequality
is what the checkers verify, in exact arithmetic (denominators stay in
{1, 2, 4}).

Each entry decides its input class once. ``f_graph`` runs the single-color
guard, and ``f_vertex`` reaches it through ``f_graph`` after checking the
partitions it is given. ``check_f_inequality`` lets the partition pass
decide: the deficiency witness of every component on ``n`` or more
vertices fixes its matching number, and a smaller component cannot hold
``n/2`` matching edges. Only when that pass rejects a component does it
call ``f_graph``, whose error names the largest connected matching. The
multicolor entries make one pass over the colors' components
(``graphs.per_color``, in ``_color_analysis``), which builds no color
class; only a component on ``n`` or more vertices is built, on its own,
for its partition. A connected matching of size ``n/2`` lies in such a
component, so the pass runs the detector once, just before it partitions
the first one, and never on a coloring whose components all stay below
``n`` vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import HasLargeMatchingError, InvalidPartitionError
from .graphs import (
    ClassComponents,
    EdgeColoring,
    Graph,
    components,
    distinct_with_counts,
    per_color,
)
from .matching import require_no_connected_matching, require_no_monochromatic_cm
from .partition import SQIPartition, _partitions, component_partitions, verify_sqi


class VertexClass(enum.Enum):
    STRONG = "strong"
    Q_SATURATED = "q-saturated"
    SMALL = "small"

    def loss(self, n: int, k: int, degree: int) -> Fraction:
        """A vertex's share of the k-color loss: ``(n-1)/4`` when strong,
        ``k * (n-1)/2 - degree/2`` when Q-saturated, 0 when small.

        The single-color S/Q/I shares are the k = 1 case.
        """
        if self is VertexClass.STRONG:
            return Fraction(n - 1, 4)
        if self is VertexClass.Q_SATURATED:
            return Fraction(k * (n - 1) - degree, 2)
        return Fraction(0)


@dataclass(frozen=True)
class LossLedger:
    """Per-vertex loss values plus the graph-level total, and the partitions
    and single-color loss f of each color class.

    Colors that share one partition tuple (the unused ones) share one loss
    object too.
    """

    n: int
    per_vertex: Mapping[int, Fraction]
    total: Fraction
    classes: Mapping[int, str]
    partitions: Mapping[int, tuple[SQIPartition, ...]]  # keyed by color
    color_losses: Mapping[int, Fraction]  # keyed by color

    @property
    def vertex_sum(self) -> Fraction:
        return sum(self.per_vertex.values(), Fraction(0))

    @property
    def color_loss_sum(self) -> Fraction:
        """Sum of the color classes' losses, one term per shared value."""
        return sum(
            (f * count for f, count in distinct_with_counts(self.color_losses)),
            Fraction(0),
        )


def _loss(g: Graph | ClassComponents, n: int, k: int = 1) -> Fraction:
    """``k * (n-1)/2 * v(G) - e(G)``, with no guard; ``g`` may be a color
    class's components."""
    return Fraction(k * (n - 1), 2) * g.vertex_count - g.edge_count


def f_graph(g: Graph, n: int) -> Fraction:
    """Edge loss of the whole graph against ``(n-1)/2`` per vertex."""
    require_no_connected_matching(g, n)
    return _loss(g, n)


def f_vertex(
    g: Graph, n: int, partitions: Sequence[SQIPartition]
) -> dict[int, Fraction]:
    """Per-vertex loss, given valid partitions, one per component.

    Partitions that fail raise InvalidPartitionError first; a graph that
    passes then goes through ``f_graph``'s guard, as ``verify_sqi`` does not
    decide the input class (a triangle with a pendant edge at each corner
    passes it at n = 4 with S empty, and has a matching of size 3).
    """
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

    values = _ledger(g, n, {1: tuple(partitions)}, {1: f_graph(g, n)}).per_vertex
    assert all(x >= 0 for x in values.values())
    return values


def check_f_inequality(g: Graph, n: int) -> tuple[bool, LossLedger]:
    """Verify that per-vertex losses sum to at most the graph loss.

    The partition pass decides the input class: it raises on a component
    with a matching of size ``n/2``, and only then does ``f_graph`` run, to
    raise HasConnectedMatchingError naming the largest connected matching.
    Otherwise it runs one maximum matching per component on ``n`` or more
    vertices and none for smaller ones.

    A False result indicates an implementation bug, not a property of the
    input; callers should treat it as fatal.
    """
    try:
        parts = tuple(component_partitions(g, n))
    except HasLargeMatchingError:
        f_graph(g, n)  # raises, naming the largest connected matching
        raise
    # At k = 1 the strong, Q-saturated and small vertices are S, Q and I.
    ledger = _ledger(
        g, n, {1: parts}, {1: _loss(g, n)}, dict(zip(VertexClass, "SQI"))
    )
    return ledger.vertex_sum <= ledger.total, ledger


def classify_vertices(
    g: Graph, coloring: EdgeColoring, n: int
) -> dict[int, VertexClass]:
    """Strong / Q-saturated / small classification over all color classes.

    A vertex is strong when some color puts it in S, Q-saturated when every
    color puts it in Q, and small otherwise.
    """
    return _classify(g, _color_analysis(g, coloring, n)[0])


def _color_analysis(
    g: Graph, coloring: EdgeColoring, n: int
) -> tuple[dict[int, tuple[SQIPartition, ...]], dict[int, Fraction]]:
    """S/Q/I partitions and loss f of every color class, each keyed by
    color, from one pass over the colors' components.

    The pass reads each color's components from ``per_color`` and builds
    no class: a component on at most ``n-1`` vertices takes ``Q = V``, and
    only a larger one is built, on its own, for ``sqi_partition``. A
    connected matching of size ``n/2`` covers ``n`` vertices of one
    component, so the detection guard runs once, just before the first
    color with a component on ``n`` or more vertices is partitioned, and
    not at all when there is none. It scans every color, so it raises
    before any ``sqi_partition`` could and names the lowest color that
    holds such a matching; the losses need no guard of their own. The
    unused colors share one partition tuple and one loss (see
    ``graphs.per_color``).
    """
    guarded = False

    def analyze(cls: ClassComponents) -> tuple[tuple[SQIPartition, ...], Fraction]:
        nonlocal guarded
        if not guarded and max(cls.sizes, default=0) >= n:
            require_no_monochromatic_cm(g, coloring, n)
            guarded = True
        return tuple(_partitions(cls.components, n, cls.induced)), _loss(cls, n)

    analysis = per_color(g, coloring, analyze)
    partitions = {c: parts for c, (parts, _) in analysis.items()}
    losses = {c: f for c, (_, f) in analysis.items()}
    return partitions, losses


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


def check_F_inequality(
    g: Graph, coloring: EdgeColoring, n: int
) -> tuple[bool, LossLedger]:
    """Multicolor analogue of check_f_inequality."""
    ledger = _ledger(g, n, *_color_analysis(g, coloring, n))
    return ledger.vertex_sum <= ledger.total, ledger


def _ledger(
    g: Graph,
    n: int,
    partitions: Mapping[int, tuple[SQIPartition, ...]],
    color_losses: Mapping[int, Fraction],
    names: Mapping[VertexClass, str] | None = None,
) -> LossLedger:
    """Every loss ledger: ``_classify``'s classes, priced by ``VertexClass.loss``
    and named by ``names`` (default: their value), and ``_loss`` as total."""
    k = len(partitions)
    classes = _classify(g, partitions)
    return LossLedger(
        n,
        {v: c.loss(n, k, g.degree(v)) for v, c in classes.items()},
        _loss(g, n, k),
        {v: names[c] if names else c.value for v, c in classes.items()},
        partitions,
        color_losses,
    )
