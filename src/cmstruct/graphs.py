"""Immutable simple graphs, edge colorings, components, and serialization.

Vertices are dense 0-based integers; isolated vertices are representable
(``vertex_count`` may exceed the number of touched vertices). Adjacency is
precomputed at construction and all operations are pure, so values can be
shared freely across threads.

Subgraphs cost time proportional to their own size, not to the host's.
The public constructor ``Graph(n, edges)`` checks, normalizes and
deduplicates every edge in one pass. Graphs derived from checked data skip
that pass: ``parse_graph`` checks each edge line as it reads it,
``color_class`` keeps edges of a checked graph, and ``Graph.induced``
relabels a checked adjacency, so all three fill the fields through the
private ``Graph._checked``. An ``EdgeColoring`` indexes its edges by color
at construction, so ``color_class`` reads only the edges of its color,
O(E_c), and ``Graph.induced`` walks only the adjacency of the chosen
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import ColorRangeError, GraphFormatError

# Largest vertex count parse_graph accepts; Graph builds one list per vertex.
MAX_VERTICES = 10**6

T = TypeVar("T")


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _sorted_rows(adj: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, map(sorted, adj)))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..vertex_count-1``.

    ``Graph(n, edges)`` (and ``from_edges``) checks every edge: it rejects
    self-loops and ids outside ``0..n-1``, stores each edge once as
    ``(low, high)`` and builds the sorted adjacency. ``parse_graph``,
    ``color_class`` and ``induced`` build their graphs from data that is
    already checked, through ``Graph._checked``, which checks nothing.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        # One pass: normalize to (low, high), check, deduplicate and fill
        # the adjacency; errors name the edge as given.
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for e in self.edges:
            u, v = e
            if u < v:
                if u < 0 or v >= n:
                    raise ValueError(f"edge ({u}, {v}) out of range 0..{n - 1}")
                if type(e) is not tuple:
                    e = (u, v)
            elif v < u:
                if v < 0 or u >= n:
                    raise ValueError(f"edge ({u}, {v}) out of range 0..{n - 1}")
                u, v = v, u
                e = (u, v)
            else:
                raise ValueError(f"self-loop at vertex {u}")
            if e not in seen:
                seen.add(e)
                adj[u].append(v)
                adj[v].append(u)
        self._fill(n, frozenset(seen), _sorted_rows(adj))

    @classmethod
    def _checked(
        cls,
        vertex_count: int,
        edges: frozenset[tuple[int, int]],
        adj: tuple[tuple[int, ...], ...],
    ) -> Graph:
        """Graph from fields already in canonical form; nothing is checked.

        ``edges`` holds distinct ``(low, high)`` pairs inside
        ``0..vertex_count-1`` and ``adj`` their sorted neighbor tuples.
        """
        g = object.__new__(cls)
        g._fill(vertex_count, edges, adj)
        return g

    def _fill(self, vertex_count, edges, adj) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", adj)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        return cls(vertex_count, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced(self, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Subgraph induced on ``vertices``.

        Returns the relabeled graph plus the sorted original ids, so local
        vertex ``j`` corresponds to original id ``ids[j]``. Walks only the
        adjacency of the chosen vertices: O(s log s + sum of their degrees)
        for s vertices. Raises ValueError on an id outside
        ``0..vertex_count-1``.
        """
        ids = tuple(sorted(set(vertices)))
        if ids and (ids[0] < 0 or ids[-1] >= self.vertex_count):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise ValueError(
                f"vertex {bad} out of range 0..{self.vertex_count - 1}"
            )
        index = {orig: j for j, orig in enumerate(ids)}
        adj = self._adj
        # ids and every adjacency row are sorted and index keeps their
        # order, so each local row comes out sorted; each edge is taken
        # once, from its smaller end, already as (low, high).
        rows = tuple(tuple([index[w] for w in adj[u] if w in index]) for u in ids)
        sub = frozenset(
            (j, i) for j, row in enumerate(rows) for i in row if i > j
        )
        return Graph._checked(len(ids), sub, rows), ids


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors ``1..color_count`` to a graph's edges.

    Construction also indexes the edges by color, so a color's edge list
    costs nothing to look up.
    """

    color_count: int
    assignment: Mapping[tuple[int, int], int]
    _by_color: dict[int, list[tuple[int, int]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        if self.color_count < 1:
            raise ValueError("color_count must be positive")
        normalized = {}
        for e, color in self.assignment.items():
            u, v = e
            if not 1 <= color <= self.color_count:
                raise ColorRangeError(
                    f"color {color} on edge ({u}, {v}) outside 1..{self.color_count}"
                )
            if v < u:
                e = (v, u)
            elif type(e) is not tuple:
                e = (u, v)
            normalized[e] = color
        object.__setattr__(self, "assignment", normalized)
        # Built from the normalized map, so an edge given in both
        # orientations is listed once, under the color it kept.
        by_color: dict[int, list[tuple[int, int]]] = {}
        for e, color in normalized.items():
            edges = by_color.get(color)
            if edges is None:
                by_color[color] = [e]
            else:
                edges.append(e)
        object.__setattr__(
            self, "_by_color", {c: by_color[c] for c in sorted(by_color)}
        )

    def color_of(self, u: int, v: int) -> int:
        return self.assignment[_normalize_edge(u, v)]

    def colors_used(self) -> tuple[int, ...]:
        """Colors that carry at least one edge, in ascending order."""
        return tuple(self._by_color)

    def edges_of_color(self, color: int) -> list[tuple[int, int]]:
        return sorted(self._by_color.get(color, ()))

    def validate_against(self, g: Graph) -> None:
        """Raise unless this coloring covers exactly the edges of ``g``."""
        if set(self.assignment) != set(g.edges):
            missing = set(g.edges) - set(self.assignment)
            extra = set(self.assignment) - set(g.edges)
            raise ValueError(
                f"coloring does not match edge set (missing {sorted(missing)[:3]}, "
                f"extra {sorted(extra)[:3]})"
            )


@dataclass(frozen=True)
class ComponentLabeling:
    """Dense 0-based component ids, numbered by smallest contained vertex."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def component_of(self, v: int) -> int:
        return self.labels[v]

    def vertex_sets(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.count)]
        for v, c in enumerate(self.labels):
            sets[c].add(v)
        return tuple(frozenset(s) for s in sets)


def components(g: Graph) -> ComponentLabeling:
    """Connected components of ``g``, discovered in ascending vertex order."""
    labels = [-1] * g.vertex_count
    sizes: list[int] = []
    for start in range(g.vertex_count):
        if labels[start] != -1:
            continue
        cid = len(sizes)
        stack = [start]
        labels[start] = cid
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for u in g.neighbors(v):
                if labels[u] == -1:
                    labels[u] = cid
                    stack.append(u)
        sizes.append(size)
    return ComponentLabeling(tuple(labels), tuple(sizes))


def color_class(g: Graph, coloring: EdgeColoring, color: int) -> Graph:
    """Spanning subgraph of ``g`` keeping exactly the edges of one color.

    Reads the coloring's edge list for ``color`` and keeps the edges that
    lie in ``g``: O(V + E_c) for E_c edges of that color, independent of
    the other colors. The kept edges are edges of ``g``, so nothing is
    checked again.
    """
    if not 1 <= color <= coloring.color_count:
        raise ColorRangeError(f"color {color} outside 1..{coloring.color_count}")
    edges = g.edges
    kept = [e for e in coloring._by_color.get(color, ()) if e in edges]
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in kept:
        adj[u].append(v)
        adj[v].append(u)
    return Graph._checked(g.vertex_count, frozenset(kept), _sorted_rows(adj))


def per_color(
    g: Graph, coloring: EdgeColoring, fn: Callable[[Graph], T]
) -> dict[int, T]:
    """``fn`` of every color class of ``g``, keyed by color ``1..k``.

    All colors that no edge uses share one edgeless class and one ``fn``
    call, so the calls number the used colors plus at most one.
    """
    used = {c: fn(color_class(g, coloring, c)) for c in coloring.colors_used()}
    if len(used) == coloring.color_count:
        return used
    edgeless = fn(Graph(g.vertex_count, ()))
    out = dict.fromkeys(range(1, coloring.color_count + 1), edgeless)
    out.update(used)
    return out


def distinct_with_counts(values: Mapping[int, T]) -> list[tuple[T, int]]:
    """Each distinct object among ``values`` with the number of keys that
    share it, in first-seen order.

    On a ``per_color`` result this is one entry per used color plus one for
    all unused colors, so sums and passes weighted by the count cost the
    used colors, not k.
    """
    groups: dict[int, list] = {}
    for value in values.values():
        group = groups.get(id(value))
        if group is None:
            groups[id(value)] = [value, 1]
        else:
            group[1] += 1
    return [(value, count) for value, count in groups.values()]


# -- construction helpers ----------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` pendant vertices."""
    return Graph.from_edges(leaves + 1, ((0, v) for v in range(1, leaves + 1)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((v, v + 1) for v in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union; vertex ids of later graphs are shifted upward."""
    offset = 0
    total = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.vertex_count
        total = offset
    return Graph.from_edges(total, edges)


# -- text format -------------------------------------------------------------
#
# One record per line:
#   # comment
#   p cm <N> <k>
#   e <u> <v> <color>
#
# Uncolored graphs are written with k=1 and color 1 on every edge.

def parse_graph(text: str) -> tuple[Graph, EdgeColoring]:
    """Parse the edge-list text format.

    Returns the graph together with its coloring; a ``k=1`` coloring stands
    for an uncolored graph. Errors report the offending 1-based line number.
    Each edge line is checked as it is read and fills the adjacency, so the
    graph is not checked again.
    """
    vertex_count = None
    color_count = None
    assignment: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "p":
            if vertex_count is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "cm":
                raise GraphFormatError(f"bad header {raw.strip()!r}", lineno)
            try:
                vertex_count, color_count = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(
                    f"bad header {raw.strip()!r}", lineno
                ) from None
            if vertex_count < 0 or color_count < 1:
                raise GraphFormatError("header requires N >= 0 and k >= 1", lineno)
            if vertex_count > MAX_VERTICES:
                raise GraphFormatError(
                    f"header N = {vertex_count} exceeds {MAX_VERTICES}", lineno
                )
            adj = [[] for _ in range(vertex_count)]
        elif parts[0] == "e":
            if vertex_count is None or color_count is None:
                raise GraphFormatError("edge before header", lineno)
            if len(parts) != 4:
                raise GraphFormatError(f"bad edge line {raw.strip()!r}", lineno)
            try:
                u, v, color = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(
                    f"bad edge line {raw.strip()!r}", lineno
                ) from None
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphFormatError(
                    f"vertex id out of range 0..{vertex_count - 1}", lineno
                )
            if not 1 <= color <= color_count:
                raise GraphFormatError(
                    f"color {color} outside 1..{color_count}", lineno
                )
            key = (u, v) if u < v else (v, u)
            if key in assignment:
                raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
            assignment[key] = color
            adj[u].append(v)
            adj[v].append(u)
        else:
            raise GraphFormatError(f"unknown record {parts[0]!r}", lineno)
    if vertex_count is None or color_count is None:
        raise GraphFormatError("missing 'p cm <N> <k>' header", 1)
    g = Graph._checked(vertex_count, frozenset(assignment), _sorted_rows(adj))
    return g, EdgeColoring(color_count, assignment)


def serialize(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """Canonical text form: header, then edges in ascending order."""
    if coloring is None:
        coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    coloring.validate_against(g)
    lines = [f"p cm {g.vertex_count} {coloring.color_count}"]
    for u, v in g.sorted_edges():
        lines.append(f"e {u} {v} {coloring.color_of(u, v)}")
    return "\n".join(lines) + "\n"


def to_dot(
    g: Graph,
    coloring: EdgeColoring | None = None,
    classes: Mapping[int, str] | None = None,
) -> str:
    """DOT export: one cluster per component, color and class attributes."""
    labeling = components(g)
    out = ["graph g {"]
    for cid, members in enumerate(labeling.vertex_sets()):
        out.append(f"  subgraph cluster_{cid} {{")
        for v in sorted(members):
            if classes and v in classes:
                out.append(f'    {v} [class="{classes[v]}"];')
            else:
                out.append(f"    {v};")
        out.append("  }")
    for u, v in g.sorted_edges():
        if coloring is not None:
            out.append(f"  {u} -- {v} [color={coloring.color_of(u, v)}];")
        else:
            out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
