"""Immutable simple graphs, edge colorings, components, and serialization.

Vertices are dense 0-based integers; isolated vertices are representable
(``vertex_count`` may exceed the number of touched vertices). Adjacency is
precomputed at construction and all operations are pure, so values can be
shared freely across threads.

Subgraphs cost time proportional to their own size, not to the host's.
The public ``Graph(n, edges)`` and ``EdgeColoring(k, assignment)`` check
and normalize all they are given; no module of the package calls them.
Its own graphs and colorings are valid by construction and come from
``_graph`` and ``_colored``, which set fields through ``_build`` and check
only for a negative order: parsed ones (``parse_graph`` checks each line
as it reads it, converting and range-checking each distinct numeral once
per call through its tables of known vertex-id and color numerals),
color classes, ``induced_coloring``, the generated graphs
(``complete_graph``, ``star_graph``, ``path_graph``, ``cycle_graph``,
``disjoint_union``), the component subgraphs of ``color_components``,
``serialize``'s default coloring, the seeded ``constructions`` and the
search's avoiders; ``Graph.induced`` relabels a checked adjacency. Only
this module lays out the fields, sorted adjacency rows (``_rows``) and
the by-color index (``_index``), so ``color_class``, the detector's
pre-check ``_spans`` and ``color_components`` read only the edges of
their color, and ``Graph.induced`` walks only the adjacency of the chosen
vertices.

``per_color`` is the one pass over the color classes, and it builds no
class: ``color_components`` splits a class into its components by a
union-find over the color's edges, O(V + E_c), and builds the subgraph
of a component only when asked. The detector (``matching.find_mono_cm``)
still builds a class through ``color_class`` for each color that
``_spans`` finds a component on n vertices in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping, TypeVar

from .errors import ColorRangeError, GraphFormatError

# Largest vertex count parse_graph accepts; Graph builds one list per vertex.
MAX_VERTICES = 10**6
# Largest color count parse_graph accepts; every analysis keeps one entry
# per color.
MAX_COLORS = 10**6

T = TypeVar("T")


def _build(cls: type[T], **fields) -> T:
    """``cls`` with ``fields`` set as given, in the form its checking
    constructor would store them; nothing is checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _rows(n: int, edges: Collection[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency rows on ``0..n-1`` of normalized, distinct
    ``edges``, a dict or a list, in any order: every row is sorted once
    it is filled, so ``parse_graph``'s file order gives the same rows as
    the ascending order of the generators."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, map(sorted, adj)))


def _graph(n: int, edges: Collection[tuple[int, int]]) -> Graph:
    """``Graph(n, edges)`` of normalized, distinct ``edges`` in range, as
    ``_rows`` takes them; only a negative ``n`` is checked."""
    if n < 0:
        raise ValueError("vertex_count must be nonnegative")
    return _build(Graph, vertex_count=n, edges=frozenset(edges), _adj=_rows(n, edges))


def _colored(k: int, assignment: dict[tuple[int, int], int]) -> EdgeColoring:
    """``EdgeColoring(k, assignment)`` of a normalized assignment with
    colors in ``1..k``; nothing is checked."""
    return _build(EdgeColoring, color_count=k, assignment=assignment,
                  _by_color=_index(assignment))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..vertex_count-1``.

    ``Graph(n, edges)`` checks every edge: it rejects self-loops and ids
    outside ``0..n-1``, stores each edge once as ``(low, high)`` and builds
    the sorted adjacency. Graphs the package builds come from ``_graph``
    or ``induced`` and are not checked.
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
        # Normalize to (low, high), check and deduplicate in the order
        # given; errors name the edge as given.
        seen: dict[tuple[int, int], None] = {}
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
            seen[e] = None
        object.__setattr__(self, "edges", frozenset(seen))
        object.__setattr__(self, "_adj", _rows(n, seen))

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
        return _build(Graph, vertex_count=len(ids), edges=sub, _adj=rows), ids


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors ``1..color_count`` to a graph's edges.

    ``EdgeColoring(k, assignment)`` checks every color against ``1..k`` and
    stores each edge as ``(low, high)``; colorings the package builds come
    from ``_colored`` and are not checked. Either way the edges are indexed
    by color, so a color's edge list costs nothing to look up.
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
        object.__setattr__(self, "_by_color", _index(normalized))

    def color_of(self, u: int, v: int) -> int:
        return self.assignment[_normalize_edge(u, v)]

    def colors_used(self) -> tuple[int, ...]:
        """Colors that carry at least one edge, in ascending order."""
        return tuple(self._by_color)

    def edges_of_color(self, color: int) -> list[tuple[int, int]]:
        return sorted(self._by_color.get(color, ()))

    def validate_against(self, g: Graph) -> None:
        """Raise unless this coloring covers exactly the edges of ``g``."""
        colored = self.assignment.keys()
        if colored != g.edges:
            missing = g.edges - colored
            extra = colored - g.edges
            raise ValueError(
                f"coloring does not match edge set (missing {sorted(missing)[:3]}, "
                f"extra {sorted(extra)[:3]})"
            )


def _index(assignment) -> dict[int, list[tuple[int, int]]]:
    """Edges of a normalized assignment by color: colors ascending, each
    list in the assignment's order."""
    by_color: dict[int, list[tuple[int, int]]] = {}
    for e, color in assignment.items():
        edges = by_color.get(color)
        if edges is None:
            by_color[color] = [e]
        else:
            edges.append(e)
    return {c: by_color[c] for c in sorted(by_color)}


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
    return _graph(g.vertex_count, kept)


@dataclass(frozen=True, eq=False)
class ClassComponents:
    """The components of one color class, split without building the class.

    ``components`` holds every component, isolated vertices included, as a
    sorted vertex tuple, in ascending order of smallest vertex (the order of
    ``components(color_class(...)).vertex_sets()``).
    """

    vertex_count: int
    components: tuple[tuple[int, ...], ...]
    _edges: list[tuple[int, int]] = field(repr=False, compare=False)
    # Smallest vertex of each vertex's component.
    _root: list[int] = field(repr=False, compare=False)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.components))

    def induced(self, comp: tuple[int, ...]) -> tuple[Graph, tuple[int, ...]]:
        """The class induced on ``comp``, one of ``components``, relabeled
        as ``Graph.induced`` does, with ``comp`` as its id tuple.

        The class's edges are grouped by component on the first call, so
        all calls together cost O(V + E_c).
        """
        index = {orig: j for j, orig in enumerate(comp)}
        # comp is sorted, so index keeps the order of each (low, high) edge.
        edges = [(index[u], index[v]) for u, v in self._by_root.get(comp[0], ())]
        return _graph(len(comp), edges), comp

    @cached_property
    def _by_root(self) -> dict[int, list[tuple[int, int]]]:
        groups: dict[int, list[tuple[int, int]]] = {}
        for e in self._edges:
            groups.setdefault(self._root[e[0]], []).append(e)
        return groups


def color_components(g: Graph, coloring: EdgeColoring, color: int) -> ClassComponents:
    """The components of ``color_class(g, coloring, color)``, from the same
    edges, O(V + E_c): no class, no adjacency rows and no search."""
    if not 1 <= color <= coloring.color_count:
        raise ColorRangeError(f"color {color} outside 1..{coloring.color_count}")
    edges = g.edges
    kept = [e for e in coloring._by_color.get(color, ()) if e in edges]
    return _split(g.vertex_count, kept)


def _split(n: int, edges: list[tuple[int, int]]) -> ClassComponents:
    """``ClassComponents`` of the graph on ``0..n-1`` with normalized,
    distinct ``edges``, by a union-find kept in a list.

    Each union hangs the larger root under the smaller one and each find
    halves its path, so every pointer leads to a smaller vertex and a root
    is its component's smallest vertex. One ascending pass then settles
    each vertex's root from its parent's, already settled, and lists the
    components in order, each sorted.
    """
    root = list(range(n))
    for u, v in edges:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u < v:
            root[v] = u
        elif v < u:
            root[u] = v
    members: dict[int, list[int]] = {}
    for v in range(n):
        r = root[v] = root[root[v]]
        if r == v:
            members[v] = [v]
        else:
            members[r].append(v)
    return ClassComponents(n, tuple(map(tuple, members.values())), edges, root)


def _spans(g: Graph, coloring: EdgeColoring, color: int, order: int) -> bool:
    """Whether the edges of ``color`` that lie in ``g`` join ``order`` or
    more vertices into one component.

    A union-find kept in dicts, so the cost is O(E_c) whatever ``g``'s
    vertex count; it stops at the first component on ``order`` vertices.
    """
    edges = coloring._by_color.get(color, ())
    if len(edges) < order - 1:
        return False
    host = g.edges
    parent: dict[int, int] = {}
    size: dict[int, int] = {}
    for e in edges:
        if e not in host:
            continue
        u, v = e
        while u in parent:
            u = parent[u]
        while v in parent:
            v = parent[v]
        if u != v:
            su, sv = size.get(u, 1), size.get(v, 1)
            if su < sv:
                u, v = v, u
            if su + sv >= order:
                return True
            parent[v] = u
            size[u] = su + sv
    return False


def induced_coloring(
    g: Graph, coloring: EdgeColoring, vertices: Iterable[int]
) -> tuple[Graph, EdgeColoring]:
    """``g.induced(vertices)``'s subgraph with the colors ``coloring`` gives
    its edges; they come from a checked coloring and are not checked again."""
    sub, ids = g.induced(vertices)
    # ids is sorted, so (ids[a], ids[b]) is normalized for every a < b.
    colors = {e: coloring.assignment[ids[e[0]], ids[e[1]]] for e in sub.edges}
    return sub, _colored(coloring.color_count, colors)


def per_color(
    g: Graph, coloring: EdgeColoring, fn: Callable[[ClassComponents], T]
) -> dict[int, T]:
    """``fn`` of the components of every color class of ``g`` (see
    ``color_components``), keyed by color ``1..k``.

    All colors that no edge uses share one all-singletons record and one
    ``fn`` call, so the calls number the used colors plus at most one.
    """
    used = {c: fn(color_components(g, coloring, c)) for c in coloring.colors_used()}
    if len(used) == coloring.color_count:
        return used
    unused = fn(_split(g.vertex_count, []))
    out = dict.fromkeys(range(1, coloring.color_count + 1), unused)
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
    return _graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` pendant vertices."""
    return _graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def path_graph(n: int) -> Graph:
    return _graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return _graph(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union; vertex ids of later graphs are shifted upward."""
    offset = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.vertex_count
    return _graph(offset, edges)


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
    Each edge line is checked as it is read and fills the adjacency and the
    assignment, so neither the graph nor the coloring is checked again.
    Most lines of a file are edge lines, so the loop tests first for a
    four-field ``e`` line after the header; headers, comments and malformed
    lines take the other branches.

    A file repeats few distinct numerals many times (the affine plane of
    order 13 has 42,588 numerals but 169 vertex ids and 14 colors), so one
    call keeps two tables: ``ids`` maps each numeral already read as a
    vertex id to its int, checked to lie in ``0..N-1``, and ``colors`` each
    numeral already read as a color to its int, checked to lie in
    ``1..k``. A line whose three numerals are all known needs only the
    self-loop and duplicate tests; any other line, and a self-loop, is
    converted and checked in full, and only once it passes are its
    numerals recorded. So every error keeps its line, message and
    precedence, and numerals spelled apart (``1``, ``01``, ``+1``) are
    separate keys with one int.
    """
    vertex_count = None
    color_count = None
    assignment: dict[tuple[int, int], int] = {}
    ids: dict[str, int] = {}
    colors: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 4 and parts[0] == "e" and vertex_count is not None:
            try:
                u, v, color = ids[parts[1]], ids[parts[2]], colors[parts[3]]
            except KeyError:
                u = v = None
            if u == v:
                # A numeral not in the tables, or a self-loop: convert and
                # check the line in full, then record its numerals.
                try:
                    u, v, color = int(parts[1]), int(parts[2]), int(parts[3])
                except ValueError:
                    raise GraphFormatError(
                        f"bad edge line {raw.strip()!r}", lineno
                    ) from None
                if not (
                    u != v
                    and 0 <= u < vertex_count
                    and 0 <= v < vertex_count
                    and 0 < color <= color_count
                ):
                    raise _edge_bounds_error(
                        u, v, color, vertex_count, color_count, lineno
                    )
                ids[parts[1]], ids[parts[2]], colors[parts[3]] = u, v, color
            key = (u, v) if u < v else (v, u)
            if key in assignment:
                raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
            assignment[key] = color
        elif not parts or parts[0].startswith("#"):
            continue
        elif parts[0] == "p":
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
            if color_count > MAX_COLORS:
                raise GraphFormatError(
                    f"header k = {color_count} exceeds {MAX_COLORS}", lineno
                )
        elif parts[0] == "e":
            # Before the header, or after it with a wrong field count.
            if vertex_count is None:
                raise GraphFormatError("edge before header", lineno)
            raise GraphFormatError(f"bad edge line {raw.strip()!r}", lineno)
        else:
            raise GraphFormatError(f"unknown record {parts[0]!r}", lineno)
    if vertex_count is None or color_count is None:
        raise GraphFormatError("missing 'p cm <N> <k>' header", 1)
    return _graph(vertex_count, assignment), _colored(color_count, assignment)


def _edge_bounds_error(
    u: int, v: int, color: int, vertex_count: int, color_count: int, lineno: int
) -> GraphFormatError:
    """The error of an edge line that fails a bounds check, diagnosed in
    order: a self-loop, then a vertex id out of range, then the color."""
    if u == v:
        return GraphFormatError(f"self-loop at vertex {u}", lineno)
    if not (0 <= u < vertex_count and 0 <= v < vertex_count):
        return GraphFormatError(f"vertex id out of range 0..{vertex_count - 1}", lineno)
    return GraphFormatError(f"color {color} outside 1..{color_count}", lineno)


def serialize(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """Canonical text form: header, then edges in ascending order."""
    if coloring is None:
        coloring = _colored(1, dict.fromkeys(g.edges, 1))
    coloring.validate_against(g)
    # The assignment's keys, normalized, are exactly the edges of g.
    color_of = coloring.assignment
    lines = [f"p cm {g.vertex_count} {coloring.color_count}"]
    for e in g.sorted_edges():
        lines.append(f"e {e[0]} {e[1]} {color_of[e]}")
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
