"""Maximum matching, deficiency witnesses and connected-matching detection.

One Edmonds forest search, ``_Forest.augment``, serves everything here and
the search kernel above: a BFS that grows alternating trees from a given set
of exposed roots, contracts blossoms through ``base`` pointers, and flips
the path it finds, or only reports it when the caller asks for no flip. Its
arrays are allocated once per ``_Forest`` and reset entry by entry after
each search. A maximum matching starts greedily. Then every search is
rooted at all exposed vertices at once and either flips one augmenting
path or fails; by Berge's theorem the first that fails proves the matching
maximum and ends the loop. That is at most V/2 + 1 searches of O(V^2)
each, O(V^3) overall. A matching of a given size stops as soon as it has
that many edges. Results are deterministic for a fixed input.

Deficiency witnesses follow Gallai-Edmonds (Lovász-Plummer, *Matching
Theory*, ch. 3): D is the set of outer vertices of a failed forest search
rooted at all exposed vertices of a maximum matching. That is the search
that ended the matching's loop, so a witness runs no search of its own.

A connected matching is a matching whose edges all lie in one component of
the host graph. The detector builds only the color classes in which the
pre-check ``graphs._spans`` finds a component on n or more vertices, the
only ones that can hold n/2 matching edges, and scans them component by
component. ``check_witness`` re-validates the witness independently, by a
BFS over the witness color's edges that builds no class; the
``require_no_*`` guards protect the analyses defined only on inputs without
a connected matching of size n/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HasConnectedMatchingError,
    HasMonochromaticMatchingError,
    OddNError,
)
from .graphs import EdgeColoring, Graph, _spans, color_class, components


@dataclass(frozen=True)
class Matching:
    """Set of pairwise vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


@dataclass(frozen=True)
class DeficiencyWitness:
    """Vertex set certifying how many vertices every maximum matching misses.

    ``deficiency == len(odd_components) - len(witness)``, asserted in
    ``tutte_berge``. It also equals ``v(G) - 2*matching_number``, because it
    counts the exposed vertices of a maximum matching.
    """

    witness: frozenset[int]
    deficiency: int
    odd_components: tuple[frozenset[int], ...]


class _Forest:
    """Reusable arrays of one Edmonds forest search on vertices 0..V-1.

    ``augment`` grows one alternating forest from a set of exposed roots,
    breadth first and in ascending neighbor order, contracting blossoms
    through ``base`` pointers. ``parent`` links the inner vertices (and,
    after a contraction, the outer ones on the blossom) to the path back to
    their root; ``even`` marks the outer vertices. Every search resets the
    entries it touched before it returns, so one object serves any number
    of searches without allocating per search.
    """

    __slots__ = ("parent", "base", "even", "seen", "in_blossom", "queue", "inner")

    def __init__(self, vertex_count: int):
        self.parent = [-1] * vertex_count
        self.base = list(range(vertex_count))
        self.even = [False] * vertex_count
        self.seen = [False] * vertex_count  # scratch of the common-base walk
        self.in_blossom = [False] * vertex_count  # scratch of a contraction
        self.queue: list[int] = []  # the outer vertices of the last search
        self.inner: list[int] = []  # the inner vertices of the last search

    def _common_base(self, mate: list[int], a: int, b: int) -> int:
        """Base of the blossom closed by the edge ab of two outer vertices,
        or -1 if they lie in different trees."""
        parent, base, seen = self.parent, self.base, self.seen
        path = []
        while True:
            a = base[a]
            seen[a] = True
            path.append(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                break
            if mate[b] == -1:
                b = -1
                break
            b = parent[mate[b]]
        for a in path:
            seen[a] = False
        return b

    def _mark_blossom_path(self, mate: list[int], v: int, root_base: int,
                           child: int, marked: list[int]) -> None:
        parent, base, in_blossom = self.parent, self.base, self.in_blossom
        while base[v] != root_base:
            for b in (base[v], base[mate[v]]):
                if not in_blossom[b]:
                    in_blossom[b] = True
                    marked.append(b)
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def _flip(self, mate: list[int], u: int,
              log: list[tuple[int, int]] | None) -> None:
        """Flip the alternating path from ``u`` back to its root: ``u`` is
        matched to its parent, the parent's old mate to its own parent, and
        so on (nothing if ``u`` is -1)."""
        parent = self.parent
        while u != -1:
            pu = parent[u]
            next_u = mate[pu]
            if log is not None:
                log.append((u, mate[u]))
                log.append((pu, next_u))
            mate[u] = pu
            mate[pu] = u
            u = next_u

    def augment(self, adj: tuple[tuple[int, ...], ...] | list[list[int]],
                mate: list[int], roots: list[int] | tuple[int, ...],
                log: list[tuple[int, int]] | None = None,
                flip: bool = True) -> bool:
        """Search for an augmenting path from the exposed ``roots``.

        True exactly when an augmenting path joins two roots, or a root and
        an exposed vertex outside ``roots``. With ``flip`` the path found is
        flipped in ``mate`` (one more matched edge), and each overwritten
        entry is appended to ``log`` as ``(vertex, previous mate)``, so a
        caller can undo the flip by restoring the log in reverse. Without
        it the search only decides: ``mate`` and ``log`` are left as they
        were, for a caller that needs to know that a path exists but not to
        keep it. Only the roots' components of ``adj`` are explored. After a
        failed search, ``queue`` lists its outer vertices.
        """
        parent, base, even = self.parent, self.base, self.even
        queue, inner = self.queue, self.inner
        queue.clear()
        inner.clear()
        for r in roots:
            even[r] = True
            queue.append(r)
        found = False
        head = 0
        while head < len(queue) and not found:
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if even[to]:
                    root_base = self._common_base(mate, v, to)
                    if root_base == -1:
                        # Two trees meet: flip the half-path of ``to`` to
                        # its root, then treat ``to`` as reached from v.
                        if flip:
                            self._flip(mate, mate[to], log)
                        parent[to] = v
                        found = True
                        break
                    # Odd cycle through two outer vertices of one tree:
                    # contract it.
                    marked: list[int] = []
                    self._mark_blossom_path(mate, v, root_base, to, marked)
                    self._mark_blossom_path(mate, to, root_base, v, marked)
                    in_blossom = self.in_blossom
                    for i in range(len(adj)):
                        if in_blossom[base[i]]:
                            base[i] = root_base
                            if not even[i]:
                                even[i] = True
                                queue.append(i)
                    for b in marked:
                        in_blossom[b] = False
                elif parent[to] == -1:
                    parent[to] = v
                    inner.append(to)
                    if mate[to] == -1:
                        found = True
                        break
                    if not even[mate[to]]:
                        even[mate[to]] = True
                        queue.append(mate[to])
        if found and flip:
            self._flip(mate, to, log)
        for w in queue:
            parent[w] = -1
            base[w] = w
            even[w] = False
        for w in inner:
            parent[w] = -1
            base[w] = w
        return found


def _max_matching_mates(
    adj: tuple[tuple[int, ...], ...] | list[list[int]],
    stop_at: int | None = None,
) -> tuple[list[int], list[int] | None]:
    """Mate array of a matching (-1 for exposed vertices), and the outer
    vertices of the failed forest search rooted at all its exposed
    vertices, the search that proved it maximum.

    ``stop_at`` ends the loop once the matching has exactly that many
    edges. The outer vertices are None iff that target was reached;
    otherwise the matching is maximum and smaller than the target.
    """
    n = len(adj)
    mate = [-1] * n

    # Greedy warm start keeps the number of augmentation phases low.
    size = 0
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    size += 1
                    break
        if stop_at is not None and size >= stop_at:
            return mate, None

    # Berge's theorem: a matching is maximum iff no augmenting path is
    # left. Each search, rooted at every exposed vertex, flips one such
    # path or fails, and the failed one proves the matching maximum with
    # D as its outer vertices (see ``tutte_berge``).
    forest = _Forest(n)
    while stop_at is None or size < stop_at:
        exposed = [u for u in range(n) if mate[u] == -1]
        if not forest.augment(adj, mate, exposed):
            return mate, forest.queue
        size += 1
    return mate, None


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of ``g``, deterministic for fixed input."""
    mate, _ = _max_matching_mates(g.adjacency)
    return Matching(frozenset((v, m) for v, m in enumerate(mate) if m > v))


def matching_number(g: Graph) -> int:
    return maximum_matching(g).size


def matching_of_size(g: Graph, target: int) -> Matching | None:
    """A matching with exactly ``target`` edges, or None if none exists."""
    mate, outer = _max_matching_mates(g.adjacency, stop_at=target)
    if outer is not None:
        return None
    return Matching(frozenset((v, m) for v, m in enumerate(mate) if m > v))


def odd_components(g: Graph, removed: frozenset[int] | set[int]) -> list[frozenset[int]]:
    """Odd-order components of ``g`` minus a vertex set.

    Sorted by size descending, then by smallest contained vertex id.
    """
    sub, ids = g.induced(v for v in range(g.vertex_count) if v not in removed)
    comps = [
        frozenset(ids[v] for v in comp)
        for comp in components(sub).vertex_sets()
        if len(comp) % 2 == 1
    ]
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def tutte_berge(g: Graph) -> DeficiencyWitness:
    """Deficiency of ``g`` with an explicit witness set.

    The witness is the set of vertices outside D with a neighbor in D, where
    D collects every vertex missed by at least one maximum matching: the
    outer vertices of one failed forest search rooted at every exposed
    vertex of one maximum matching (the even-alternating reach of the
    exposed vertices). D is the same whichever maximum matching is found.
    The search is the last one of ``_max_matching_mates``' loop, the first
    from every exposed vertex that finds no augmenting path, so D costs no
    search beyond the matching. The returned set attains the maximum of
    odd_components(G-S) - |S| over all S.
    """
    mate, outer = _max_matching_mates(g.adjacency)
    assert outer is not None, "maximum matching came without its proof"
    deficiency = mate.count(-1)
    inessential = set(outer)
    witness = frozenset(
        u
        for v in inessential
        for u in g.neighbors(v)
        if u not in inessential
    )
    odd = odd_components(g, witness)
    assert len(odd) - len(witness) == deficiency, "witness certificate failed"
    return DeficiencyWitness(witness, deficiency, tuple(odd))


@dataclass(frozen=True)
class CMWitness:
    """A monochromatic connected matching: color, component, matching edges."""

    color: int
    component: frozenset[int]
    matching: frozenset[tuple[int, int]]


def max_connected_matching(g: Graph) -> tuple[int, frozenset[int]]:
    """Largest matching within a single component, with a witness component.

    Ties break toward the component containing the smallest vertex id.
    """
    best = -1
    best_comp: frozenset[int] = frozenset()
    for comp in components(g).vertex_sets():
        if len(comp) // 2 <= best:
            continue  # too small to hold a larger matching than the best
        sub, _ = g.induced(comp)
        nu = matching_number(sub)
        if nu > best:
            best = nu
            best_comp = comp
    return max(best, 0), best_comp


def check_witness(g: Graph, coloring: EdgeColoring, n: int, w: CMWitness) -> bool:
    """Independent re-validation of a detector witness; the component is
    found again by a BFS over the witness color's edges in ``g``."""
    if len(w.matching) != n // 2:
        return False
    seen: set[int] = set()
    for u, v in w.matching:
        if not g.has_edge(u, v) or coloring.color_of(u, v) != w.color:
            return False
        if u in seen or v in seen or not {u, v} <= w.component:
            return False
        seen.update((u, v))
    edges = g.edges
    adj: dict[int, list[int]] = {}
    for u, v in coloring.edges_of_color(w.color):
        if (u, v) in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    anchor = next(iter(w.matching))[0]
    reached = {anchor}
    stack = [anchor]
    while stack:
        for u in adj.get(stack.pop(), ()):
            if u not in reached:
                reached.add(u)
                stack.append(u)
    return reached == w.component


def find_mono_cm(g: Graph, coloring: EdgeColoring, n: int) -> CMWitness | None:
    """First monochromatic connected matching of size ``n/2``, if any.

    Colors that carry an edge are scanned in ascending order, components
    in labeling order, so the witness is deterministic. Returns None iff no
    color class has a component whose matching number reaches ``n/2``.
    A color is built into its class only if ``_spans`` finds a component
    on n or more vertices among its edges in ``g``; the others hold no
    such component, so skipping them keeps the verdict and the witness.
    A color with fewer than n - 1 edges is skipped without a pass.
    """
    require_even_n(n)
    target = n // 2
    for color in coloring.colors_used():
        if not _spans(g, coloring, color, n):
            continue
        cls = color_class(g, coloring, color)
        for comp in components(cls).vertex_sets():
            if len(comp) < n:
                continue
            sub, ids = cls.induced(comp)
            found = matching_of_size(sub, target)
            if found is not None:
                witness = CMWitness(
                    color,
                    comp,
                    frozenset((ids[a], ids[b]) for a, b in found.edges),
                )
                assert check_witness(g, coloring, n, witness)
                return witness
    return None


def require_even_n(n: int) -> None:
    """Guard for the matching-size parameter: ``n`` must be even and >= 2."""
    if n < 2 or n % 2 != 0:
        raise OddNError(f"n must be an even integer >= 2, got {n}")


def require_no_connected_matching(g: Graph, n: int) -> None:
    """Guard for operations defined only on graphs without a connected
    matching of size ``n/2``."""
    require_even_n(n)
    size, _ = max_connected_matching(g)
    if size >= n // 2:
        raise HasConnectedMatchingError(
            f"graph has a connected matching of size {size} >= {n // 2}"
        )


def require_no_monochromatic_cm(g: Graph, coloring: EdgeColoring, n: int) -> None:
    """Guard for operations defined only on colorings without a
    monochromatic connected matching of size ``n/2``."""
    witness = find_mono_cm(g, coloring, n)
    if witness is not None:
        raise HasMonochromaticMatchingError(
            f"color {witness.color} has a connected matching of size {n // 2}"
        )
