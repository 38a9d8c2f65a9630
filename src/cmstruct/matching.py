"""Maximum matching, deficiency witnesses and connected-matching detection.

The matching routine is an array-based Edmonds blossom search: repeated BFS
for augmenting paths with blossom contraction tracked through ``base``
pointers, O(V^3) overall. Vertices are always scanned in ascending id order,
so results are deterministic for a fixed input.

Deficiency witnesses follow Gallai-Edmonds (Lovász-Plummer, *Matching
Theory*, ch. 3): one maximum matching plus one failed blossom search per
exposed vertex, also O(V^3).

A connected matching is a matching whose edges all lie in one component of
the host graph. The detector scans color classes component by component and
returns a witness that ``check_witness`` re-validates independently; the
``require_no_*`` guards protect the analyses defined only on inputs without
a connected matching of size n/2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    HasConnectedMatchingError,
    HasMonochromaticMatchingError,
    OddNError,
)
from .graphs import EdgeColoring, Graph, color_class, components


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


def _lowest_common_base(mate: list[int], parent: list[int], base: list[int],
                        a: int, b: int) -> int:
    seen = [False] * len(mate)
    while True:
        a = base[a]
        seen[a] = True
        if mate[a] == -1:
            break
        a = parent[mate[a]]
    while True:
        b = base[b]
        if seen[b]:
            return b
        b = parent[mate[b]]


def _mark_blossom_path(mate: list[int], parent: list[int], base: list[int],
                       v: int, root_base: int, child: int,
                       in_blossom: list[bool]) -> None:
    while base[v] != root_base:
        in_blossom[base[v]] = True
        in_blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def _augment(adj: tuple[tuple[int, ...], ...] | list[list[int]],
             mate: list[int], root: int,
             log: list[tuple[int, int]] | None = None,
             outer: set[int] | None = None) -> bool:
    """One blossom BFS for an augmenting path from the exposed ``root``.

    If a path is found, flips it in ``mate`` (one more matched edge) and
    returns True. Each overwritten entry is appended to ``log`` as
    ``(vertex, previous mate)``, so a caller can undo the flip by restoring
    the log in reverse. Only ``root``'s component of ``adj`` is explored.
    Otherwise the search's outer (even) vertices are added to ``outer``.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    queue = deque([root])
    in_queue[root] = True
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                # Odd cycle through two even-level vertices: contract it.
                root_base = _lowest_common_base(mate, parent, base, v, to)
                in_blossom = [False] * n
                _mark_blossom_path(mate, parent, base, v, root_base, to, in_blossom)
                _mark_blossom_path(mate, parent, base, to, root_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = root_base
                        if not in_queue[i]:
                            in_queue[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    # Augmenting path found: flip matched edges back to root.
                    u = to
                    while u != -1:
                        pv = parent[u]
                        next_u = mate[pv]
                        if log is not None:
                            log.append((u, mate[u]))
                            log.append((pv, next_u))
                        mate[u] = pv
                        mate[pv] = u
                        u = next_u
                    return True
                if not in_queue[mate[to]]:
                    in_queue[mate[to]] = True
                    queue.append(mate[to])
    if outer is not None:
        outer.update(i for i in range(n) if in_queue[i])
    return False


def _max_matching_mates(adj: tuple[tuple[int, ...], ...] | list[list[int]],
                        stop_at: int | None = None) -> list[int]:
    """Mate array of a maximum matching (-1 for exposed vertices).

    ``stop_at`` ends the search early once the matching reaches that many
    edges; the partial matching returned is then of size exactly ``stop_at``.
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
            return mate

    # By Edmonds' lemma a vertex with no augmenting path keeps none after
    # other augmentations, so one try per exposed vertex suffices.
    for v in range(n):
        if stop_at is not None and size >= stop_at:
            break
        if mate[v] == -1 and _augment(adj, mate, v):
            size += 1
    return mate


def matching_number(g: Graph) -> int:
    mate = _max_matching_mates(g.adjacency)
    return sum(1 for v, m in enumerate(mate) if m > v)


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of ``g``, deterministic for fixed input."""
    mate = _max_matching_mates(g.adjacency)
    return Matching(frozenset((v, m) for v, m in enumerate(mate) if m > v))


def matching_of_size(g: Graph, target: int) -> Matching | None:
    """A matching with exactly ``target`` edges, or None if none exists."""
    mate = _max_matching_mates(g.adjacency, stop_at=target)
    edges = sorted((v, m) for v, m in enumerate(mate) if m > v)
    if len(edges) < target:
        return None
    return Matching(frozenset(edges[:target]))


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
    outer vertices of a failed blossom search from each exposed vertex of
    one maximum matching. The returned set attains the maximum of
    odd_components(G-S) - |S| over all S.
    """
    mate = _max_matching_mates(g.adjacency)
    deficiency = mate.count(-1)
    inessential: set[int] = set()
    for root, m in enumerate(mate):
        if m == -1:  # no augmenting path, as the matching is maximum
            _augment(g.adjacency, mate, root, outer=inessential)
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
        sub, _ = g.induced(comp)
        nu = matching_number(sub)
        if nu > best:
            best = nu
            best_comp = comp
    return max(best, 0), best_comp


def check_witness(g: Graph, coloring: EdgeColoring, n: int, w: CMWitness) -> bool:
    """Independent re-validation of a detector witness."""
    if len(w.matching) != n // 2:
        return False
    seen: set[int] = set()
    for u, v in w.matching:
        if not g.has_edge(u, v) or coloring.color_of(u, v) != w.color:
            return False
        if u in seen or v in seen or not {u, v} <= w.component:
            return False
        seen.update((u, v))
    cls = color_class(g, coloring, w.color)
    labeling = components(cls)
    anchor = next(iter(w.matching))[0]
    return w.component == labeling.vertex_sets()[labeling.component_of(anchor)]


def find_mono_cm(g: Graph, coloring: EdgeColoring, n: int) -> CMWitness | None:
    """First monochromatic connected matching of size ``n/2``, if any.

    Colors are scanned in ascending order, components in labeling order, so
    the witness is deterministic. Returns None iff no color class has a
    component whose matching number reaches ``n/2``.
    """
    if n < 2 or n % 2 != 0:
        raise OddNError(f"n must be an even integer >= 2, got {n}")
    target = n // 2
    for color in range(1, coloring.color_count + 1):
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


def require_no_connected_matching(g: Graph, n: int) -> None:
    """Guard for operations defined only on graphs without a connected
    matching of size ``n/2``."""
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
