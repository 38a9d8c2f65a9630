"""Maximum matching and deficiency witnesses for general graphs.

The matching routine is an array-based Edmonds blossom search: repeated BFS
for augmenting paths with blossom contraction tracked through ``base``
pointers, O(V^3) overall. Vertices are always scanned in ascending id order,
so results are deterministic for a fixed input.

Deficiency witnesses follow Gallai-Edmonds (Lovász-Plummer, *Matching
Theory*, ch. 3): one maximum matching plus one failed blossom search per
exposed vertex, also O(V^3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph


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

    ``deficiency == len(odd_components) - len(witness)`` and also equals
    ``v(G) - 2*matching_number``; both are asserted at construction time.
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
    removed = set(removed)
    seen = set(removed)
    comps: list[frozenset[int]] = []
    for start in range(g.vertex_count):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(comp) % 2 == 1:
            comps.append(frozenset(comp))
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
