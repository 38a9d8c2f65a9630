"""Brute-force ground truth used to certify the fast implementations.

Everything here is deliberately independent of the library's algorithms:
matchings by bitmask dynamic programming, deficiency by enumerating every
vertex subset, detection by enumerating colors and components, and the
orbits of colorings of K_N by enumerating every vertex permutation.
Intended for graphs of at most ~12 vertices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from cmstruct import EdgeColoring, Graph


def adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def brute_matching_number(g: Graph) -> int:
    masks = adjacency_masks(g)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        result = best(rest)
        nbrs = masks[v] & rest
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            u = low.bit_length() - 1
            result = max(result, 1 + best(rest & ~(1 << u)))
        return result

    value = best((1 << g.vertex_count) - 1)
    best.cache_clear()
    return value


def component_masks(masks: list[int], alive: int) -> list[int]:
    comps = []
    while alive:
        comp = alive & -alive
        frontier = comp
        while frontier:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                grown |= masks[low.bit_length() - 1]
            frontier = grown & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def brute_deficiency(g: Graph) -> int:
    """max over all vertex sets S of (odd components of G-S) - |S|."""
    masks = adjacency_masks(g)
    full = (1 << g.vertex_count) - 1
    best = 0
    for removed in range(1 << g.vertex_count):
        odd = sum(
            1
            for comp in component_masks(masks, full & ~removed)
            if comp.bit_count() % 2 == 1
        )
        best = max(best, odd - removed.bit_count())
    return best


def brute_gallai_edmonds(g: Graph) -> frozenset[int]:
    """The Gallai-Edmonds set A = N(D) minus D, where D holds every vertex
    whose deletion leaves the matching number unchanged."""
    nu = brute_matching_number(g)
    d = set()
    for v in range(g.vertex_count):
        # Isolating v has the same matching number as deleting it.
        rest = Graph(g.vertex_count, frozenset(e for e in g.edges if v not in e))
        if brute_matching_number(rest) == nu:
            d.add(v)
    return frozenset(u for v in d for u in g.neighbors(v) if u not in d)


def brute_max_connected_matching(g: Graph) -> int:
    masks = adjacency_masks(g)
    full = (1 << g.vertex_count) - 1
    best = 0
    for comp in component_masks(masks, full):
        vertices = [v for v in range(g.vertex_count) if comp >> v & 1]
        sub, _ = g.induced(vertices)
        best = max(best, brute_matching_number(sub))
    return best


def brute_has_mono_cm(g: Graph, coloring: EdgeColoring, n: int) -> bool:
    for color in range(1, coloring.color_count + 1):
        kept = frozenset(e for e, c in coloring.assignment.items() if c == color)
        if brute_max_connected_matching(Graph(g.vertex_count, kept)) >= n // 2:
            return True
    return False


def has_augmenting_path(g: Graph, matching_edges) -> bool:
    """Exhaustive search for an alternating path between exposed vertices."""
    mate: dict[int, int] = {}
    for u, v in matching_edges:
        mate[u] = v
        mate[v] = u
    exposed = [v for v in range(g.vertex_count) if v not in mate]

    def walk(v: int, visited: frozenset[int]) -> bool:
        # Next edge out of v must be unmatched.
        for u in g.neighbors(v):
            if u in visited or mate.get(v) == u:
                continue
            if u not in mate:
                return True
            w = mate[u]
            if w not in visited and walk(w, visited | {u, w}):
                return True
        return False

    return any(walk(s, frozenset([s])) for s in exposed)


def all_graphs(n: int):
    """Every graph on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(
            n, (pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        )


def all_partitions_sqi(g: Graph, n: int):
    """Every (S, Q, I) assignment satisfying the four partition conditions."""
    v = g.vertex_count
    target = min(v, n - 1)
    for labels in itertools.product("SQI", repeat=v):
        s = frozenset(i for i in range(v) if labels[i] == "S")
        q = frozenset(i for i in range(v) if labels[i] == "Q")
        ind = frozenset(i for i in range(v) if labels[i] == "I")
        if len(q) + 2 * len(s) != target:
            continue
        if v <= n - 1 and ind:
            continue
        if any(g.has_edge(a, b) for a in ind for b in ind if a < b):
            continue
        if any(sum(1 for b in g.neighbors(a) if b in ind) > 1 for a in q):
            continue
        if any(g.degree(a) >= n // 2 for a in ind):
            continue
        yield s, q, ind


def first_use(colors) -> tuple[int, ...]:
    """``colors`` with the colors renamed 1, 2, ... in order of first use."""
    names = {c: i for i, c in enumerate(dict.fromkeys(colors), 1)}
    return tuple(map(names.__getitem__, colors))


@lru_cache(maxsize=None)
def _pair_maps(vertex_count: int) -> tuple[tuple[int, ...], ...]:
    """Per vertex permutation p, the index of the pair {p(a), p(b)} for
    each pair {a, b} of K_N, pairs in lexicographic order."""
    pairs = list(itertools.combinations(range(vertex_count), 2))
    index = {e: i for i, e in enumerate(pairs)}
    return tuple(
        tuple(index[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs)
        for p in itertools.permutations(range(vertex_count))
    )


def canonical_form(vertex_count: int, colors) -> tuple[int, ...]:
    """The least member of the orbit of a coloring of K_N under vertex and
    color permutations; ``colors`` lists the colors of the pairs in
    lexicographic order. First use is the least renaming of one vertex
    order, so the form is the minimum over all vertex permutations of the
    permuted colors renamed by first use."""
    return min(
        first_use(tuple(map(colors.__getitem__, m))) for m in _pair_maps(vertex_count)
    )


def first_use_colorings(edge_count: int, color_count: int):
    """Every sequence of ``edge_count`` colors from ``1..color_count`` in
    which each color first appears after all smaller ones."""
    if edge_count == 0:
        yield ()
        return
    for head in first_use_colorings(edge_count - 1, color_count):
        for color in range(1, min(max(head, default=0) + 1, color_count) + 1):
            yield head + (color,)


def brute_avoider_forms(vertex_count: int, color_count: int, n: int) -> set:
    """The canonical forms of the colorings of K_N with colors
    ``1..color_count`` and no monochromatic connected matching of size
    ``n/2``. First-use colorings are enough: color renaming reaches the
    rest of each orbit."""
    pairs = list(itertools.combinations(range(vertex_count), 2))
    g = Graph(vertex_count, pairs)
    return {
        canonical_form(vertex_count, colors)
        for colors in first_use_colorings(len(pairs), color_count)
        if not brute_has_mono_cm(
            g, EdgeColoring(color_count, dict(zip(pairs, colors))), n
        )
    }
