"""Seeded random instance generators for the test and acceptance suites."""

from __future__ import annotations

import random

from cmstruct import EdgeColoring, Graph, bounded_component_coloring, disjoint_union


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges with probability p."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges)


def low_matching_connected(rng: random.Random, n: int, spread: int = 10) -> Graph:
    """Connected graph whose matching number stays below n/2.

    Either a small graph (at most n-1 vertices, where the matching number
    cannot reach n/2), or a hub construction: s hub vertices plus odd
    "blob" components hanging off them, with s + sum((b_i - 1)/2) at most
    n/2 - 1. Removing the hubs leaves the blobs as odd components, which
    caps the matching number at that sum.
    """
    cap = n // 2 - 1  # largest allowed matching number
    if cap == 0 or rng.random() < 0.35:
        v = rng.randint(1, max(1, n - 1))
        return random_connected_graph(rng, v, rng.random() * 0.8)

    hubs = rng.randint(1, cap)
    blob_budget = cap - hubs
    sizes = []
    while blob_budget > 0 and rng.random() < 0.6:
        take = rng.randint(1, blob_budget)
        sizes.append(2 * take + 1)
        blob_budget -= take
    sizes += [1] * rng.randint(1, hubs + 2 + rng.randint(0, spread))
    rng.shuffle(sizes)

    edges = []
    # Hub path keeps the hubs connected regardless of blob attachments.
    for h in range(1, hubs):
        edges.append((h - 1, h))
    for u in range(hubs):
        for v in range(u + 2, hubs):
            if rng.random() < 0.4:
                edges.append((u, v))
    offset = hubs
    for size in sizes:
        blob = list(range(offset, offset + size))
        for i in range(1, size):  # random tree inside the blob
            edges.append((blob[rng.randrange(i)], blob[i]))
        for i in range(size):
            for j in range(i + 1, size):
                if (blob[i], blob[j]) not in edges and rng.random() < 0.4:
                    edges.append((blob[i], blob[j]))
        anchors = {rng.randrange(hubs)}
        while rng.random() < 0.4:
            anchors.add(rng.randrange(hubs))
        for hub in anchors:
            edges.append((hub, rng.choice(blob)))
        offset += size
    return Graph(offset, edges)


def avoiding_graph(rng: random.Random, n: int) -> Graph:
    """Graph with no connected matching of size n/2 (possibly disconnected)."""
    parts = [low_matching_connected(rng, n) for _ in range(rng.randint(1, 3))]
    return disjoint_union(parts)


def avoiding_coloring(
    rng: random.Random, n_vertices: int, k: int, n: int
) -> tuple[Graph, EdgeColoring]:
    """Colored graph with no monochromatic connected matching of size n/2.

    Components in every color are capped at n-1 vertices, which makes
    avoidance structural; random edge drops add variety.
    """
    g, coloring = bounded_component_coloring(
        n_vertices, k, n - 1, seed=rng.randrange(2**30)
    )
    kept = {e: c for e, c in coloring.assignment.items() if rng.random() < 0.9}
    g = Graph(n_vertices, frozenset(kept))
    return g, EdgeColoring(k, kept)
