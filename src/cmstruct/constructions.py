"""Generators for test and lower-bound colorings.

The affine-plane coloring colors the complete graph on q^2 points by the
slope of the line through each pair, so every color class is a parallel
class: q disjoint cliques of q vertices. The other generators are seeded
and deterministic; random colors come from the Mersenne Twister behind
``random.Random``, which produces identical streams for a fixed seed on
every platform. ``random_coloring`` draws each color straight from
``getrandbits``, as ``randrange`` does inside, so its colorings are those
of ``randrange(1, k + 1)`` at a fraction of the cost.
``bounded_component_coloring`` still calls ``shuffle``. Drawing its stream
by hand too would give the same colorings faster, but that waits until the
benchmark's peak-memory reading no longer grows with its number of timed
passes.

Every generator lays out edges it normalized itself and colors it drew from
``1..k``, so its output is valid by construction: the graph and coloring
come from ``graphs._graph`` and ``graphs._colored``, as ``parse_graph``'s
do, and are not checked again.
"""

from __future__ import annotations

import random

from .errors import NotPrimeError
from .graphs import EdgeColoring, Graph, _colored, _graph

# Every generator lays out all edges of K_N: random_coloring plus
# complete_graph already peak at about 200 MB for N = 1,000.
MAX_VERTICES = 1024


def _check_order(n_vertices: int) -> None:
    if n_vertices > MAX_VERTICES:
        raise ValueError(f"n_vertices must be <= {MAX_VERTICES}, got {n_vertices}")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def affine_plane_coloring(q: int) -> tuple[Graph, EdgeColoring]:
    """Slope coloring of K_{q^2} with q + 1 colors, q prime.

    Vertex ``x * q + y`` is the point (x, y) over the field of q elements.
    Colors 1..q are the finite slopes 0..q-1; color q + 1 is vertical.
    Prime powers would need genuine field arithmetic and are rejected.
    """
    if q * q > MAX_VERTICES:
        raise ValueError(f"q^2 must be <= {MAX_VERTICES}, got q = {q}")
    if not _is_prime(q):
        raise NotPrimeError(f"q must be prime, got {q}")
    points = q * q
    assignment: dict[tuple[int, int], int] = {}
    for u in range(points):
        x1, y1 = divmod(u, q)
        for v in range(u + 1, points):
            x2, y2 = divmod(v, q)
            if x1 == x2:
                color = q + 1
            else:
                slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
                color = slope + 1
            assignment[(u, v)] = color
    return _graph(points, assignment), _colored(q + 1, assignment)


def disjoint_cliques_coloring(
    n_vertices: int, k: int, max_clique: int, seed: int | None = None
) -> EdgeColoring | None:
    """Greedy attempt to partition K_N's edges into k clique unions.

    Each color class becomes a disjoint union of cliques on at most
    ``max_clique`` vertices. Per color, vertices are taken one at a time and
    placed in the first open block all of whose members they have not yet
    been paired with. Returns None when some pair remains uncovered after k
    rounds; with a seed, the vertex order of each round is shuffled. Once
    every pair is covered the remaining rounds could only place singleton
    blocks, so they are skipped.
    """
    if n_vertices < 1 or k < 1 or max_clique < 1:
        raise ValueError("n_vertices, k, max_clique must all be >= 1")
    _check_order(n_vertices)
    rng = random.Random(seed) if seed is not None else None
    uncovered = {
        (u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
    }
    assignment: dict[tuple[int, int], int] = {}
    for color in range(1, k + 1):
        if not uncovered:
            break
        order = list(range(n_vertices))
        if rng is not None:
            rng.shuffle(order)
        blocks: list[list[int]] = []
        for v in order:
            placed = False
            for block in blocks:
                if len(block) >= max_clique:
                    continue
                if all(
                    ((u, v) if u < v else (v, u)) in uncovered for u in block
                ):
                    block.append(v)
                    placed = True
                    break
            if not placed:
                blocks.append([v])
        for block in blocks:
            block.sort()
            for i, u in enumerate(block):
                for v in block[i + 1 :]:
                    uncovered.remove((u, v))
                    assignment[(u, v)] = color
    if uncovered:
        return None
    return _colored(k, assignment)


def random_coloring(n_vertices: int, k: int, seed: int = 0) -> EdgeColoring:
    """Uniform independent colors on K_N's edges, lexicographic edge order."""
    if n_vertices < 1 or k < 1:
        raise ValueError("n_vertices and k must be >= 1")
    _check_order(n_vertices)
    # randrange(1, k + 1) draws k.bit_length() bits until they fall below k;
    # drawing them here skips its argument checks, with the same stream.
    draw = random.Random(seed).getrandbits
    bits = k.bit_length()
    assignment: dict[tuple[int, int], int] = {}
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            c = draw(bits)
            while c >= k:
                c = draw(bits)
            assignment[(u, v)] = c + 1
    return _colored(k, assignment)


def bounded_component_coloring(
    n_vertices: int, k: int, max_component: int, seed: int = 0
) -> tuple[Graph, EdgeColoring]:
    """Random colored graph whose monochromatic components stay small.

    Edges of K_N are visited in a seeded random order; each gets a random
    admissible color, i.e. one whose component containing either endpoint
    would not grow beyond ``max_component`` vertices. Inadmissible edges are
    left out of the graph entirely.
    """
    if n_vertices < 1 or k < 1 or max_component < 1:
        raise ValueError("n_vertices, k, max_component must all be >= 1")
    _check_order(n_vertices)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    rng.shuffle(edges)
    parent = [list(range(n_vertices)) for _ in range(k + 1)]
    size = [[1] * n_vertices for _ in range(k + 1)]

    def find(color: int, v: int) -> int:
        p = parent[color]
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    assignment: dict[tuple[int, int], int] = {}
    for u, v in edges:
        colors = list(range(1, k + 1))
        rng.shuffle(colors)
        for color in colors:
            ru, rv = find(color, u), find(color, v)
            merged = size[color][ru] if ru == rv else size[color][ru] + size[color][rv]
            if merged <= max_component:
                if ru != rv:
                    parent[color][rv] = ru
                    size[color][ru] = merged
                assignment[(u, v)] = color
                break
    return _graph(n_vertices, assignment), _colored(k, assignment)
