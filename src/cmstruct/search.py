"""Monochromatic connected-matching detection and exact avoider search.

A connected matching is a matching whose edges all lie in one component of
the host graph. The detector scans color classes component by component; the
search walks the edges of a complete graph depth-first, pruning a branch as
soon as any color class gains a connected matching of the forbidden size.

Symmetry reduction is deliberately lightweight and provably sound: colors
are canonicalized by first use (color i+1 may first appear only after color
i), and the colors along the star at vertex 0 may be required to be
non-decreasing, since any coloring can be brought to that shape by permuting
the other vertices and then renaming colors by first use. Certified verdicts
never depend on worker count; with one worker the returned avoider is
deterministic.

The prune test is incremental and gives the same verdict as a fresh
matching: a branch dies iff the component that the new edge joins in its
color class now has matching number nu >= n/2. Per color the search keeps
an adjacency list, a mate array (the stored matching) and, for each
component, the stored matching's size and an upper bound on nu, with
size <= nu <= bound throughout:

- Adding one edge raises nu by at most one, so an edge merging components
  A and B gets bound(A) + bound(B) + 1, an edge inside one component gets
  bound + 1, and either is capped at half the component's order.
- If both ends are exposed they are matched at once.
- Only when bound >= n/2 > size does the search look further: one blossom
  BFS for an augmenting path from each exposed vertex of the component. By
  Edmonds' lemma a vertex with no augmenting path still has none after the
  matching grows along other paths, so one try per vertex leaves a maximum
  matching, and the bound drops to its size.

So the branch is viable iff the stored size stays below n/2. Every change
(adjacency entries, mate flips, union-find links, sizes and bounds) goes on
a trail and is restored in strict LIFO order on backtrack, so a popped
assignment leaves exactly the state it found.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .errors import (
    HasConnectedMatchingError,
    HasMonochromaticMatchingError,
    OddNError,
)
from .graphs import EdgeColoring, Graph, color_class, complete_graph, components
from .matching import _augment, matching_number, matching_of_size

FOUND = "found"
CERTIFIED_NONE = "certified_none"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class CMWitness:
    """A monochromatic connected matching: color, component, matching edges."""

    color: int
    component: frozenset[int]
    matching: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class SearchConfig:
    vertex_count: int
    color_count: int
    n: int
    node_budget: int = 10**9
    threads: int = 1
    color_first_use: bool = True
    vertex_canonicalization: bool = True

    def __post_init__(self):
        if self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.n < 2 or self.n % 2 != 0:
            raise OddNError(f"n must be an even integer >= 2, got {self.n}")


@dataclass(frozen=True)
class SearchResult:
    status: str
    coloring: EdgeColoring | None
    nodes: int


@dataclass(frozen=True)
class RamseyResult:
    """Outcome of scanning N upward for the first certified-none size."""

    color_count: int
    n: int
    status: str  # "exact" or "lower_bound"
    value: int | None
    lower_bound: int  # the smallest N not yet ruled out: R >= lower_bound
    avoider: EdgeColoring | None  # avoider on K_{lower_bound - 1}
    nodes: int


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


class _RollbackComponents:
    """Union-find with member lists and strict LIFO undo."""

    __slots__ = ("parent", "size", "members", "trail")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.members = [[v] for v in range(n)]
        self.trail: list[tuple[int, int]] = []

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            v = parent[v]
        return v

    def link(self, ra: int, rb: int) -> int:
        """Merge the components with roots ``ra`` and ``rb``; the new root."""
        if ra == rb:
            self.trail.append((-1, -1))
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.members[ra].extend(self.members[rb])
        self.trail.append((ra, rb))
        return ra

    def undo(self) -> None:
        ra, rb = self.trail.pop()
        if ra >= 0:
            self.parent[rb] = rb
            strip = self.size[rb]
            self.size[ra] -= strip
            del self.members[ra][-strip:]


class _ColorMatching:
    """One color class of the search: its components, its adjacency and a
    stored matching, each restored in strict LIFO order by ``remove``.

    ``matched[r]`` and ``bound[r]`` belong to the component with union-find
    root ``r``: the number of edges of the stored matching inside it, and an
    upper bound on its matching number.
    """

    __slots__ = ("comps", "adj", "mate", "matched", "bound", "target",
                 "trail", "flips")

    def __init__(self, n_vertices: int, target: int):
        self.comps = _RollbackComponents(n_vertices)
        self.adj: list[list[int]] = [[] for _ in range(n_vertices)]
        self.mate = [-1] * n_vertices
        self.matched = [0] * n_vertices
        self.bound = [0] * n_vertices
        self.target = target
        self.trail: list[tuple[int, int, int, int]] = []
        self.flips: list[tuple[int, int]] = []

    def add(self, u: int, v: int) -> bool:
        """Add edge uv; True while its component's matching number stays
        below ``target``."""
        comps = self.comps
        ra, rb = comps.find(u), comps.find(v)
        matched, bound = self.matched, self.bound
        if ra == rb:
            size, cap = matched[ra], bound[ra] + 1
        else:
            size, cap = matched[ra] + matched[rb], bound[ra] + bound[rb] + 1
        root = comps.link(ra, rb)
        flips = self.flips
        self.trail.append((root, matched[root], bound[root], len(flips)))
        half = comps.size[root] // 2
        if cap > half:
            cap = half
        adj, mate = self.adj, self.mate
        adj[u].append(v)
        adj[v].append(u)
        if mate[u] == -1 and mate[v] == -1:
            flips.append((u, -1))
            flips.append((v, -1))
            mate[u] = v
            mate[v] = u
            size += 1
        target = self.target
        if cap >= target and size < target:
            for w in comps.members[root]:
                if mate[w] == -1 and _augment(adj, mate, w, flips):
                    size += 1
                    if size >= target:
                        break
            else:
                cap = size
        matched[root] = size
        bound[root] = cap
        return size < target

    def remove(self, u: int, v: int) -> None:
        """Undo the latest ``add``, which must have been of edge uv."""
        root, size, cap, mark = self.trail.pop()
        flips, mate = self.flips, self.mate
        while len(flips) > mark:
            w, m = flips.pop()
            mate[w] = m
        self.matched[root] = size
        self.bound[root] = cap
        self.adj[u].pop()
        self.adj[v].pop()
        self.comps.undo()


class _BudgetExhausted(Exception):
    pass


class _Searcher:
    """Depth-first search over edge colorings of K_N."""

    def __init__(self, cfg: SearchConfig, prefix: tuple[int, ...] = ()):
        self.cfg = cfg
        n_vertices = cfg.vertex_count
        self.edge_list = [
            (u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
        ]
        self.color_of = [0] * len(self.edge_list)
        self.classes = [None] + [
            _ColorMatching(n_vertices, cfg.n // 2) for _ in range(cfg.color_count)
        ]
        self.nodes = 0
        self.prefix = prefix

    def _assign(self, idx: int, color: int) -> bool:
        """Apply one assignment; True if the branch stays viable."""
        self.color_of[idx] = color
        return self.classes[color].add(*self.edge_list[idx])

    def _unassign(self, idx: int) -> None:
        self.classes[self.color_of[idx]].remove(*self.edge_list[idx])
        self.color_of[idx] = 0

    def _choices(self, idx: int, max_used: int) -> range:
        cfg = self.cfg
        lo = 1
        if (
            cfg.vertex_canonicalization
            and 1 <= idx <= cfg.vertex_count - 2
        ):
            # Star edges at vertex 0 may be forced non-decreasing: any
            # coloring maps to that shape by permuting vertices 1..N-1.
            lo = self.color_of[idx - 1]
        hi = min(cfg.color_count, max_used + 1) if cfg.color_first_use else cfg.color_count
        return range(lo, hi + 1)

    def _dfs(self, idx: int, max_used: int) -> tuple[int, ...] | None:
        if idx == len(self.edge_list):
            return tuple(self.color_of)
        for color in self._choices(idx, max_used):
            if self.nodes >= self.cfg.node_budget:
                raise _BudgetExhausted
            self.nodes += 1
            viable = self._assign(idx, color)
            if viable:
                hit = self._dfs(idx + 1, max(max_used, color))
                if hit is not None:
                    return hit
            self._unassign(idx)
        return None

    def run(self) -> SearchResult:
        # Replay the prefix; a pruned prefix certifies its subtree empty.
        max_used = 0
        depth = 0
        for color in self.prefix:
            if not self._assign(depth, color):
                return SearchResult(CERTIFIED_NONE, None, 0)
            max_used = max(max_used, color)
            depth += 1
        try:
            hit = self._dfs(depth, max_used)
        except _BudgetExhausted:
            return SearchResult(BUDGET_EXHAUSTED, None, self.nodes)
        if hit is None:
            return SearchResult(CERTIFIED_NONE, None, self.nodes)
        assignment = {
            edge: color for edge, color in zip(self.edge_list, hit)
        }
        coloring = EdgeColoring(self.cfg.color_count, assignment)
        g = complete_graph(self.cfg.vertex_count)
        assert find_mono_cm(g, coloring, self.cfg.n) is None
        return SearchResult(FOUND, coloring, self.nodes)

    def prefixes(self, depth: int) -> list[tuple[int, ...]]:
        """Viable assignments of the first ``depth`` edges."""
        out: list[tuple[int, ...]] = []

        def walk(idx: int, max_used: int, acc: tuple[int, ...]):
            if idx == depth:
                out.append(acc)
                return
            for color in self._choices(idx, max_used):
                if self._assign(idx, color):
                    walk(idx + 1, max(max_used, color), acc + (color,))
                self._unassign(idx)

        walk(0, 0, ())
        return out


def _run_subtree(cfg: SearchConfig, prefix: tuple[int, ...]) -> SearchResult:
    return _Searcher(cfg, prefix).run()


def search_avoider(cfg: SearchConfig) -> SearchResult:
    """Exhaustive search for a coloring of K_N with no monochromatic
    connected matching of size ``n/2``.

    Outcomes: FOUND with a detector-confirmed coloring, CERTIFIED_NONE after
    exhausting the (symmetry-reduced) space, or BUDGET_EXHAUSTED once the
    node budget runs out; the latter two are never conflated.

    With ``threads > 1`` the first edges are enumerated into prefixes and
    each prefix's subtree gets a share of ``node_budget``; the shares sum to
    at most the budget. The reported node count then covers the subtree
    searches only, not the enumeration or the replay of the prefixes.
    """
    if cfg.vertex_count < cfg.n:
        # A connected matching of size n/2 covers n vertices, so any
        # coloring of a smaller complete graph avoids trivially.
        g = complete_graph(cfg.vertex_count)
        coloring = EdgeColoring(cfg.color_count, {e: 1 for e in g.edges})
        assert find_mono_cm(g, coloring, cfg.n) is None
        return SearchResult(FOUND, coloring, 0)
    if cfg.threads == 1:
        return _Searcher(cfg).run()

    edge_total = cfg.vertex_count * (cfg.vertex_count - 1) // 2
    depth = min(edge_total, max(2, cfg.vertex_count - 1))
    prefixes = _Searcher(cfg).prefixes(depth)
    if not prefixes:
        return SearchResult(CERTIFIED_NONE, None, 0)
    # Split the budget so the shares sum to it exactly; a prefix whose share
    # is 0 counts as exhausted without being run.
    share, extra = divmod(cfg.node_budget, len(prefixes))
    budgets = [share + 1 if i < extra else share for i in range(len(prefixes))]
    runnable = [p for p, b in zip(prefixes, budgets) if b > 0]
    worker_cfgs = [
        replace(cfg, threads=1, node_budget=b) for b in budgets if b > 0
    ]
    exhausted = len(runnable) < len(prefixes)
    nodes = 0
    # The pool starts every worker up front, so never ask for more than
    # there are subtrees or CPUs.
    workers = min(cfg.threads, len(runnable), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for result in pool.map(_run_subtree, worker_cfgs, runnable):
            nodes += result.nodes
            if result.status == FOUND:
                return SearchResult(FOUND, result.coloring, nodes)
            if result.status == BUDGET_EXHAUSTED:
                exhausted = True
    status = BUDGET_EXHAUSTED if exhausted else CERTIFIED_NONE
    return SearchResult(status, None, nodes)


def restrict_coloring(coloring: EdgeColoring, keep: int) -> EdgeColoring:
    """Coloring induced on the first ``keep`` vertices of a complete graph."""
    kept = {
        e: c for e, c in coloring.assignment.items() if e[0] < keep and e[1] < keep
    }
    return EdgeColoring(coloring.color_count, kept)


def ramsey_cm(
    color_count: int, n: int, n_max: int, node_budget: int = 10**9
) -> RamseyResult:
    """Smallest N such that every coloring of K_N is certified to contain a
    monochromatic connected matching of size ``n/2``.

    Scans N upward; avoidance is monotone under vertex deletion, so the
    first certified-none N is the answer. With the budget exhausted first,
    the result degrades to the best verified lower bound. The reported node
    count never exceeds ``node_budget``.
    """
    if n < 2 or n % 2 != 0:
        raise OddNError(f"n must be an even integer >= 2, got {n}")
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    avoider: EdgeColoring | None = None
    total = 0
    size = 1
    # Sizes below n cost no nodes, so the budget runs out only at a size >= n.
    while size <= n_max and total < node_budget:
        cfg = SearchConfig(size, color_count, n, node_budget=node_budget - total)
        result = search_avoider(cfg)
        total += result.nodes
        if result.status == CERTIFIED_NONE:
            return RamseyResult(color_count, n, "exact", size, size, avoider, total)
        if result.status != FOUND:
            break
        if size >= 2:
            shrunk = restrict_coloring(result.coloring, size - 1)
            sub = complete_graph(size - 1)
            assert find_mono_cm(sub, shrunk, n) is None, (
                "restriction of an avoider must avoid"
            )
        avoider = result.coloring
        size += 1
    return RamseyResult(color_count, n, "lower_bound", None, size, avoider, total)
