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
from .matching import _max_matching_mates, matching_number, matching_of_size

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

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
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
        self.comp = [None] + [
            _RollbackComponents(n_vertices) for _ in range(cfg.color_count)
        ]
        self.color_edges: list[list[tuple[int, int]]] = [
            [] for _ in range(cfg.color_count + 1)
        ]
        self.nodes = 0
        self.prefix = prefix

    def _gains_cm(self, color: int, root: int) -> bool:
        members = self.comp[color].members[root]
        if len(members) < self.cfg.n:
            return False
        member_set = set(members)
        index = {v: i for i, v in enumerate(members)}
        adj: list[list[int]] = [[] for _ in members]
        for a, b in self.color_edges[color]:
            if a in member_set and b in member_set:
                adj[index[a]].append(index[b])
                adj[index[b]].append(index[a])
        target = self.cfg.n // 2
        mate = _max_matching_mates(adj, stop_at=target)
        return sum(1 for v, m in enumerate(mate) if m > v) >= target

    def _assign(self, idx: int, color: int) -> bool:
        """Apply one assignment; True if the branch stays viable."""
        u, v = self.edge_list[idx]
        self.color_of[idx] = color
        self.color_edges[color].append((u, v))
        root = self.comp[color].union(u, v)
        return not self._gains_cm(color, root)

    def _unassign(self, idx: int) -> None:
        color = self.color_of[idx]
        self.comp[color].undo()
        self.color_edges[color].pop()
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
    share = max(1, cfg.node_budget // len(prefixes))
    worker_cfg = replace(cfg, threads=1, node_budget=share)
    exhausted = False
    nodes = 0
    # The pool starts every worker up front, so never ask for more than
    # there are subtrees or CPUs.
    workers = min(cfg.threads, len(prefixes), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for result in pool.map(
            _run_subtree, [worker_cfg] * len(prefixes), prefixes
        ):
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
    the result degrades to the best verified lower bound.
    """
    if n < 2 or n % 2 != 0:
        raise OddNError(f"n must be an even integer >= 2, got {n}")
    avoider: EdgeColoring | None = None
    total = 0
    for size in range(1, n_max + 1):
        cfg = SearchConfig(
            size, color_count, n, node_budget=max(1, node_budget - total)
        )
        result = search_avoider(cfg)
        total += result.nodes
        if result.status == FOUND:
            if size >= 2:
                shrunk = restrict_coloring(result.coloring, size - 1)
                sub = complete_graph(size - 1)
                assert find_mono_cm(sub, shrunk, n) is None, (
                    "restriction of an avoider must avoid"
                )
            avoider = result.coloring
            continue
        if result.status == CERTIFIED_NONE:
            return RamseyResult(
                color_count, n, "exact", size, size, avoider, total
            )
        return RamseyResult(
            color_count, n, "lower_bound", None, size, avoider, total
        )
    return RamseyResult(
        color_count, n, "lower_bound", None, n_max + 1, avoider, total
    )
