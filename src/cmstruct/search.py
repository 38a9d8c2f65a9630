"""Exact avoider search over edge colorings of complete graphs.

The search walks the edges of a complete graph depth-first, pruning a
branch as soon as any color class gains a connected matching of the
forbidden size.

Symmetry reduction is deliberately lightweight and provably sound, and
always on: colors are canonicalized by first use (color i+1 may first
appear only after color i), and the colors along the star at vertex 0 are
required to be non-decreasing, since any coloring can be brought to that
shape by permuting the other vertices and then renaming colors by first
use. So each edge tries one range of colors, from its star predecessor's
color (or 1) up to one beyond the largest used before it, and a color
class is built only when its color is first offered. ``_Searcher._symmetry``
states both rules as two ints, which the walk reads on every descent with
no call. The result (its status, node count and avoider) is deterministic
and never depends on the worker count.

The prune test is incremental and gives the same verdict as a fresh
matching: a branch dies iff the component that the new edge joins in its
color class now has matching number nu >= n/2. Per color the search keeps
an adjacency list, a mate array (the stored matching) and, for each
component, the stored matching's size. One invariant holds after every
committed edge: the stored matching is maximum in every component, so its
size is nu. By Berge's theorem a matching is maximum iff it has no
augmenting path, and this decides each new edge uv:

- Before uv the stored matching is maximum in the part that uv joins,
  also when uv merges two components, as the union of their maximum
  matchings is maximum in their disjoint union. So every augmenting path
  of that part with uv uses uv, and adding uv raises nu by at most one.
- If both ends are exposed, uv is itself such a path: the edge prunes if
  the size then reaches n/2, and otherwise u and v are matched at once.
  This match is recorded as a flag of the edge's trail entry, not as mate
  flips.
- If the stored matching leaves at most one vertex of the part exposed,
  nu cannot rise, and the edge commits with no probe.
- Otherwise the probe ``_short_augmenting_path`` lists the augmenting
  paths through uv with at most three matched edges (and at most the
  stored size): u-v-mate(v)-x, u-v-mate(v)-a-mate(a)-x or
  u-v-mate(v)-a-mate(a)-b-mate(b)-x with u and x exposed (or the same
  with u and v swapped), and x-mate(u)-u-v-mate(v)-y or
  x-mate(u)-u-v-mate(v)-a-mate(a)-y with x != y exposed (or the latter
  with u and v swapped). A hit is augmenting, so nu rises by one: the
  edge prunes if that reaches n/2, and otherwise the path is flipped.
- A path alternates between edges outside and inside the stored
  matching, so it holds at most size matched edges. With size <= 3 the
  probe lists every augmenting path through uv, and a miss proves the
  stored matching still maximum: the edge commits with the size unchanged.
- Only a miss with size >= 4 (so n >= 10) runs an Edmonds forest search
  (``matching._Forest``), rooted at an exposed end of uv, which is an end
  of every augmenting path, or else at all exposed vertices of the part.
  It finds an augmenting path iff one exists. The path that would reach
  n/2 is only found, and the edge prunes; any other is flipped. A failed
  search leaves the size unchanged.

Either way the stored size after uv is its part's nu, so the invariant
holds and the verdict is that of a fresh matching; the search tree does
not depend on how the stored matching was found. Each edge is decided
before anything is committed, and a pruned edge writes nothing: the probe
only reads, and the forest search holds uv in the adjacency only while it
runs and finds the path that prunes without flipping it. A viable edge is
committed: its flips, each logged with the old mate, its component merge,
and one trail entry from which ``remove`` restores everything in strict
LIFO order. ``remove`` rewinds the logged flips, then unmatches the
exposed pair. So a pruned node leaves no trace and needs no undo.

The components are kept as per-vertex root labels with member lists, so a
lookup is one read; a merge relabels the smaller list, and its removal
relabels it back.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from threading import Thread

from .graphs import EdgeColoring, _colored, complete_graph, induced_coloring
# max_connected_matching is unused here but kept as a public and traced name.
from .matching import (  # noqa: F401
    _Forest,
    find_mono_cm,
    max_connected_matching,
    require_even_n,
)

FOUND = "found"
CERTIFIED_NONE = "certified_none"
BUDGET_EXHAUSTED = "budget_exhausted"

# The search lays out every edge of K_N before its first node: about 3 MB
# at this cap, which lies far beyond any exhaustive search.
MAX_VERTICES = 256


@dataclass(frozen=True)
class SearchConfig:
    """One avoider search: colorings of K_``vertex_count`` with colors
    1..``color_count``, none with a monochromatic connected matching of
    size ``n/2``; at most ``node_budget`` nodes, spread over ``threads``
    worker processes when above 1 (the result is that of one thread).

    The two symmetry rules of the module docstring always apply: colors
    appear in order of first use, and the star at vertex 0 is
    non-decreasing. A color class is built only when the walk first offers
    its color, so memory grows with the colors used, never with
    ``color_count``, and ``vertex_count`` is capped at ``MAX_VERTICES``.
    """

    vertex_count: int
    color_count: int
    n: int
    node_budget: int = 10**9
    threads: int = 1

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        if self.vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex_count must be <= {MAX_VERTICES}")
        if self.color_count < 1:
            raise ValueError("color_count must be >= 1")
        if self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        require_even_n(self.n)


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


def _short_augmenting_path(adj: tuple[tuple[int, ...], ...] | list[list[int]],
                           mate: list[int], u: int, v: int,
                           most: int) -> list[int] | None:
    """An augmenting path through the non-edge uv, whose ends are not both
    exposed, with at most ``most`` matched edges for the matching ``mate``
    of ``adj``, as its vertices from one exposed end to the other; None if
    there is none. ``most`` is 1 to 3, and at least 2 if u and v are both
    matched. With u and x exposed (or the same with u and v swapped) the
    paths are u-v-mate(v)-x, u-v-mate(v)-a-mate(a)-x and
    u-v-mate(v)-a-mate(a)-b-mate(b)-x; with x != y exposed they are
    x-mate(u)-u-v-mate(v)-y and x-mate(u)-u-v-mate(v)-a-mate(a)-y (or the
    latter with u and v swapped). These are all the augmenting paths
    through uv with at most three matched edges. Reads only."""
    mu, mv = mate[u], mate[v]
    if mu != -1 and mv != -1:
        for x in adj[mu]:
            if mate[x] == -1:
                for y in adj[mv]:
                    if mate[y] == -1 and y != x:
                        return [x, mu, u, v, mv, y]
        if most < 3:
            return None
        # One more matched edge, beyond mate(v) or (swapped) beyond mate(u).
        for w, mw, z, mz in ((u, mu, v, mv), (v, mv, u, mu)):
            ends = [x for x in adj[mw] if mate[x] == -1]
            if not ends:
                continue
            for a in adj[mz]:
                ma = mate[a]
                if ma != -1 and a != z and a != w and a != mw:
                    for y in adj[ma]:
                        if mate[y] == -1:
                            for x in ends:
                                if x != y:
                                    return [x, mw, w, z, mz, a, ma, y]
        return None
    if mu != -1:  # v is the exposed end
        u, v, mv = v, u, mu
    near = adj[mv]
    for x in near:
        if mate[x] == -1 and x != u:
            return [u, v, mv, x]
    if most < 2:
        return None
    for a in near:
        ma = mate[a]
        if ma != -1 and a != v:
            for x in adj[ma]:
                if mate[x] == -1 and x != u:
                    return [u, v, mv, a, ma, x]
    if most < 3:
        return None
    for a in near:
        ma = mate[a]
        if ma != -1 and a != v:
            for b in adj[ma]:
                mb = mate[b]
                if mb != -1 and b != a and b != v and b != mv:
                    for x in adj[mb]:
                        if mate[x] == -1 and x != u:
                            return [u, v, mv, a, ma, b, mb, x]
    return None


class _ColorMatching:
    """One color class of the search: its components, its adjacency and a
    maximum matching of each component.

    ``root[w]`` labels the component of vertex ``w``, and ``members[r]`` and
    ``matched[r]`` belong to the component labelled ``r``: its vertices and
    the number of edges of the stored matching inside it, which after every
    committed ``add`` is the component's matching number. A merge relabels
    the smaller member list, and its removal relabels it back. ``forest``
    holds the arrays of the blossom search, which every color class of one
    search shares.

    ``flips`` logs the mates that augmenting paths overwrite, those of the
    short-path probe and of the blossom search alike, as (vertex, old
    mate). The match of an exposed pair is not logged there: the edge's
    trail entry flags it.

    ``add`` decides before it commits: a pruned edge leaves every field as
    it found it, and a viable one pushes exactly one trail entry, which
    ``remove`` pops in strict LIFO order. ``remove`` rewinds ``flips`` to
    the entry's mark and then unmatches u and v if the entry flags an
    exposed pair.
    """

    __slots__ = ("root", "members", "adj", "mate", "matched", "target",
                 "trail", "flips", "forest")

    def __init__(self, n_vertices: int, target: int, forest: _Forest):
        self.root = list(range(n_vertices))
        self.members = [[v] for v in range(n_vertices)]
        self.adj: list[list[int]] = [[] for _ in range(n_vertices)]
        self.mate = [-1] * n_vertices
        self.matched = [0] * n_vertices
        self.target = target
        # Per add: root, absorbed root or -1, old matched, flips mark, and
        # whether u and v were matched as an exposed pair.
        self.trail: list[tuple[int, int, int, int, bool]] = []
        self.flips: list[tuple[int, int]] = []
        self.forest = forest

    def add(self, u: int, v: int) -> bool:
        """Add edge uv and return True if its component's matching number
        stays below ``target``; otherwise return False and add nothing."""
        mate, matched, target = self.mate, self.matched, self.target
        ra, rb = self.root[u], self.root[v]
        size = matched[ra] if ra == rb else matched[ra] + matched[rb]
        exposed_pair = mate[u] == mate[v] == -1
        if size + exposed_pair >= target:
            return False
        members, adj, flips = self.members, self.adj, self.flips
        if ra == rb:
            rb = -1
            order = len(members[ra])
        else:
            na, nb = len(members[ra]), len(members[rb])
            order = na + nb
            if na < nb:
                ra, rb = rb, ra
        mark = len(flips)
        if exposed_pair:
            mate[u] = v
            mate[v] = u
            size += 1
        elif size < order // 2:
            # The stored matching is maximum without uv, so every augmenting
            # path uses uv and holds at most size matched edges.
            path = _short_augmenting_path(adj, mate, u, v,
                                          size if size < 3 else 3)
            if path is not None:
                if size + 1 >= target:
                    return False
                flips.extend([(w, mate[w]) for w in path])
                for a, b in zip(path[::2], path[1::2]):
                    mate[a] = b
                    mate[b] = a
                size += 1
            elif size >= 4:
                # An exposed end of uv is an end of every augmenting path.
                if mate[u] == -1:
                    roots = [u]
                elif mate[v] == -1:
                    roots = [v]
                else:
                    roots = self._exposed(ra, rb)
                adj[u].append(v)
                adj[v].append(u)
                # The path that would meet the target is found, not flipped.
                found = self.forest.augment(adj, mate, roots, flips,
                                            size + 1 < target)
                adj[u].pop()
                adj[v].pop()
                if found:
                    if size + 1 >= target:
                        return False
                    size += 1
        adj[u].append(v)
        adj[v].append(u)
        if rb >= 0:
            root = self.root
            for w in members[rb]:
                root[w] = ra
            members[ra].extend(members[rb])
        self.trail.append((ra, rb, matched[ra], mark, exposed_pair))
        matched[ra] = size
        return True

    def _exposed(self, ra: int, rb: int) -> list[int]:
        """The exposed vertices of component ``ra``, and of ``rb`` if not -1."""
        mate, members = self.mate, self.members
        group = members[ra] if rb < 0 else chain(members[ra], members[rb])
        return [w for w in group if mate[w] == -1]

    def remove(self, u: int, v: int) -> None:
        """Undo the latest committed ``add``, which must have been of edge uv."""
        ra, rb, size, mark, pair = self.trail.pop()
        flips, mate = self.flips, self.mate
        while len(flips) > mark:
            w, m = flips.pop()
            mate[w] = m
        if pair:
            mate[u] = mate[v] = -1
        self.matched[ra] = size
        self.adj[u].pop()
        self.adj[v].pop()
        if rb >= 0:
            root, members = self.root, self.members
            absorbed = members[rb]
            for w in absorbed:
                root[w] = rb
            del members[ra][-len(absorbed):]


class _Searcher:
    """Depth-first search over edge colorings of K_N."""

    def __init__(self, cfg: SearchConfig, prefix: tuple[int, ...] = ()):
        self.cfg = cfg
        n_vertices = cfg.vertex_count
        self.edge_list = [
            (u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
        ]
        self.tails = [u for u, _ in self.edge_list]
        self.heads = [v for _, v in self.edge_list]
        self.color_of = [0] * len(self.edge_list)
        self.star_last, self.fresh = self._symmetry()
        self.forest = _Forest(n_vertices)
        # The ``add`` and ``remove`` of each color's class, by color; a
        # class is built when its color is first offered.
        self.adds: list = [None]
        self.removes: list = [None]
        self.nodes = 0
        self.exhausted = False
        self.prefix = prefix

    def _symmetry(self) -> tuple[int, int]:
        """The two symmetry rules of the module docstring as ``(star_last,
        fresh)``: the colors of the star edges 0..``star_last`` at vertex 0
        are non-decreasing, and an edge offers at most ``fresh`` colors
        beyond the largest used before it."""
        return self.cfg.vertex_count - 2, 1

    def _offer(self, hi: int) -> int:
        """Build the color classes up to color ``hi``; return how many
        there are."""
        while len(self.adds) <= hi:
            cls = _ColorMatching(self.cfg.vertex_count, self.cfg.n // 2,
                                 self.forest)
            self.adds.append(cls.add)
            self.removes.append(cls.remove)
        return len(self.adds) - 1

    def _dfs(self, idx: int, max_used: int, end: int) -> Iterator[tuple[int, ...]]:
        """Yield each viable assignment of the edges below ``end``, given
        the edges below ``idx``; the yielded one is still applied.

        Iterative, as the depth is one level per edge: K_46 alone has 1,035.
        Edge ``idx`` tries the colors ``color``..``hi``, the range that the
        symmetry rules of ``_symmetry`` leave it. ``stack`` holds, per
        shallower edge, its ``hi`` and the largest color used before it; its
        current color is in ``color_of``. ``self.nodes`` is exact at every
        yield and exit; when the budget runs out the walk sets
        ``self.exhausted`` and ends.
        """
        color_of, adds, removes = self.color_of, self.adds, self.removes
        tails, heads = self.tails, self.heads
        if idx == end:
            yield tuple(color_of[:end])
            return
        budget = self.cfg.node_budget
        colors, star_last, fresh = self.cfg.color_count, self.star_last, self.fresh
        nodes = self.nodes
        built = len(adds) - 1  # the colors whose classes exist
        stack: list[tuple[int, int]] = []
        color = color_of[idx - 1] if 1 <= idx <= star_last else 1
        hi = min(max_used + fresh, colors)
        if hi > built:
            built = self._offer(hi)
        try:
            while True:
                if color > hi:  # this edge has no color left
                    if not stack:
                        return
                    hi, max_used = stack.pop()
                    idx -= 1
                    color = color_of[idx]
                    removes[color](tails[idx], heads[idx])
                    color_of[idx] = 0
                    color += 1
                    continue
                if nodes >= budget:
                    self.exhausted = True
                    return
                nodes += 1
                if not adds[color](tails[idx], heads[idx]):
                    color += 1  # pruned: nothing was applied
                    continue
                color_of[idx] = color
                if idx + 1 < end:
                    stack.append((hi, max_used))
                    if color > max_used:
                        max_used = color
                    idx += 1
                    # A star edge starts at its predecessor's color.
                    if idx > star_last:
                        color = 1
                    hi = max_used + fresh
                    if hi > colors:
                        hi = colors
                    if hi > built:
                        built = self._offer(hi)
                    continue
                self.nodes = nodes
                yield tuple(color_of[:end])
                removes[color](tails[idx], heads[idx])
                color_of[idx] = 0
                color += 1
        finally:
            self.nodes = nodes

    def run(self) -> SearchResult:
        # Replay the prefix. It is a viable assignment of the same
        # deterministic walk, so every step applies again.
        max_used = max(self.prefix, default=0)
        self._offer(max_used)
        for idx, color in enumerate(self.prefix):
            applied = self.adds[color](self.tails[idx], self.heads[idx])
            assert applied, "a replayed prefix is viable"
            self.color_of[idx] = color
        hit = next(self._dfs(len(self.prefix), max_used, len(self.edge_list)), None)
        if self.exhausted:
            return SearchResult(BUDGET_EXHAUSTED, None, self.nodes)
        if hit is None:
            return SearchResult(CERTIFIED_NONE, None, self.nodes)
        return _found(self.cfg, dict(zip(self.edge_list, hit)), self.nodes)


def _found(cfg: SearchConfig, assignment: dict[tuple[int, int], int],
           nodes: int) -> SearchResult:
    """FOUND with the avoider that colors the edges of K_N by
    ``assignment``, once the detector confirms that it avoids."""
    coloring = _colored(cfg.color_count, assignment)
    assert find_mono_cm(complete_graph(cfg.vertex_count), coloring, cfg.n) is None
    return SearchResult(FOUND, coloring, nodes)


def _exit_with_parent() -> None:
    """End this worker process as soon as its parent process is gone."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    wait([parent_process().sentinel])
    os._exit(1)


def _serve(conn, fn) -> None:
    """Worker process: answer each task the parent sends, until killed or
    until the parent dies, also by a signal that skips its clean-up."""
    Thread(target=_exit_with_parent, daemon=True).start()
    while True:
        conn.send(fn(conn.recv()))


class _Pool:
    """Worker processes for ``imap``, each talking to the parent over a pipe
    of its own.

    Leaving the ``with`` block kills the workers, also those busy with a
    task. ``multiprocessing.Pool`` cannot do that safely: its workers share
    one result queue and its lock, and a worker killed while it sends a
    result leaves the lock held, so ``terminate`` can hang.

    The workers are the package's only use of ``multiprocessing``, so it is
    imported when a pool starts them: ``import cmstruct`` and a search with
    one thread never load it.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self.workers: list = []  # (process, parent end of its pipe)

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self.workers:
            proc.kill()
            proc.join()
            conn.close()

    def imap(self, fn, tasks):
        """Yield ``fn(task)`` for each task in order, drawing the next task
        only when a worker is free."""
        from multiprocessing import Pipe, Process
        from multiprocessing.connection import wait

        tasks = enumerate(tasks)
        idle = []
        for _ in range(self.processes):
            conn, child = Pipe()
            proc = Process(target=_serve, args=(child, fn), daemon=True)
            proc.start()
            child.close()
            self.workers.append((proc, conn))
            idle.append(conn)
        running: dict = {}  # connection -> index of its task
        done: dict = {}  # index -> result not yet yielded
        wanted = 0
        while True:
            for conn, (index, task) in zip(idle, tasks):
                conn.send(task)
                running[conn] = index
            while wanted in done:
                yield done.pop(wanted)
                wanted += 1
            if not running:
                return
            idle = wait(list(running))
            for conn in idle:
                done[running.pop(conn)] = conn.recv()


def _run_subtree(
    cfg: SearchConfig, mark: tuple[int, tuple[int, ...]]
) -> tuple[int, SearchResult]:
    """Search below one star prefix with the budget the walk left over;
    ``mark`` is (walk nodes so far, prefix), and its node count comes back
    with the result."""
    walked, prefix = mark
    sub = replace(cfg, threads=1, node_budget=max(1, cfg.node_budget - walked))
    return walked, _Searcher(sub, prefix).run()


def search_avoider(cfg: SearchConfig) -> SearchResult:
    """Exhaustive search for a coloring of K_N with no monochromatic
    connected matching of size ``n/2``.

    Outcomes: FOUND with a detector-confirmed coloring, CERTIFIED_NONE after
    exhausting the (symmetry-reduced) space, or BUDGET_EXHAUSTED once the
    node budget runs out; the latter two are never conflated.

    The result never depends on ``threads``: status, node count and avoider
    are those of the sequential search. With ``threads > 1`` the same
    depth-first walk colors the star at vertex 0 lazily, and the subtree
    below each viable star coloring goes to a worker process. The parent
    reads the subtree results in walk order and charges each one where the
    sequential walk would have searched it, so the search ends as soon as
    the sequential one would: at the first avoider or once the node budget
    is spent.
    """
    if cfg.vertex_count < cfg.n:
        # A connected matching of size n/2 covers n vertices, so any
        # coloring of a smaller complete graph avoids trivially.
        g = complete_graph(cfg.vertex_count)
        return _found(cfg, dict.fromkeys(g.edges, 1), 0)
    if cfg.threads == 1:
        return _Searcher(cfg).run()

    depth = cfg.vertex_count - 1  # the star at vertex 0
    walker = _Searcher(cfg)
    marks = ((walker.nodes, prefix) for prefix in walker._dfs(0, 0, depth))
    # At most one worker per CPU and per subtree.
    head = list(islice(marks, min(cfg.threads, os.cpu_count() or 1)))
    spent = 0  # nodes of the subtrees charged so far
    if head:
        # Leaving the block kills the workers that ran ahead.
        with _Pool(processes=len(head)) as pool:
            results = pool.imap(partial(_run_subtree, cfg), chain(head, marks))
            for walked, result in results:
                spent += result.nodes
                if (result.status == BUDGET_EXHAUSTED
                        or walked + spent > cfg.node_budget):
                    return SearchResult(BUDGET_EXHAUSTED, None, cfg.node_budget)
                if result.status == FOUND:
                    return SearchResult(FOUND, result.coloring, walked + spent)
    nodes = walker.nodes + spent
    if walker.exhausted or nodes > cfg.node_budget:
        return SearchResult(BUDGET_EXHAUSTED, None, cfg.node_budget)
    return SearchResult(CERTIFIED_NONE, None, nodes)


def ramsey_cm(
    color_count: int, n: int, n_max: int, node_budget: int = 10**9
) -> RamseyResult:
    """Smallest N such that every coloring of K_N is certified to contain a
    monochromatic connected matching of size ``n/2``.

    Scans N upward; avoidance is monotone under vertex deletion, so the
    first certified-none N is the answer. With the budget exhausted first,
    the result degrades to the best verified lower bound. The reported node
    count never exceeds ``node_budget``. A size above ``MAX_VERTICES`` that
    the scan would need raises ``ValueError``.
    """
    require_even_n(n)
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # Every coloring of K_N with N < n avoids, so the scan starts at n (or
    # past n_max) from the one-color avoider below it.
    size = min(n, n_max + 1)
    avoider = search_avoider(SearchConfig(size - 1, color_count, n)).coloring
    total = 0
    while size <= n_max and total < node_budget:
        cfg = SearchConfig(size, color_count, n, node_budget=node_budget - total)
        result = search_avoider(cfg)
        total += result.nodes
        if result.status == CERTIFIED_NONE:
            return RamseyResult(color_count, n, "exact", size, size, avoider, total)
        if result.status != FOUND:
            break
        sub, shrunk = induced_coloring(
            complete_graph(size), result.coloring, range(size - 1)
        )
        assert find_mono_cm(sub, shrunk, n) is None, (
            "restriction of an avoider must avoid"
        )
        avoider = result.coloring
        size += 1
    return RamseyResult(color_count, n, "lower_bound", None, size, avoider, total)
