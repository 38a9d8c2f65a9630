"""Exact avoider search over edge colorings of complete graphs.

The search walks the edges of a complete graph depth-first, pruning a
branch as soon as any color class gains a connected matching of the
forbidden size.

Symmetry reduction is deliberately lightweight and provably sound, and
always on: colors are canonicalized by first use (color i+1 may first
appear only after color i), and the colors along the star at vertex 0 are
required to be non-decreasing, since any coloring can be brought to that
shape by permuting the other vertices and then renaming colors by first
use. So the walk offers at most one color beyond those it has used, and a
color class is built only when its color is first offered. The result (its
status, node count and avoider) is deterministic and never depends on the
worker count.

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
- Only when bound >= n/2 > size does the search look further, with an
  Edmonds forest search for an augmenting path (``matching._Forest``).
  If every merged part was tight (bound == size) before the edge uv, the
  stored matching was maximum in the graph without uv. So every
  augmenting path of the graph with uv uses uv, and one search decides:
  rooted at an exposed end of uv, which is then an end of every such
  path, or else at all exposed vertices of the component. Success raises
  the size to the bound; failure proves the matching maximum, and the
  bound drops to its size.
- Otherwise the search is rooted at all exposed vertices of the
  component, where it finds an augmenting path iff one exists, and it
  repeats until it fails (the bound drops to the size) or the size reaches
  n/2: at most n/2 - size + 1 searches.

So the branch is viable iff the stored size stays below n/2, and the edge
is decided before anything is committed. The stored sizes and the
exposed-pair test alone prune most edges, with no write at all. Only a
prune trigger appends uv to the adjacency and runs its searches, and the
search that would reach n/2 only finds its path without flipping it; a
pruned trigger then pops the appends and the flips of the searches before
it. A viable edge is committed: its component merge, and one trail entry
from which ``remove`` restores everything in strict LIFO order. So a pruned
node leaves no trace and needs no undo.

The components are kept as per-vertex root labels with member lists, so a
lookup is one read; a merge relabels the smaller list, and its removal
relabels it back.

With three or more colors the same class state comes back under many
prefixes, so one search keeps a memo of matching numbers, shared by its
color classes. Each class keeps its edge set as a bit mask over edge
indices. The nu of uv's component is a function of the class's edges and
uv alone, whatever their color. The walk adds edges in index order, so uv
is the highest edge of ``mask | 1 << index(uv)``, and that key fixes both;
an edge added out of order skips the memo. The memo maps a key to nu
capped at n/2 and is read only at a prune trigger:

- A known nu >= n/2 prunes before anything is written.
- A known nu below n/2 ends the searches once the stored size (after the
  exposed-pair match) reaches it: the stored matching is then maximum, and
  the edge commits with bound = size. The final, failed search of the
  memo-less run is skipped; it would flip nothing, so the state is the
  same. A known nu equal to the stored size runs no search at all.
- Otherwise the searches run as without the memo, and a key not yet known
  gets their outcome.

So verdicts, node counts and avoiders are those of the search without the
memo. With at most two colors, edge 0 has color 1 and every other edge
below uv lies in the other class, so a key fixes the whole prefix and no
key repeats within one search: no memo is kept. ``MEMO_BYTES`` bounds the
memo's memory, per search and so per worker process; once it is full,
nothing more is recorded.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from multiprocessing import Pipe, Process, parent_process
from multiprocessing.connection import wait
from threading import Thread

from .graphs import EdgeColoring, complete_graph, induced_coloring
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

# Bytes that one search's matching-number memo may hold. A key is a class's
# edge set as an int of E bits, E the edge count (4 bytes per 30 bits),
# and a dict entry with its int header takes about 80 bytes more.
MEMO_BYTES = 32 << 20


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


class _ColorMatching:
    """One color class of the search: its components, its adjacency and a
    stored matching.

    ``root[w]`` labels the component of vertex ``w``, and ``members[r]``,
    ``matched[r]`` and ``bound[r]`` belong to the component labelled ``r``:
    its vertices, the number of edges of the stored matching inside it, and
    an upper bound on its matching number. A merge relabels the smaller
    member list, and its removal relabels it back. ``mask`` is the class's
    edge set, bit i for the edge of index i. ``forest`` holds the arrays of
    the blossom search, and ``memo`` the matching numbers by class edge set
    with uv (None for no memo) with room for ``memo_cap`` entries; every
    color class of one search shares both.

    ``add`` decides before it commits: a pruned edge leaves every field as
    it found it, and a viable one pushes exactly one trail entry, which
    ``remove`` pops in strict LIFO order.
    """

    __slots__ = ("root", "members", "adj", "mate", "matched", "bound",
                 "target", "mask", "trail", "flips", "forest", "memo",
                 "memo_cap")

    def __init__(self, n_vertices: int, target: int, forest: _Forest,
                 memo: dict[int, int] | None = None, memo_cap: int = 0):
        self.root = list(range(n_vertices))
        self.members = [[v] for v in range(n_vertices)]
        self.adj: list[list[int]] = [[] for _ in range(n_vertices)]
        self.mate = [-1] * n_vertices
        self.matched = [0] * n_vertices
        self.bound = [0] * n_vertices
        self.target = target
        self.mask = 0
        # Per add: root, absorbed root or -1, old matched/bound, flips mark,
        # old mask.
        self.trail: list[tuple[int, int, int, int, int, int]] = []
        self.flips: list[tuple[int, int]] = []
        self.forest = forest
        self.memo = memo
        self.memo_cap = memo_cap

    def add(self, u: int, v: int, idx: int) -> bool:
        """Add edge uv, whose edge index is ``idx``, and return True if its
        component's matching number stays below ``target``; otherwise
        return False and add nothing."""
        mate, matched, target = self.mate, self.matched, self.target
        ra, rb = self.root[u], self.root[v]
        size = matched[ra] if ra == rb else matched[ra] + matched[rb]
        exposed_pair = mate[u] == mate[v] == -1
        if size + exposed_pair >= target:
            return False
        members, bound = self.members, self.bound
        if ra == rb:
            rb = -1
            cap, order = bound[ra] + 1, len(members[ra])
        else:
            cap = bound[ra] + bound[rb] + 1
            na, nb = len(members[ra]), len(members[rb])
            order = na + nb
            if na < nb:
                ra, rb = rb, ra
        # Tight: the stored matching was maximum in every merged part.
        tight = cap == size + 1
        if cap > order // 2:
            cap = order // 2
        if cap >= target:
            key = 0  # where the searches' outcome is to be recorded, or 0
            known = -1  # the memo's nu of uv's component, or -1
            memo = self.memo
            if memo is not None and 1 << idx > self.mask:
                # uv is the highest edge of the key, which so fixes it.
                key = self.mask | 1 << idx
                known = memo.get(key, -1)
                if known >= target:
                    return False
                if known >= 0:
                    key = 0
        adj, flips = self.adj, self.flips
        mark = len(flips)
        adj[u].append(v)
        adj[v].append(u)
        if exposed_pair:
            flips.append((u, -1))
            flips.append((v, -1))
            mate[u] = v
            mate[v] = u
            size += 1
        if cap >= target:
            # A known matching number ends the searches: once the size
            # reaches it, the stored matching is maximum, as a failed search
            # would prove.
            goal = known if known >= 0 else target
            if size < goal:
                # After a tight edge every augmenting path uses uv, and an
                # exposed end of uv is an end of each: one search decides.
                if tight and mate[u] == -1:
                    roots = [u]
                elif tight and mate[v] == -1:
                    roots = [v]
                else:
                    roots = self._exposed(ra, rb)
                augment = self.forest.augment
                # Each success adds one matched edge; the search that would
                # meet the target only has to find its path, not flip it.
                while augment(adj, mate, roots, flips, size + 1 < target):
                    size += 1
                    if size >= goal:
                        break
                    roots = self._exposed(ra, rb)
                if key and len(memo) < self.memo_cap:
                    memo[key] = size
                if size >= target:
                    adj[u].pop()
                    adj[v].pop()
                    self._rewind(mark)
                    return False
            cap = size
        if rb >= 0:
            root = self.root
            for w in members[rb]:
                root[w] = ra
            members[ra].extend(members[rb])
        self.trail.append((ra, rb, matched[ra], bound[ra], mark, self.mask))
        self.mask |= 1 << idx
        matched[ra] = size
        bound[ra] = cap
        return True

    def _exposed(self, ra: int, rb: int) -> list[int]:
        """The exposed vertices of component ``ra``, and of ``rb`` if not -1."""
        mate, members = self.mate, self.members
        group = members[ra] if rb < 0 else chain(members[ra], members[rb])
        return [w for w in group if mate[w] == -1]

    def _rewind(self, mark: int) -> None:
        """Restore the mates overwritten since ``flips`` had ``mark`` entries."""
        flips, mate = self.flips, self.mate
        while len(flips) > mark:
            w, m = flips.pop()
            mate[w] = m

    def remove(self, u: int, v: int) -> None:
        """Undo the latest committed ``add``, which must have been of edge uv."""
        ra, rb, size, cap, mark, self.mask = self.trail.pop()
        self._rewind(mark)
        self.matched[ra] = size
        self.bound[ra] = cap
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
        self.color_of = [0] * len(self.edge_list)
        self.forest = _Forest(n_vertices)
        # With at most two colors no memo key repeats within one search.
        self.memo: dict[int, int] | None = {} if cfg.color_count >= 3 else None
        self.memo_cap = MEMO_BYTES // (80 + len(self.edge_list) // 7)
        # The ``add`` and ``remove`` of each color's class, by color; a
        # class is built when its color is first offered.
        self.adds: list = [None]
        self.removes: list = [None]
        self.nodes = 0
        self.exhausted = False
        self.prefix = prefix

    def _offer(self, colors: range) -> range:
        """Build the color classes up to the largest of ``colors``."""
        while len(self.adds) < colors.stop:
            cls = _ColorMatching(self.cfg.vertex_count, self.cfg.n // 2,
                                 self.forest, self.memo, self.memo_cap)
            self.adds.append(cls.add)
            self.removes.append(cls.remove)
        return colors

    def _choices(self, idx: int, max_used: int) -> range:
        """Colors for edge ``idx``: by first use, and non-decreasing along
        the star at vertex 0, whose edges are 0..N-2."""
        lo = self.color_of[idx - 1] if 1 <= idx <= self.cfg.vertex_count - 2 else 1
        return range(lo, min(self.cfg.color_count, max_used + 1) + 1)

    def _dfs(self, idx: int, max_used: int, end: int) -> Iterator[tuple[int, ...]]:
        """Yield each viable assignment of the edges below ``end``, given
        the edges below ``idx``; the yielded one is still applied.

        Iterative, as the depth is one level per edge: K_46 alone has 1,035.
        ``stack`` holds, per shallower edge, its untried colors and the
        largest color used before it. ``self.nodes`` is exact at every yield
        and exit; when the budget runs out the walk sets ``self.exhausted``
        and ends.
        """
        color_of, adds, removes = self.color_of, self.adds, self.removes
        tails = [u for u, _ in self.edge_list]
        heads = [v for _, v in self.edge_list]
        if idx == end:
            yield tuple(color_of[:end])
            return
        budget = self.cfg.node_budget
        nodes = self.nodes
        stack: list[tuple[Iterator[int], int]] = []
        choices = iter(self._offer(self._choices(idx, max_used)))
        try:
            while True:
                color = next(choices, 0)
                if color == 0:  # colors start at 1: this edge has none left
                    if not stack:
                        return
                    choices, max_used = stack.pop()
                    idx -= 1
                    removes[color_of[idx]](tails[idx], heads[idx])
                    color_of[idx] = 0
                    continue
                if nodes >= budget:
                    self.exhausted = True
                    return
                nodes += 1
                if not adds[color](tails[idx], heads[idx], idx):
                    continue  # pruned: nothing was applied
                color_of[idx] = color
                if idx + 1 < end:
                    stack.append((choices, max_used))
                    max_used = max(max_used, color)
                    idx += 1
                    choices = iter(self._offer(self._choices(idx, max_used)))
                    continue
                self.nodes = nodes
                yield tuple(color_of[:end])
                removes[color](tails[idx], heads[idx])
                color_of[idx] = 0
        finally:
            self.nodes = nodes

    def run(self) -> SearchResult:
        # Replay the prefix. It is a viable assignment of the same
        # deterministic walk, so every step applies again.
        max_used = 0
        for idx, color in enumerate(self.prefix):
            self._offer(self._choices(idx, max_used))
            applied = self.adds[color](*self.edge_list[idx], idx)
            assert applied, "a replayed prefix is viable"
            self.color_of[idx] = color
            max_used = max(max_used, color)
        hit = next(self._dfs(len(self.prefix), max_used, len(self.edge_list)), None)
        if self.exhausted:
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


def _exit_with_parent() -> None:
    """End this worker process as soon as its parent process is gone."""
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
        coloring = EdgeColoring(cfg.color_count, {e: 1 for e in g.edges})
        assert find_mono_cm(g, coloring, cfg.n) is None
        return SearchResult(FOUND, coloring, 0)
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
