import collections
import itertools
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest

from cmstruct import (
    BUDGET_EXHAUSTED,
    CERTIFIED_NONE,
    FOUND,
    EdgeColoring,
    Graph,
    SearchConfig,
    SearchResult,
    check_witness,
    complete_graph,
    disjoint_union,
    find_mono_cm,
    max_connected_matching,
    path_graph,
    ramsey_cm,
    search_avoider,
    star_graph,
)
from cmstruct.constructions import affine_plane_coloring, random_coloring
from cmstruct import search as search_module
from cmstruct.errors import OddNError

from .generators import random_graph
from .oracles import brute_has_mono_cm, brute_max_connected_matching


def test_max_connected_matching_examples():
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert max_connected_matching(two_edges)[0] == 1
    assert max_connected_matching(path_graph(4))[0] == 2
    two_triangles = disjoint_union([complete_graph(3), complete_graph(3)])
    size, comp = max_connected_matching(two_triangles)
    assert size == 1 and comp == frozenset({0, 1, 2})


def test_find_mono_cm_on_monochromatic_clique():
    g = complete_graph(4)
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    witness = find_mono_cm(g, coloring, 4)
    assert witness is not None and witness.color == 1
    assert len(witness.matching) == 2
    assert check_witness(g, coloring, 4, witness)


@pytest.mark.parametrize(
    "forge",
    [
        lambda w: replace(w, matching=frozenset({(0, 1)})),
        lambda w: replace(w, matching=frozenset({(0, 4), (2, 3)})),
        lambda w: replace(w, matching=frozenset({(0, 1), (1, 2)})),
        lambda w: replace(w, component=frozenset({0, 1})),
        lambda w: replace(w, component=frozenset({0, 1, 2, 3, 4})),
    ],
    ids=[
        "too-few-edges",
        "edge-not-in-g",
        "edges-share-a-vertex",
        "edge-outside-component",
        "wrong-component",
    ],
)
def test_check_witness_rejects_forged_witnesses(forge):
    g = complete_graph(4)
    coloring = EdgeColoring(2, {e: 1 for e in g.edges})
    witness = find_mono_cm(g, coloring, 4)
    assert check_witness(g, coloring, 4, witness)
    assert not check_witness(g, coloring, 4, forge(witness))


def test_check_witness_rejects_an_edge_of_another_color():
    # Color 1 stays connected on all four vertices, so only the edge's own
    # color gives the forgery away.
    g = complete_graph(4)
    witness = find_mono_cm(g, EdgeColoring(2, {e: 1 for e in g.edges}), 4)
    recolored = {e: 1 for e in g.edges}
    recolored[min(witness.matching)] = 2
    assert not check_witness(g, EdgeColoring(2, recolored), 4, witness)


def test_find_mono_cm_none_cases():
    g = complete_graph(4)
    coloring = EdgeColoring(
        2, {(0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    )
    assert find_mono_cm(g, coloring, 4) is None
    ga, ca = affine_plane_coloring(3)
    assert find_mono_cm(ga, ca, 4) is None


def test_find_mono_cm_requires_even_n():
    g = complete_graph(3)
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    with pytest.raises(OddNError):
        find_mono_cm(g, coloring, 3)


def test_detector_against_oracle_all_small_colorings():
    for size in range(1, 6):
        g = complete_graph(size)
        edges = sorted(g.edges)
        for k in (1, 2):
            for colors in itertools.product(range(1, k + 1), repeat=len(edges)):
                coloring = EdgeColoring(k, dict(zip(edges, colors)))
                for n in (2, 4):
                    got = find_mono_cm(g, coloring, n)
                    assert (got is not None) == brute_has_mono_cm(g, coloring, n)


def test_detector_against_oracle_random():
    rng = random.Random(8)
    for _ in range(2000):
        size = rng.randint(1, 12)
        k = rng.randint(1, 4)
        g = random_graph(rng, size, rng.random())
        coloring = EdgeColoring(k, {e: rng.randint(1, k) for e in g.edges})
        n = rng.choice((2, 4, 6))
        witness = find_mono_cm(g, coloring, n)
        assert (witness is not None) == brute_has_mono_cm(g, coloring, n)
        if witness is not None:
            assert check_witness(g, coloring, n, witness)


def test_monotone_growth_under_edge_addition():
    rng = random.Random(12)
    for _ in range(40):
        size = rng.randint(2, 9)
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        rng.shuffle(pairs)
        edges: set = set()
        last = 0
        for e in pairs:
            edges.add(e)
            now, _ = max_connected_matching(Graph.from_edges(size, edges))
            assert now >= last
            last = now


def test_max_connected_matching_against_oracle():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert max_connected_matching(g)[0] == brute_max_connected_matching(g)


def test_search_small_instances():
    found = search_avoider(SearchConfig(4, 2, 4))
    assert found.status == FOUND
    g = complete_graph(4)
    assert find_mono_cm(g, found.coloring, 4) is None

    none = search_avoider(SearchConfig(5, 2, 4))
    assert none.status == CERTIFIED_NONE


def test_search_finds_affine_type_avoider(monkeypatch):
    searches = []
    real_augment = search_module._Forest.augment

    def counting_augment(forest, *args):
        searches.append(None)
        return real_augment(forest, *args)

    monkeypatch.setattr(search_module._Forest, "augment", counting_augment)
    searcher = search_module._Searcher(SearchConfig(9, 4, 4, node_budget=10**7))
    result = searcher.run()
    assert result.status == FOUND
    assert result.nodes == 782_094
    assert find_mono_cm(complete_graph(9), result.coloring, 4) is None
    # Every blossom search decides a key that the memo has not seen, once:
    # 5,710 searches where the memo-less search runs 231,414.
    assert len(searches) <= len(searcher.memo) == 5_710


def test_budget_exhaustion_is_distinct():
    result = search_avoider(SearchConfig(5, 2, 4, node_budget=5))
    assert result.status == BUDGET_EXHAUSTED
    assert result.coloring is None
    # K_46 has 1,035 edges, one search level each: deeper than the default
    # recursion limit.
    result = search_avoider(SearchConfig(46, 40, 4, node_budget=20_000))
    assert result.status == BUDGET_EXHAUSTED
    assert result.coloring is None
    assert result.nodes == 20_000


def _brute_avoider_exists(size: int, k: int, n: int) -> bool:
    g = complete_graph(size)
    edges = sorted(g.edges)
    for colors in itertools.product(range(1, k + 1), repeat=len(edges)):
        coloring = EdgeColoring(k, dict(zip(edges, colors)))
        if not brute_has_mono_cm(g, coloring, n):
            return True
    return False


def test_pruning_safety_matches_unpruned_and_brute(in_process_pool, monkeypatch):
    # The unreduced search, the reference for both symmetry rules, offers
    # every color for every edge.
    small = [(size, k, 4) for size in range(2, 6) for k in (1, 2)]
    beyond_brute = {  # shape: nodes of the unreduced search
        (5, 3, 4): 19,
        (6, 3, 4): 20_172,
        (7, 3, 4): 75_351,
        (7, 2, 6): 31,
        (8, 2, 6): 55_514,
        (6, 4, 4): 34,
    }
    reduced = {shape: search_avoider(SearchConfig(*shape))
               for shape in [*small, *beyond_brute]}
    monkeypatch.setattr(
        search_module._Searcher,
        "_choices",
        lambda searcher, idx, max_used: range(1, searcher.cfg.color_count + 1),
    )
    for shape in small:
        expected = _brute_avoider_exists(*shape)
        assert (reduced[shape].status == FOUND) == expected, shape
        unreduced = search_avoider(SearchConfig(*shape))
        assert (unreduced.status == FOUND) == expected, shape
    for shape, nodes in beyond_brute.items():
        unreduced = search_avoider(SearchConfig(*shape))
        assert unreduced.status == reduced[shape].status, shape
        assert unreduced.nodes == nodes, shape
    # The workers' prefix replay offers colors through the same _choices,
    # here also colors that first use would never offer.
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 64)
    parallel = search_avoider(SearchConfig(6, 3, 4, threads=2))
    assert parallel == SearchResult(CERTIFIED_NONE, None, 20_172)


def test_parallel_search_agrees_with_sequential():
    for size in (4, 5):
        sequential = search_avoider(SearchConfig(size, 2, 4))
        assert search_avoider(SearchConfig(size, 2, 4, threads=2)) == sequential
    assert sequential.status == CERTIFIED_NONE


def test_parallel_search_certifies_within_sequential_budget():
    # Sequential search certifies K_11 after exactly 62,235 nodes; the
    # parallel search must too, with no budget lost to its split.
    result = search_avoider(SearchConfig(11, 2, 6, node_budget=62_235, threads=2))
    assert result == SearchResult(CERTIFIED_NONE, None, 62_235)


@pytest.mark.parametrize("cpus, expected", [(64, 4), (3, 3), (None, 1)])
def test_parallel_search_caps_worker_count(in_process_pool, monkeypatch, cpus, expected):
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: cpus)
    sequential = search_avoider(SearchConfig(5, 2, 4))
    capped = search_avoider(SearchConfig(5, 2, 4, threads=100000))
    # K_5 splits into 4 star prefixes at vertex 0.
    assert in_process_pool == [expected]
    assert capped == sequential
    assert sequential.status == CERTIFIED_NONE


def _slow_square(x):
    time.sleep(x / 20)
    return x * x


def test_pool_yields_in_task_order_and_kills_busy_workers():
    with search_module._Pool(processes=2) as pool:
        # The first task finishes last; its result must still come first.
        assert list(pool.imap(_slow_square, [4, 0, 1, 2])) == [16, 0, 1, 4]
    with search_module._Pool(processes=2) as pool:
        results = pool.imap(_slow_square, [0, 600, 600])
        assert next(results) == 0
        start = time.monotonic()
    # Leaving the block must not wait for the ten-minute tasks.
    assert time.monotonic() - start < 60
    assert not any(proc.is_alive() for proc, _ in pool.workers)


# Runs a real pool on two ten-minute tasks and prints the worker pids once
# both workers have started.
_POOL_SCRIPT = """
import time
from cmstruct.search import _Pool

def tasks():
    yield 600
    print(*(proc.pid for proc, _ in pool.workers), flush=True)
    yield 600

with _Pool(processes=2) as pool:
    next(pool.imap(time.sleep, tasks()))
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_pool_workers_end_with_a_killed_parent():
    src = os.path.dirname(os.path.dirname(search_module.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT], stdout=subprocess.PIPE, env=env
    )
    pids: list[int] = []
    try:
        ready, _, _ = select.select([child.stdout], [], [], 60)
        assert ready, "the pool never started its workers"
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        # SIGTERM ends the parent at once: no clean-up of its own runs.
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in pids)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _check_parallel_equals_sequential(monkeypatch, cfg, threads):
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 64)
    sequential = search_avoider(replace(cfg, threads=1))
    for t in threads:
        parallel = search_avoider(replace(cfg, threads=t))
        assert parallel == sequential, (cfg, t)
        assert parallel.nodes <= cfg.node_budget
    return sequential


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig(6, 2, 4, node_budget=b, threads=2) for b in range(1, 41)]
    # The star at vertex 0 of K_46 alone has about 2^44 colorings with 40
    # colors: the walk over it must stop at the budget.
    + [SearchConfig(46, 40, 4, node_budget=20_000, threads=2)],
    ids=lambda cfg: f"K{cfg.vertex_count}-budget{cfg.node_budget}",
)
def test_parallel_budget_shares_stay_within_budget(in_process_pool, monkeypatch, cfg):
    result = _check_parallel_equals_sequential(monkeypatch, cfg, (2, 8))
    # Certifying K_6 takes 55 nodes, more than any budget here.
    assert result.status == BUDGET_EXHAUSTED
    assert result.nodes == cfg.node_budget
    assert all(workers >= 1 for workers in in_process_pool)


@pytest.mark.parametrize("threads", [2, 8])
@pytest.mark.parametrize(
    "shape",
    [(7, 3, 4), (8, 2, 6), (5, 2, 4), (6, 2, 4), (7, 2, 6), (8, 3, 4)]
    # An avoider found in a later subtree, after the budget would have run
    # out at s - 1.
    + [(7, 4, 4)],
    ids=lambda shape: "K{}-k{}-n{}".format(*shape),
)
def test_parallel_search_equals_sequential(in_process_pool, monkeypatch, shape, threads):
    full = search_avoider(SearchConfig(*shape)).nodes
    for budget in sorted({1, 2, 5, 37, 1000, full - 1, full, full + 1}):
        cfg = SearchConfig(*shape, node_budget=budget)
        _check_parallel_equals_sequential(monkeypatch, cfg, (threads,))


def test_parallel_search_memory_stays_flat(in_process_pool, monkeypatch):
    # The star walk hands out one prefix at a time, so five times the budget
    # must not mean five times the memory.
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 64)
    peaks = []
    for budget in (20_000, 100_000):
        cfg = SearchConfig(46, 40, 4, node_budget=budget, threads=2)
        tracemalloc.start()
        try:
            result = search_avoider(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result == SearchResult(BUDGET_EXHAUSTED, None, budget)
    assert peaks[1] <= 2 * peaks[0], peaks


def test_color_classes_are_built_on_first_offer():
    # First use offers at most one color beyond those used, so memory
    # follows the colors the walk reaches, never the declared count.
    peaks = {}
    for k in (4, 10**3, 10**5):
        tracemalloc.start()
        try:
            result = search_avoider(SearchConfig(46, k, 4, node_budget=1))
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == SearchResult(BUDGET_EXHAUSTED, None, 1)
    assert max(peaks.values()) <= 2 * peaks[4], peaks
    # The K_46 avoider uses 44 of its 1,000 colors: 45 classes were offered.
    searcher = search_module._Searcher(SearchConfig(46, 1000, 4))
    result = searcher.run()
    assert (result.status, result.nodes) == (FOUND, 16_214)
    assert result.coloring.color_count == 1000
    assert len(set(result.coloring.assignment.values())) == 44
    assert len(searcher.adds) == 1 + 45


def _kernel_state(classes):
    return [
        (
            list(cls.mate),
            list(cls.matched),
            list(cls.bound),
            [list(a) for a in cls.adj],
            list(cls.root),
            [list(m) for m in cls.members],
            cls.mask,
            list(cls.trail),
            list(cls.flips),
        )
        for cls in classes[1:]
    ]


def _expected_trigger(cls, u, v):
    """What adding uv to ``cls`` sets up for a prune trigger: its shape,
    the exposed ends of uv, the exposed vertices of the merged component
    and its stored matching size, all after the exposed-pair shortcut."""
    ra, rb = cls.root[u], cls.root[v]
    parts = {ra, rb}
    tight = all(cls.bound[r] == cls.matched[r] for r in parts)
    exposed = {w for r in parts for w in cls.members[r] if cls.mate[w] == -1}
    size = sum(cls.matched[r] for r in parts)
    if {u, v} <= exposed:  # matched at once
        exposed -= {u, v}
        size += 1
    ends = [w for w in (u, v) if w in exposed]
    if not tight:
        shape = "non-tight"
    elif ends:
        shape = "tight, exposed end"
    else:
        shape = "tight, both ends matched"
    return shape, ends, exposed, size


@pytest.mark.parametrize("size", range(6, 11))
def test_incremental_prune_matches_fresh_matching(size, monkeypatch):
    """Random push/pop walks through k color classes that share one
    forest, as in a search: every verdict must match a matching computed
    from scratch, every prune trigger must run the blossom searches its
    shape calls for, a pruned edge must leave no trace, and a full unwind
    must restore the initial state.

    A twin set of classes that shares one matching-number memo takes the
    same walk: after every add and remove its verdict and state must equal
    those of the memo-less set."""
    searches = []  # (forest, roots, found, flip, entries logged) per search
    real_augment = search_module._Forest.augment

    def recording_augment(forest, adj, mate, roots, log=None, flip=True):
        logged = len(log or ())
        found = real_augment(forest, adj, mate, roots, log, flip)
        searches.append(
            (forest, list(roots), found, flip, len(log or ()) - logged)
        )
        return found

    monkeypatch.setattr(search_module._Forest, "augment", recording_augment)
    hits = collections.Counter()
    memo_hits = collections.Counter()
    rng = random.Random(size)
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]

    def pop(stack, twins, color_of):
        idx = stack.pop()
        for classes in twins:
            classes[color_of[idx]].remove(*edges[idx])
        color_of[idx] = 0
        assert _kernel_state(twins[1]) == _kernel_state(twins[0])

    for k in (1, 2, 3, 4):
        for n in (4, 6, 8):
            forest = search_module._Forest(size)
            classes = [None] + [
                search_module._ColorMatching(size, n // 2, forest)
                for _ in range(k)
            ]
            memo_forest = search_module._Forest(size)
            memo: dict[int, int] = {}
            memo_classes = [None] + [
                search_module._ColorMatching(
                    size, n // 2, memo_forest, memo, len(edges) ** 2
                )
                for _ in range(k)
            ]
            twins = (classes, memo_classes)
            color_of = [0] * len(edges)
            initial = _kernel_state(classes)
            assert _kernel_state(memo_classes) == initial
            stack: list[int] = []
            for _ in range(150):
                free = [i for i in range(len(edges)) if color_of[i] == 0]
                if stack and (not free or rng.random() < 0.3):
                    pop(stack, twins, color_of)
                    continue
                idx = rng.choice(free)
                color = rng.randint(1, k)
                # Each edge is offered twice to the same class state, as the
                # search offers it again under another prefix: a committed
                # edge is taken back in between.
                for attempt in range(2):
                    shape, ends, exposed, matched = _expected_trigger(
                        classes[color], *edges[idx]
                    )
                    searches.clear()
                    before = _kernel_state(classes)
                    viable = classes[color].add(*edges[idx], idx)
                    kernel_searches = [search[1:] for search in searches]
                    searches.clear()
                    mask = memo_classes[color].mask
                    known = memo.get(mask | 1 << idx, -1) if 1 << idx > mask else -1
                    assert memo_classes[color].add(*edges[idx], idx) == viable
                    assert _kernel_state(memo_classes) == _kernel_state(classes)
                    memo_searches = [search[1:] for search in searches]
                    assert all(search[0] is memo_forest for search in searches)
                    if known < 0:
                        # A miss: the same searches run.
                        assert memo_searches == kernel_searches
                    elif known >= n // 2:
                        assert not viable and not memo_searches
                    elif kernel_searches:
                        # The known number ends the searches: the kernel's
                        # final, failed search does not run.
                        assert not kernel_searches[-1][1]
                        assert memo_searches == kernel_searches[:-1]
                    if kernel_searches and not memo_searches:
                        memo_hits["commit" if viable else "prune"] += 1
                    cls = Graph.from_edges(
                        size,
                        [edges[i] for i in stack if color_of[i] == color]
                        + [edges[idx]],
                    )
                    assert viable == (max_connected_matching(cls)[0] < n // 2)
                    if size <= 7:
                        assert viable == (brute_max_connected_matching(cls) < n // 2)
                    if kernel_searches:
                        hits[shape] += 1
                        roots = kernel_searches[0][0]
                        if shape == "non-tight":
                            # Searches go on until one fails or the target is met.
                            assert len(kernel_searches) <= n // 2 - matched + 1
                            assert set(roots) == exposed
                            assert all(found for _, found, _, _ in kernel_searches[:-1])
                            last_found = kernel_searches[-1][1]
                            assert not last_found or matched + len(kernel_searches) == n // 2
                        else:
                            # Every augmenting path uses uv: one search decides,
                            # from the exposed end if there is one.
                            assert len(kernel_searches) == 1
                            assert sorted(roots) == sorted(ends or exposed)
                        # Every search but the last flips and logs its path.
                        assert all(flip and logged > 0
                                   for _, _, flip, logged in kernel_searches[:-1])
                        if not viable:
                            # The deciding search finds its path but neither
                            # flips nor logs it.
                            _, found, flip, logged = kernel_searches[-1]
                            assert found and not flip and logged == 0
                    if viable:
                        color_of[idx] = color
                        stack.append(idx)
                        if attempt == 0:
                            pop(stack, twins, color_of)
                    else:
                        # A pruned edge is not added, so nothing is undone.
                        assert _kernel_state(classes) == before
            while stack:
                pop(stack, twins, color_of)
            assert _kernel_state(classes) == initial
            for f in (forest, memo_forest):
                assert f.parent == [-1] * size
                assert f.base == list(range(size))
                assert not any(f.even + f.seen + f.in_blossom)
    # The walks reach every trigger shape, and the memo answers some
    # triggers in place of the searches, both ways.
    assert len(hits) == 3, hits
    assert set(memo_hits) == {"commit", "prune"}, memo_hits


def test_known_matching_number_ends_the_searches(monkeypatch):
    # On K_6 with n = 6, edge 14 = (4, 5) joins vertex 5 to the class
    # {01, 03, 04, 24}, whose matching number is 2. Adding 01 and 24 first
    # stores a matching of size 2 and records the key; adding 04 first
    # stores only 04, so a later trigger on the same key starts at size 1.
    found = []
    real_augment = search_module._Forest.augment

    def recording_augment(forest, adj, mate, roots, log=None, flip=True):
        found.append(real_augment(forest, adj, mate, roots, log, flip))
        return found[-1]

    monkeypatch.setattr(search_module._Forest, "augment", recording_augment)
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    memo: dict[int, int] = {}
    forest = search_module._Forest(6)
    kernel = search_module._ColorMatching(6, 3, forest)
    twin = search_module._ColorMatching(6, 3, forest, memo, 100)
    for order in ([0, 10, 3, 2], [3, 0, 10, 2]):
        searches = []
        for cls in (kernel, twin):
            for idx in order + [14]:
                found.clear()
                assert cls.add(*edges[idx], idx)
            searches.append(list(found))
        assert _kernel_state([None, twin]) == _kernel_state([None, kernel])
        for cls in (kernel, twin):
            for idx in reversed(order + [14]):
                cls.remove(*edges[idx])
        assert memo == {1 | 1 << 2 | 1 << 3 | 1 << 10 | 1 << 14: 2}
    # The kernel augments once and then fails; the twin stops at the known
    # matching number.
    assert searches == [[True, False], [True]]


def test_remove_runs_once_per_committed_add(monkeypatch):
    # Only committed edges are undone, each once and in LIFO order; a
    # pruned node leaves nothing to remove.
    real_add = search_module._ColorMatching.add
    real_remove = search_module._ColorMatching.remove
    committed = []  # (class, edge) of the edges applied now
    counts = collections.Counter()

    def counting_add(cls, u, v, idx):
        counts["add"] += 1
        viable = real_add(cls, u, v, idx)
        if viable:
            counts["committed"] += 1
            committed.append((cls, (u, v)))
        return viable

    def counting_remove(cls, u, v):
        counts["remove"] += 1
        assert committed.pop() == (cls, (u, v))
        real_remove(cls, u, v)

    monkeypatch.setattr(search_module._ColorMatching, "add", counting_add)
    monkeypatch.setattr(search_module._ColorMatching, "remove", counting_remove)
    result = search_avoider(SearchConfig(8, 3, 4))
    assert result == SearchResult(CERTIFIED_NONE, None, 6_821)
    assert counts["add"] == result.nodes
    assert committed == []
    assert counts["remove"] == counts["committed"] < counts["add"]
    assert (counts["add"], counts["committed"]) == (6_821, 2_294)


def test_search_memo_needs_three_colors_and_stays_within_its_cap(monkeypatch):
    # With at most two colors edge 0 is color 1, so a class's edge set and
    # the new edge fix the whole prefix: no key repeats, and none is kept.
    for cfg in (SearchConfig(11, 2, 8, node_budget=100_000), SearchConfig(6, 1, 4)):
        assert search_module._Searcher(cfg).memo is None
    for k in (3, 4, 10**5):
        assert search_module._Searcher(SearchConfig(9, k, 4)).memo == {}
    # A byte budget of three entries: the full memo takes no more, and the
    # result is that of the memo-less search.
    monkeypatch.setattr(search_module, "MEMO_BYTES", 3 * (80 + 28 // 7))
    for shape, status, nodes in [((8, 3, 4), CERTIFIED_NONE, 6_821),
                                 ((7, 4, 4), FOUND, 35_656)]:
        searcher = search_module._Searcher(SearchConfig(*shape))
        result = searcher.run()
        assert (result.status, result.nodes) == (status, nodes)
        # Entries are never dropped, so the final size is the largest.
        assert len(searcher.memo) == searcher.memo_cap == 3
        plain = search_module._Searcher(SearchConfig(*shape))
        plain.memo = None
        assert plain.run() == result
    # Out of index order a key would not fix uv: such an add skips the memo.
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]

    def memo_after(indices):
        memo = {}
        cls = search_module._ColorMatching(
            6, 2, search_module._Forest(6), memo, len(edges)
        )
        for idx in indices:
            cls.add(*edges[idx], idx)
        return memo

    assert memo_after(range(len(edges)))
    assert memo_after(reversed(range(len(edges)))) == {}


def test_ramsey_values():
    assert ramsey_cm(1, 4, 6).value == 4
    assert ramsey_cm(2, 2, 4).value == 2
    result = ramsey_cm(2, 4, 6)
    assert result.value == 5
    assert result.status == "exact"
    # returned avoider lives on K_4 and avoids
    assert find_mono_cm(complete_graph(4), result.avoider, 4) is None


@pytest.mark.parametrize(
    "k, n, n_max, value, nodes",
    [(2, 4, 8, 5, 47), (3, 4, 8, 6, 1_273), (2, 6, 10, 8, 5_810)],
)
def test_ramsey_scan_values_and_node_counts(k, n, n_max, value, nodes):
    # The node counts pin the shape of the symmetry-reduced search tree.
    result = ramsey_cm(k, n, n_max)
    assert (result.status, result.value, result.nodes) == ("exact", value, nodes)


def test_ramsey_budget_degrades_to_lower_bound():
    result = ramsey_cm(2, 4, 6, node_budget=20)
    assert result.status == "lower_bound"
    assert result.value is None
    assert result.lower_bound >= 2


def test_ramsey_budget_is_never_overrun():
    full = ramsey_cm(2, 4, 8)
    for budget in range(1, 61):
        result = ramsey_cm(2, 4, 8, node_budget=budget)
        assert result.nodes <= budget
        if result.status == "exact":
            assert full.status == "exact"
            assert (result.value, result.nodes) == (full.value, full.nodes)
    # K_4 takes 9 nodes to find an avoider; the spent budget buys no more.
    result = ramsey_cm(2, 4, 8, node_budget=9)
    assert (result.status, result.lower_bound, result.nodes) == ("lower_bound", 5, 9)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"node_budget": 0}, "node_budget must be positive"),
        ({"node_budget": -5}, "node_budget must be positive"),
        ({"n_max": 0}, "n_max must be >= 1"),
        ({"n_max": -3}, "n_max must be >= 1"),
    ],
)
def test_ramsey_rejects_bad_budget_and_range(kwargs, message):
    args = {"color_count": 2, "n": 4, "n_max": 6, **kwargs}
    with pytest.raises(ValueError, match=message):
        ramsey_cm(**args)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"color_count": 0}, "color_count must be >= 1"),
        ({"color_count": -1}, "color_count must be >= 1"),
        ({"vertex_count": -3}, "vertex_count must be >= 0"),
        ({"node_budget": 0}, "node_budget must be positive"),
        ({"threads": 0}, "threads must be >= 1"),
    ],
)
def test_search_config_rejects_no_colors_and_negative_order(kwargs, message):
    args = {"vertex_count": 5, "color_count": 2, "n": 4, **kwargs}
    with pytest.raises(ValueError, match=message):
        SearchConfig(**args)


def test_search_config_caps_vertex_count():
    cap = search_module.MAX_VERTICES
    result = search_avoider(SearchConfig(cap, 2, 4, node_budget=1))
    assert result == SearchResult(BUDGET_EXHAUSTED, None, 1)
    with pytest.raises(ValueError, match=f"vertex_count must be <= {cap}"):
        SearchConfig(cap + 1, 2, 4)


def test_ramsey_scan_starts_at_n(monkeypatch):
    # Every coloring of K_119 avoids a connected matching on 120 vertices:
    # one detector check of the one-color avoider, no scan below n.
    detector_calls = []
    real_find = search_module.find_mono_cm

    def counting_find(g, coloring, n):
        detector_calls.append(g.vertex_count)
        return real_find(g, coloring, n)

    monkeypatch.setattr(search_module, "find_mono_cm", counting_find)
    result = ramsey_cm(2, 120, 119)
    assert (result.status, result.lower_bound, result.nodes) == ("lower_bound", 120, 0)
    assert result.avoider == EdgeColoring(2, {e: 1 for e in complete_graph(119).edges})
    assert detector_calls == [119]
    # A scan that would need a size above the cap is refused.
    cap = search_module.MAX_VERTICES
    with pytest.raises(ValueError, match=f"vertex_count must be <= {cap}"):
        ramsey_cm(2, 2 * cap, 2 * cap)
    assert ramsey_cm(1, 4, 10 * cap).value == 4


def test_ramsey_rejects_no_colors():
    # With no colors nothing can be searched, so nothing is certified.
    with pytest.raises(ValueError, match="color_count must be >= 1"):
        ramsey_cm(0, 4, 6)


def test_detector_on_random_colorings_of_k17():
    g = complete_graph(17)
    for seed in range(50):
        coloring = random_coloring(17, 4, seed)
        witness = find_mono_cm(g, coloring, 4)
        assert witness is not None
        assert check_witness(g, coloring, 4, witness)
