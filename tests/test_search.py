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
    components,
    disjoint_union,
    find_mono_cm,
    matching_number,
    max_connected_matching,
    maximum_matching,
    path_graph,
    ramsey_cm,
    search_avoider,
    star_graph,
)
from cmstruct.constructions import affine_plane_coloring, random_coloring
from cmstruct import matching as matching_module
from cmstruct import search as search_module
from cmstruct.errors import OddNError

from .generators import random_graph
from .oracles import (
    brute_avoider_forms,
    brute_has_mono_cm,
    brute_matching_number,
    brute_max_connected_matching,
    canonical_form,
)


def test_max_connected_matching_examples():
    two_edges = Graph(4, [(0, 1), (2, 3)])
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
def test_check_witness_rejects_forged_witnesses(forge, monkeypatch):
    g = complete_graph(4)
    coloring = EdgeColoring(2, {e: 1 for e in g.edges})
    # Color 1 also colors (3, 4), which is not an edge of g5: through it,
    # vertex 4 would join the witness component, so the genuine witness
    # must still pass and the "wrong-component" forgery, which takes
    # vertex 4 in, must fail.
    g5 = Graph(5, g.edges)
    outside = EdgeColoring(2, {**coloring.assignment, (3, 4): 1})
    cases = [(host, colors, find_mono_cm(host, colors, 4))
             for host, colors in ((g, coloring), (g5, outside))]

    def no_class(*args):
        raise AssertionError("check_witness builds a class")

    monkeypatch.setattr(matching_module, "color_class", no_class)
    monkeypatch.setattr(matching_module, "components", no_class)
    for host, colors, witness in cases:
        assert witness.component == frozenset(range(4))
        assert check_witness(host, colors, 4, witness)
        assert not check_witness(host, colors, 4, forge(witness))


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
            now, _ = max_connected_matching(Graph(size, edges))
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
    result = search_avoider(SearchConfig(9, 4, 4, node_budget=10**7))
    assert result.status == FOUND
    assert result.nodes == 782_094
    assert find_mono_cm(complete_graph(9), result.coloring, 4) is None
    # At n = 4 no component stores more than one edge, so the short-path
    # probe decides all 231,414 edges that reach it: no blossom search runs.
    assert len(searches) == 0


def test_short_path_probe_saves_blossom_searches(monkeypatch):
    # Every stored matching is maximum, so every augmenting path through a
    # new edge uses it, and the short-path probe lists them all while the
    # stored size is at most 3. A blossom search runs only after a miss
    # with 4 or more stored edges, so only from n = 10. Over the same
    # 20,000 nodes, with a stored upper bound on the matching number
    # instead: K_11 with k = 2, n = 8 ran 2,874 searches (17,654 without
    # the probe), and K_14 with k = 2, n = 10 ran 5,776.
    searches = []
    real_augment = search_module._Forest.augment

    def counting_augment(forest, *args):
        searches.append(None)
        return real_augment(forest, *args)

    monkeypatch.setattr(search_module._Forest, "augment", counting_augment)
    for shape, count in (((11, 2, 8), 0), ((14, 2, 10), 2_694)):
        searches.clear()
        result = search_avoider(SearchConfig(*shape, node_budget=20_000))
        assert result == SearchResult(BUDGET_EXHAUSTED, None, 20_000)
        assert len(searches) == count, shape


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
    # No star edge is ordered, and every color may be new.
    monkeypatch.setattr(
        search_module._Searcher,
        "_symmetry",
        lambda searcher: (0, searcher.cfg.color_count),
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
    # The walker's star prefixes come from the same rules, here also with
    # colors that first use would never offer, and the workers replay them.
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 64)
    parallel = search_avoider(SearchConfig(6, 3, 4, threads=2))
    assert parallel == SearchResult(CERTIFIED_NONE, None, 20_172)


@pytest.mark.parametrize(
    "shape, classes",
    [((4, 2, 4), 1), ((5, 2, 4), 0), ((5, 2, 6), 18), ((6, 2, 6), 7),
     ((4, 3, 4), 6), ((5, 3, 4), 3)],
)
def test_search_lists_an_avoider_of_every_orbit(shape, classes):
    # The symmetry rules may drop colorings, never a whole orbit under
    # vertex and color permutations: the avoiders the search lists, run to
    # the end, reach every orbit of the brute avoiders.
    size = shape[0]
    searcher = search_module._Searcher(SearchConfig(*shape))
    listed = searcher._dfs(0, 0, len(searcher.edge_list))
    forms = {canonical_form(size, colors) for colors in listed}
    assert not searcher.exhausted
    brute = brute_avoider_forms(*shape)
    assert len(brute) == classes
    assert forms == brute


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
            [list(a) for a in cls.adj],
            list(cls.root),
            [list(m) for m in cls.members],
            list(cls.trail),
            list(cls.flips),
        )
        for cls in classes[1:]
    ]


def _assert_stored_matchings_maximum(cls, edges):
    """The mates of ``cls``, whose graph has the edges ``edges``, form a
    matching of that graph, and in each component its stored size is the
    count of its matched edges and the size of a fresh maximum matching."""
    order = len(cls.mate)
    g = Graph(order, edges)
    mate = cls.mate
    for w, m in enumerate(mate):
        assert m == -1 or (mate[m] == w and g.has_edge(w, m)), (w, m)
    for r in set(cls.root):
        part = [w for w in range(order) if cls.root[w] == r]
        assert sorted(cls.members[r]) == part
        stored = sum(mate[w] > w for w in part)
        assert cls.matched[r] == stored == maximum_matching(g.induced(part)[0]).size


def _expected_route(cls, u, v):
    """How ``add`` must decide uv in ``cls``, from the stored state alone,
    with the stored size of the merged component before uv, the exposed
    ends of uv and the exposed vertices of the merged component."""
    parts = {cls.root[u], cls.root[v]}
    size = sum(cls.matched[r] for r in parts)
    order = sum(len(cls.members[r]) for r in parts)
    exposed = {w for r in parts for w in cls.members[r] if cls.mate[w] == -1}
    ends = [w for w in (u, v) if w in exposed]
    if size + (len(ends) == 2) >= cls.target:
        route = "stored prune"
    elif len(ends) == 2:
        route = "exposed pair"
    elif size == order // 2:
        route = "saturated"
    else:
        route = "probe"
    return route, size, ends, exposed


@pytest.mark.parametrize("size", [6, 7, 8, 9, 10, 12])
def test_incremental_prune_matches_fresh_matching(size, monkeypatch):
    """Random push/pop walks through k color classes that share one
    forest, as in a search. After every add, committed or pruned, each
    component's stored matching must be maximum, against a matching
    computed from scratch, so the verdict is a fresh one. Each edge must
    take the route that the stored state gives it, a pruned edge must
    leave no trace, and a full unwind must restore the initial state.

    Below the target an exposed pair is matched at once, and a component
    whose stored matching leaves at most one vertex exposed needs no probe.
    Any other edge probes the short augmenting paths through it: a hit
    flips its path, or prunes at the target, and a miss with at most 3
    stored edges commits with the size unchanged. Only a miss with 4 or
    more runs one blossom search, rooted at the exposed end of uv if there
    is one, which flips its path unless that would reach the target."""
    searches = []  # (roots, found, flip, entries logged) per search
    real_augment = search_module._Forest.augment

    def recording_augment(forest, adj, mate, roots, log=None, flip=True):
        logged = len(log or ())
        found = real_augment(forest, adj, mate, roots, log, flip)
        searches.append((list(roots), found, flip, len(log or ()) - logged))
        return found

    probes = []  # the path each short-path probe returns, or None
    real_probe = search_module._short_augmenting_path

    def recording_probe(adj, mate, u, v, most):
        probes.append(real_probe(adj, mate, u, v, most))
        return probes[-1]

    monkeypatch.setattr(search_module._Forest, "augment", recording_augment)
    monkeypatch.setattr(search_module, "_short_augmenting_path", recording_probe)
    routes = collections.Counter()
    rng = random.Random(size)
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]

    def pop(stack, classes, color_of):
        idx = stack.pop()
        classes[color_of[idx]].remove(*edges[idx])
        color_of[idx] = 0

    for k in (1, 2, 3, 4):
        for n in range(4, max(size, 8) + 1, 2):
            forest = search_module._Forest(size)
            classes = [None] + [
                search_module._ColorMatching(size, n // 2, forest)
                for _ in range(k)
            ]
            color_of = [0] * len(edges)
            initial = _kernel_state(classes)
            stack: list[int] = []
            for _ in range(300):
                free = [i for i in range(len(edges)) if color_of[i] == 0]
                if stack and (not free or rng.random() < 0.3):
                    pop(stack, classes, color_of)
                    continue
                idx = rng.choice(free)
                color = rng.randint(1, k)
                cls = classes[color]
                u, v = edges[idx]
                # Each edge is offered twice to the same class state, as the
                # search offers it again after a backtrack: a committed edge
                # is taken back in between.
                for attempt in range(2):
                    route, stored, ends, exposed = _expected_route(cls, u, v)
                    searches.clear()
                    probes.clear()
                    before = _kernel_state(classes)
                    flips_before = len(cls.flips)
                    viable = cls.add(u, v)
                    kernel_searches = list(searches)
                    kernel_probes = list(probes)
                    own = [edges[i] for i in stack if color_of[i] == color]
                    plus = Graph(size, own + [edges[idx]])
                    fresh = max_connected_matching(plus)[0]
                    assert viable == (fresh < n // 2)
                    if size <= 7:
                        assert viable == (brute_max_connected_matching(plus) < n // 2)
                    if not viable:
                        # A pruned edge is not added, so nothing is undone.
                        assert _kernel_state(classes) == before
                    _assert_stored_matchings_maximum(cls, own + [edges[idx]] * viable)
                    rises = viable and cls.matched[cls.root[u]] == stored + 1
                    if route != "probe":
                        assert not kernel_probes and not kernel_searches
                        assert viable == (route != "stored prune")
                        assert rises == (route == "exposed pair")
                    else:
                        [path] = kernel_probes
                        if path is not None:
                            # A hit rises; below the target its path is
                            # flipped and each old mate logged.
                            assert not kernel_searches
                            assert viable == (stored + 1 < n // 2)
                            if viable:
                                assert rises
                                assert len(cls.flips) - flips_before == len(path)
                            route = "probe flip" if viable else "probe prune"
                        elif stored <= 3:
                            # Every augmenting path uses uv and has at most 3
                            # matched edges, and the probe lists them all.
                            assert viable and not rises and not kernel_searches
                            assert len(cls.flips) == flips_before
                            route = "probe miss"
                        else:
                            # One deciding search, from the exposed end if
                            # there is one; the path that would reach the
                            # target is found but neither flipped nor logged.
                            [(roots, found, flip, logged)] = kernel_searches
                            assert sorted(roots) == sorted(ends or exposed)
                            assert flip == (stored + 1 < n // 2)
                            assert (logged > 0) == (found and flip)
                            assert viable == (not found or flip)
                            assert rises == (found and flip)
                            route = ("search " + ("flip" if flip else "prune")
                                     if found else "search miss")
                    routes[route] += 1
                    if viable:
                        color_of[idx] = color
                        stack.append(idx)
                        if attempt == 0:
                            pop(stack, classes, color_of)
            while stack:
                pop(stack, classes, color_of)
            assert _kernel_state(classes) == initial
            assert forest.parent == [-1] * size
            assert forest.base == list(range(size))
            assert not any(forest.even + forest.seen + forest.in_blossom)
    # The walks reach every route. A blossom search needs 4 stored edges,
    # so n >= 10 and 10 vertices, and one that flips needs n >= 12.
    assert set(routes) >= {"stored prune", "exposed pair", "saturated",
                           "probe flip", "probe prune", "probe miss"}, routes
    searched = {r for r in routes if r.startswith("search")}
    assert searched == ({"search flip", "search prune", "search miss"}
                        if size >= 12 else
                        {"search prune", "search miss"} if size >= 10 else
                        set()), routes


def test_blossom_search_flips_a_long_augmenting_path(monkeypatch):
    # The path 1-2-...-9, built edge by edge, stores the maximum matching
    # 12, 34, 56, 78 with no probe or search. The edge 01 then closes the
    # augmenting path 0-1-...-9 with 4 matched edges, beyond the probe: one
    # blossom search from the exposed end 0 finds it. With n = 12 it flips
    # the path; with n = 10 the path would reach the target, so the search
    # only finds it and the edge is pruned.
    searches = []  # (roots, found, flip) per search
    real_augment = search_module._Forest.augment

    def recording_augment(forest, adj, mate, roots, log=None, flip=True):
        found = real_augment(forest, adj, mate, roots, log, flip)
        searches.append((list(roots), found, flip))
        return found

    monkeypatch.setattr(search_module._Forest, "augment", recording_augment)
    path = [(u, u + 1) for u in range(1, 9)]
    for n, viable in ((12, True), (10, False)):
        cls = search_module._ColorMatching(12, n // 2, search_module._Forest(12))
        initial = _kernel_state([None, cls])
        for u, v in path:
            assert cls.add(u, v)
        _assert_stored_matchings_maximum(cls, path)
        before = _kernel_state([None, cls])
        searches.clear()
        assert cls.add(0, 1) == viable
        assert searches == [([0], True, viable)]
        if viable:
            assert cls.matched[cls.root[0]] == 5
            _assert_stored_matchings_maximum(cls, [(0, 1), *path])
            cls.remove(0, 1)
        assert _kernel_state([None, cls]) == before
        for u, v in reversed(path):
            cls.remove(u, v)
        assert _kernel_state([None, cls]) == initial


def _fewest_matched_edges(g, mate, u, v, most):
    """The fewest matched edges, up to ``most``, on an augmenting path for
    ``mate`` in g plus the edge uv that runs through uv, by exhaustive
    search over the simple alternating paths; None if there is none."""
    best = None

    def walk(x, visited, through, count):
        nonlocal best
        for y in [*g.neighbors(x), *({u: [v], v: [u]}.get(x, ()))]:
            if y in visited:
                continue
            uses = through or {x, y} == {u, v}
            if mate[y] == -1:
                if uses and (best is None or count < best):
                    best = count
            elif count < most:
                walk(mate[y], visited | {y, mate[y]}, uses, count + 1)

    for s in range(g.vertex_count):
        if mate[s] == -1:
            walk(s, frozenset([s]), False, 0)
    return best


def _assert_augmenting_path(plus, mate, u, v, path, most):
    """``path`` runs through uv in ``plus`` as a simple path between two
    exposed vertices that alternates between edges outside and inside the
    matching ``mate``, so flipping it gives a matching of ``plus`` with one
    more edge."""
    assert len(set(path)) == len(path) >= 2, path
    assert mate[path[0]] == mate[path[-1]] == -1, path
    steps = list(zip(path, path[1:]))
    assert (u, v) in steps or (v, u) in steps, path
    assert all(plus.has_edge(a, b) for a, b in steps), path
    assert all(mate[a] == b for a, b in steps[1::2]), path
    flipped = {frozenset((w, m)) for w, m in enumerate(mate) if m > w}
    flipped -= {frozenset(step) for step in steps[1::2]}
    flipped |= {frozenset(step) for step in steps[::2]}
    covered = [w for edge in flipped for w in edge]
    assert len(covered) == len(set(covered)), path
    assert len(flipped) == matching_number(plus), path


def test_short_path_probe_is_sound():
    """On a graph with a stored maximum matching, the probe with ``most``
    on a non-edge uv, not between two exposed vertices, must hit exactly
    when an augmenting path through uv has at most ``most`` matched edges.
    A hit must return one: a simple alternating path through uv between two
    exposed vertices, whose flip is a matching of nu + 1 edges, so uv
    raises the matching number. Where the
    components of u and v hold at most ``most`` matched edges, a miss must
    mean that it does not: every augmenting path then uses uv and at most
    ``most`` matched edges, and the probe lists them all. Every path shape
    is found, and some rises are missed: those need the blossom search."""
    rng = random.Random(0)
    graphs = []
    for _ in range(200):
        size = rng.randint(4, 10)
        graphs.append(random_graph(rng, size, rng.uniform(0.15, 0.5)))
    # A path on 9 vertices and one isolated vertex: an edge between that
    # vertex and the path can close an augmenting path with 4 matched edges.
    graphs.append(Graph(10, [(i, i + 1) for i in range(8)]))
    outcomes = collections.Counter()
    for g in graphs:
        size = g.vertex_count
        mate = [-1] * size
        for a, b in maximum_matching(g).edges:
            mate[a], mate[b] = b, a
        nu = matching_number(g)
        label = components(g).labels
        for u, v in itertools.combinations(range(size), 2):
            if g.has_edge(u, v) or mate[u] == mate[v] == -1:
                continue
            plus = Graph(size, [*g.edges, (u, v)])
            rises = matching_number(plus) == nu + 1
            if size <= 7:
                assert rises == (brute_matching_number(plus) == nu + 1)
            fewest = _fewest_matched_edges(g, mate, u, v, 3)
            near = {label[u], label[v]}
            stored = sum(mate[w] > w for w in range(size) if label[w] in near)
            # With both ends of uv matched a path holds 2 or more matched
            # edges, and uv lies in its middle.
            middle = -1 not in (mate[u], mate[v])
            for most in (2, 3) if middle else (1, 2, 3):
                path = search_module._short_augmenting_path(
                    g.adjacency, mate, u, v, most)
                hit = path is not None
                assert hit == (fewest is not None and fewest <= most), (
                    g.edges, u, v, most)
                assert rises or not hit, (g.edges, u, v, most)
                if stored <= most:
                    assert hit == rises, (g.edges, u, v, most)
                if hit:
                    _assert_augmenting_path(plus, mate, u, v, path, most)
                    assert len(path) <= 2 * most + 2, (path, most)
            if fewest is not None:
                where = "uv in the middle" if middle else "uv at an end"
                outcomes[f"length {2 * fewest + 1}, {where}"] += 1
            elif rises:
                outcomes["missed"] += 1
    assert set(outcomes) == {
        "length 3, uv at an end",
        "length 5, uv at an end",
        "length 5, uv in the middle",
        "length 7, uv at an end",
        "length 7, uv in the middle",
        "missed",
    }, outcomes


def test_remove_runs_once_per_committed_add(monkeypatch):
    # Only committed edges are undone, each once and in LIFO order; a
    # pruned node leaves nothing to remove.
    real_add = search_module._ColorMatching.add
    real_remove = search_module._ColorMatching.remove
    committed = []  # (class, edge) of the edges applied now
    counts = collections.Counter()

    def counting_add(cls, u, v):
        counts["add"] += 1
        viable = real_add(cls, u, v)
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


@pytest.mark.parametrize("shape, nodes", [((6, 3, 4), 1_245),
                                          ((8, 3, 4), 6_821),
                                          ((8, 2, 6), 5_758)])
def test_certified_search_unwinds_every_class(shape, nodes, monkeypatch):
    # A certified search undoes every commit, so every class it built ends
    # as a fresh one, with an empty trail and no flips. The undos include
    # merges and exposed-pair matches, which the trail entry records.
    undone = collections.Counter()
    real_remove = search_module._ColorMatching.remove

    def counting_remove(cls, u, v):
        _, absorbed, _, _, pair = cls.trail[-1]
        undone["merge"] += absorbed >= 0
        undone["pair"] += pair
        real_remove(cls, u, v)

    monkeypatch.setattr(search_module._ColorMatching, "remove", counting_remove)
    cfg = SearchConfig(*shape)
    searcher = search_module._Searcher(cfg)
    assert searcher.run() == SearchResult(CERTIFIED_NONE, None, nodes)
    assert undone["merge"] > 0 and undone["pair"] > 0, undone
    classes = [None] + [add.__self__ for add in searcher.adds[1:]]
    assert len(classes) == 1 + cfg.color_count
    fresh = search_module._ColorMatching(
        cfg.vertex_count, cfg.n // 2, search_module._Forest(cfg.vertex_count)
    )
    assert _kernel_state(classes) == _kernel_state([None, fresh]) * cfg.color_count
    assert all(not cls.trail and not cls.flips for cls in classes[1:])


def test_search_budget_boundaries():
    # Every node is charged once: the last color of an edge and the first
    # color after a backtrack alike. Each budget below the full count of
    # 1,245 nodes runs out after exactly that many; the full count certifies.
    full = 1_245
    for budget in range(1, full + 1):
        result = search_avoider(SearchConfig(6, 3, 4, node_budget=budget))
        if budget < full:
            assert result == SearchResult(BUDGET_EXHAUSTED, None, budget), budget
        else:
            assert result == SearchResult(CERTIFIED_NONE, None, full)


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
