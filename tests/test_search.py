import itertools
import random

import pytest

from cmstruct import (
    BUDGET_EXHAUSTED,
    CERTIFIED_NONE,
    FOUND,
    EdgeColoring,
    Graph,
    SearchConfig,
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


def test_search_finds_affine_type_avoider():
    result = search_avoider(SearchConfig(9, 4, 4, node_budget=10**7))
    assert result.status == FOUND
    assert result.nodes == 782_094
    assert find_mono_cm(complete_graph(9), result.coloring, 4) is None


def test_budget_exhaustion_is_distinct():
    result = search_avoider(SearchConfig(5, 2, 4, node_budget=5))
    assert result.status == BUDGET_EXHAUSTED
    assert result.coloring is None


def _brute_avoider_exists(size: int, k: int, n: int) -> bool:
    g = complete_graph(size)
    edges = sorted(g.edges)
    for colors in itertools.product(range(1, k + 1), repeat=len(edges)):
        coloring = EdgeColoring(k, dict(zip(edges, colors)))
        if not brute_has_mono_cm(g, coloring, n):
            return True
    return False


def test_pruning_safety_matches_unpruned_and_brute():
    for size in range(2, 6):
        for k in (1, 2):
            expected = _brute_avoider_exists(size, k, 4)
            for first_use in (True, False):
                for canon in (True, False):
                    cfg = SearchConfig(
                        size,
                        k,
                        4,
                        color_first_use=first_use,
                        vertex_canonicalization=canon,
                    )
                    result = search_avoider(cfg)
                    assert (result.status == FOUND) == expected, (size, k, cfg)


def test_parallel_search_agrees_with_sequential():
    sequential = search_avoider(SearchConfig(5, 2, 4))
    parallel = search_avoider(SearchConfig(5, 2, 4, threads=2))
    assert sequential.status == parallel.status == CERTIFIED_NONE
    assert search_avoider(SearchConfig(4, 2, 4, threads=2)).status == FOUND


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps here."""

    requested: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, expected", [(64, 4), (3, 3), (None, 1)])
def test_parallel_search_caps_worker_count(monkeypatch, cpus, expected):
    monkeypatch.setattr(search_module, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    sequential = search_avoider(SearchConfig(5, 2, 4))
    capped = search_avoider(SearchConfig(5, 2, 4, threads=100000))
    # K_5 splits into 4 star prefixes at vertex 0.
    assert _InProcessPool.requested == [expected]
    assert capped.status == sequential.status == CERTIFIED_NONE


def test_parallel_budget_shares_stay_within_budget(monkeypatch):
    monkeypatch.setattr(search_module, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    # K_6 splits into 5 star prefixes, more than the 3 nodes of budget.
    result = search_avoider(SearchConfig(6, 2, 4, node_budget=3, threads=2))
    assert result.status == BUDGET_EXHAUSTED
    assert result.nodes <= 3


def _kernel_state(searcher):
    return [
        (
            list(cls.mate),
            list(cls.matched),
            list(cls.bound),
            [list(a) for a in cls.adj],
            list(cls.comps.parent),
            [list(m) for m in cls.comps.members],
        )
        for cls in searcher.classes[1:]
    ]


@pytest.mark.parametrize("size", range(6, 11))
def test_incremental_prune_matches_fresh_matching(size):
    """Random push/pop walks through the search kernel: every verdict must
    match a matching computed from scratch, and a full unwind must restore
    the initial state."""
    rng = random.Random(size)
    for k in (1, 2, 3):
        for n in (4, 6, 8):
            searcher = search_module._Searcher(SearchConfig(size, k, n))
            initial = _kernel_state(searcher)
            edges = searcher.edge_list
            stack: list[int] = []
            for _ in range(150):
                free = [i for i in range(len(edges)) if searcher.color_of[i] == 0]
                if stack and (not free or rng.random() < 0.3):
                    searcher._unassign(stack.pop())
                    continue
                idx = rng.choice(free)
                color = rng.randint(1, k)
                viable = searcher._assign(idx, color)
                stack.append(idx)
                cls = Graph.from_edges(
                    size, [edges[i] for i in stack if searcher.color_of[i] == color]
                )
                assert viable == (max_connected_matching(cls)[0] < n // 2)
                if size <= 7:
                    assert viable == (brute_max_connected_matching(cls) < n // 2)
                if not viable:
                    # As in the search, a pruned assignment is undone at once.
                    searcher._unassign(stack.pop())
            while stack:
                searcher._unassign(stack.pop())
            assert _kernel_state(searcher) == initial


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


def test_detector_on_random_colorings_of_k17():
    g = complete_graph(17)
    for seed in range(50):
        coloring = random_coloring(17, 4, seed)
        witness = find_mono_cm(g, coloring, 4)
        assert witness is not None
        assert check_witness(g, coloring, 4, witness)
