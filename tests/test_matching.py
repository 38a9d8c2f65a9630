import random

from cmstruct import (
    Graph,
    complete_graph,
    disjoint_union,
    matching_number,
    matching_of_size,
    maximum_matching,
    odd_components,
    path_graph,
    sqi_partition,
    star_graph,
    tutte_berge,
)
from cmstruct import matching as matching_module

from .generators import random_connected_graph, random_graph
from .oracles import (
    all_graphs,
    brute_deficiency,
    brute_gallai_edmonds,
    brute_matching_number,
    has_augmenting_path,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_maximum_matching_examples():
    assert maximum_matching(complete_graph(4)).size == 2
    assert maximum_matching(star_graph(3)).size == 1
    g = petersen()
    assert maximum_matching(g).size == 5
    assert brute_matching_number(g) == 5


def test_matching_structure():
    m = maximum_matching(complete_graph(5))
    assert len(m.covered) == 2 * m.size
    flat = [v for e in m.edges for v in e]
    assert len(set(flat)) == len(flat)


def test_matching_is_deterministic():
    g = random_connected_graph(random.Random(3), 9, 0.4)
    assert maximum_matching(g) == maximum_matching(g)


def test_matching_of_size():
    g = complete_graph(6)
    assert matching_of_size(g, 2).size == 2
    assert matching_of_size(g, 3).size == 3
    assert matching_of_size(g, 4) is None


def test_tutte_berge_examples():
    w = tutte_berge(complete_graph(3))
    assert (w.deficiency, w.witness) == (1, frozenset())
    assert len(w.odd_components) == 1

    w = tutte_berge(star_graph(3))
    assert (w.deficiency, w.witness) == (2, frozenset({0}))
    assert w.odd_components == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert brute_deficiency(star_graph(3)) == 2

    assert tutte_berge(path_graph(4)).deficiency == 0


def test_odd_components_examples():
    assert odd_components(star_graph(3), {0}) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]
    assert odd_components(complete_graph(4), frozenset()) == []
    two = disjoint_union([complete_graph(3), complete_graph(3)])
    assert odd_components(two, frozenset()) == [
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    ]


def test_odd_components_ordering():
    # size descending, then smallest vertex id ascending
    g = disjoint_union([complete_graph(1), complete_graph(3), complete_graph(1)])
    assert odd_components(g, frozenset()) == [
        frozenset({1, 2, 3}),
        frozenset({0}),
        frozenset({4}),
    ]


def test_exhaustive_small_graphs():
    for n in range(6):
        for g in all_graphs(n):
            nu = matching_number(g)
            assert nu == brute_matching_number(g)
            w = tutte_berge(g)
            assert w.deficiency == g.vertex_count - 2 * nu
            assert w.deficiency == len(w.odd_components) - len(w.witness)
            assert w.deficiency == brute_deficiency(g)


def test_random_graphs_against_oracle():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        nu = matching_number(g)
        assert nu == brute_matching_number(g)
        w = tutte_berge(g)
        assert w.deficiency == brute_deficiency(g) == g.vertex_count - 2 * nu


def test_witness_is_gallai_edmonds_set():
    # The pinned CLI output prints the witness, so the set itself (not just
    # the deficiency it certifies) must be A = N(D) minus D.
    for n in range(6):
        for g in all_graphs(n):
            assert tutte_berge(g).witness == brute_gallai_edmonds(g)
    rng = random.Random(23)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        assert tutte_berge(g).witness == brute_gallai_edmonds(g)


def count_max_matchings(monkeypatch):
    calls = []
    real = matching_module._max_matching_mates

    def counting(adj, stop_at=None):
        calls.append(len(adj))
        return real(adj, stop_at)

    monkeypatch.setattr(matching_module, "_max_matching_mates", counting)
    return calls


def test_tutte_berge_runs_one_maximum_matching(monkeypatch):
    calls = count_max_matchings(monkeypatch)
    w = tutte_berge(star_graph(5))
    assert (w.deficiency, w.witness) == (4, frozenset({0}))
    assert len(calls) == 1


def test_sqi_partition_runs_one_maximum_matching(monkeypatch):
    # K_{1,5} with n = 6 has more than n - 1 vertices, so the partition
    # needs the witness; its matching number comes from the same matching.
    calls = count_max_matchings(monkeypatch)
    p = sqi_partition(star_graph(5), 6)
    assert p.S == frozenset({0})
    assert len(calls) == 1


def test_no_augmenting_path_certifies_maximality():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        m = maximum_matching(g)
        assert not has_augmenting_path(g, m.edges)


def test_berge_bound_for_random_matchings():
    # Every matching misses at least q(G-S) - |S| vertices for the witness S.
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        w = tutte_berge(g)
        edges = sorted(g.edges)
        rng.shuffle(edges)
        used: set = set()
        sample = []
        for u, v in edges:  # greedy random matching
            if u not in used and v not in used:
                sample.append((u, v))
                used.update((u, v))
            if rng.random() < 0.3:
                break
        missed = g.vertex_count - 2 * len(sample)
        assert missed >= len(w.odd_components) - len(w.witness)
