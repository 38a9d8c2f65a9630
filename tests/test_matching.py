import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cmstruct import (
    CMWitness,
    EdgeColoring,
    Graph,
    color_class,
    complete_graph,
    components,
    disjoint_union,
    find_mono_cm,
    matching_number,
    matching_of_size,
    maximum_matching,
    odd_components,
    parse_graph,
    path_graph,
    sqi_partition,
    star_graph,
    tutte_berge,
)
from cmstruct import matching as matching_module
from cmstruct.constructions import (
    affine_plane_coloring,
    bounded_component_coloring,
    random_coloring,
)

from .generators import random_connected_graph, random_graph
from .oracles import (
    all_graphs,
    brute_deficiency,
    brute_gallai_edmonds,
    brute_has_mono_cm,
    brute_matching_number,
    has_augmenting_path,
)
from .test_graphs import graphs_with_colorings


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


def _all_matchings(edges, used=frozenset()):
    """Every matching of ``edges`` (sorted pairs) avoiding ``used``."""
    if not edges:
        yield []
        return
    (u, v), rest = edges[0], edges[1:]
    yield from _all_matchings(rest, used)
    if u not in used and v not in used:
        for m in _all_matchings(rest, used | {u, v}):
            yield [(u, v), *m]


def _is_reset(forest, n):
    return (
        forest.parent == [-1] * n
        and forest.base == list(range(n))
        and forest.even == [False] * n
        and forest.seen == [False] * n
        and forest.in_blossom == [False] * n
    )


def _check_forest_search(forest, g, matching):
    n = g.vertex_count
    mate = [-1] * n
    for u, v in matching:
        mate[u], mate[v] = v, u
    before = list(mate)
    log: list = []
    roots = [v for v in range(n) if mate[v] == -1]
    # Without a flip the search only decides: it changes and logs nothing.
    decided = forest.augment(g.adjacency, mate, roots, log, flip=False)
    assert (mate, log) == (before, [])
    assert _is_reset(forest, n)
    found = forest.augment(g.adjacency, mate, roots, log)
    assert found == decided == has_augmenting_path(g, matching)
    assert _is_reset(forest, n)
    if found:
        assert all(mate[mate[v]] == v for v in range(n) if mate[v] != -1)
        assert all(g.has_edge(v, m) for v, m in enumerate(mate) if m != -1)
        assert sum(m != -1 for m in mate) == 2 * len(matching) + 2
        for v, m in reversed(log):
            mate[v] = m
    else:
        assert log == []
    assert mate == before


def test_forest_search_against_augmenting_path_oracle():
    # All exposed vertices as roots: an augmenting path exists iff the search
    # finds one, and undoing its log restores the matching.
    for n in range(6):
        forest = matching_module._Forest(n)
        for g in all_graphs(n):
            for matching in _all_matchings(sorted(g.edges)):
                _check_forest_search(forest, g, matching)
    rng = random.Random(29)
    forests = {n: matching_module._Forest(n) for n in range(11)}
    for _ in range(1500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        edges = sorted(g.edges)
        rng.shuffle(edges)
        used: set = set()
        matching = []
        for u, v in edges:  # a random matching, often not maximum
            if u not in used and v not in used and rng.random() < 0.7:
                matching.append((u, v))
                used.update((u, v))
        _check_forest_search(forests[n], g, matching)


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


def count_class_builds(monkeypatch):
    built = []
    build = matching_module.color_class

    def counting(g, coloring, color):
        built.append(color)
        return build(g, coloring, color)

    monkeypatch.setattr(matching_module, "color_class", counting)
    return built


def test_find_mono_cm_builds_only_the_classes_of_used_colors(monkeypatch):
    built = count_class_builds(monkeypatch)
    # One edge cannot join n = 4 vertices: no class is built.
    g = Graph.from_edges(5, [(0, 1)])
    coloring = EdgeColoring(10**5, {(1, 0): 77_777})
    assert find_mono_cm(g, coloring, 4) is None
    assert built == []
    # Used colors are still scanned in ascending order: the first one with
    # a large connected matching gives the witness. Colors 3 and 5 have
    # fewer than n - 1 edges and are skipped without a class.
    g = path_graph(6)
    coloring = EdgeColoring(
        10**5, {(0, 1): 9, (1, 2): 9, (2, 3): 9, (3, 4): 5, (4, 5): 3}
    )
    witness = find_mono_cm(g, coloring, 4)
    assert witness is not None and witness.color == 9
    # The last build is the witness check's own class of color 9.
    assert built == [9, 9]
    # Two triangles have enough edges, but neither component reaches n.
    built.clear()
    g = disjoint_union([complete_graph(3), complete_graph(3)])
    coloring = EdgeColoring(2, {e: 2 for e in g.edges})
    assert find_mono_cm(g, coloring, 4) is None
    assert built == []


def _reference_find_mono_cm(g, coloring, n):
    """The detector without its pre-check: every used color's class,
    scanned component by component."""
    for color in coloring.colors_used():
        cls = color_class(g, coloring, color)
        for comp in components(cls).vertex_sets():
            if len(comp) < n:
                continue
            sub, ids = cls.induced(comp)
            found = matching_of_size(sub, n // 2)
            if found is not None:
                return CMWitness(
                    color, comp, frozenset((ids[a], ids[b]) for a, b in found.edges)
                )
    return None


def _assert_detector_matches_reference(g, coloring, n):
    witness = find_mono_cm(g, coloring, n)
    assert witness == _reference_find_mono_cm(g, coloring, n)
    if g.vertex_count <= 7:
        # The oracle reads the whole assignment, so it gets only the edges
        # that lie in g.
        inside = {e: c for e, c in coloring.assignment.items() if e in g.edges}
        restricted = EdgeColoring(coloring.color_count, inside)
        assert (witness is not None) == brute_has_mono_cm(g, restricted, n)
    return witness


def test_find_mono_cm_matches_the_unchecked_loop_on_constructions():
    hits = misses = 0
    k17, k24 = complete_graph(17), complete_graph(24)
    for seed in range(40):
        cases = [
            (k17, random_coloring(17, 4, seed), (2, 4, 8, 12)),
            (k24, random_coloring(24, 10, seed), (4, 12, 24)),
            (*bounded_component_coloring(24, 4, 10, seed), (2, 8, 10, 12)),
            (*bounded_component_coloring(7, 3, 4, seed), (2, 4, 6)),
        ]
        for g, coloring, sizes in cases:
            for n in sizes:
                if _assert_detector_matches_reference(g, coloring, n) is None:
                    misses += 1
                else:
                    hits += 1
    for q in (3, 5):
        g, coloring = affine_plane_coloring(q)
        for n in range(2, q + 4, 2):
            _assert_detector_matches_reference(g, coloring, n)
    assert hits > 100 and misses > 100


@settings(max_examples=150)
@given(
    graphs_with_colorings(),
    st.sampled_from([2, 4, 6, 8]),
    st.randoms(use_true_random=False),
)
def test_find_mono_cm_matches_the_unchecked_loop_on_hypothesis_colorings(
    gc, n, rnd
):
    g, coloring = gc
    _assert_detector_matches_reference(g, coloring, n)
    # The same coloring on a random part of g: edges outside g are ignored.
    sub = Graph(g.vertex_count, [e for e in g.edges if rnd.random() < 0.6])
    _assert_detector_matches_reference(sub, coloring, n)


def test_find_mono_cm_ignores_colored_edges_outside_the_graph(monkeypatch):
    rng = random.Random(41)
    for _ in range(60):
        vertex_count = rng.randint(2, 12)
        coloring = random_coloring(vertex_count, rng.randint(1, 4), rng.randrange(10**6))
        g = Graph(vertex_count, [e for e in coloring.assignment if rng.random() < 0.5])
        for n in (2, 4, 6):
            _assert_detector_matches_reference(g, coloring, n)
    # Color 1 spans all five vertices in the coloring but not in g, so its
    # class is not built.
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    coloring = EdgeColoring(2, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1})
    assert _assert_detector_matches_reference(g, coloring, 4) is None
    built = count_class_builds(monkeypatch)
    assert find_mono_cm(g, coloring, 4) is None
    assert built == []


def test_find_mono_cm_on_a_sparse_file_with_many_vertices(monkeypatch):
    text = "\n".join([
        "p cm 200000 3",
        "e 199990 5 2",
        "e 5 123456 2",
        "e 123456 77 2",
        "e 77 1 1",
        "e 1 199999 1",
        "e 10 11 3",
    ])
    g, coloring = parse_graph(text)
    witness = _assert_detector_matches_reference(g, coloring, 4)
    assert witness is not None and witness.color == 2
    assert witness.component == frozenset({5, 77, 123456, 199990})
    # No component reaches 6 vertices, so the miss builds no class (the
    # reference would build three, each with 200,000 adjacency rows).
    built = count_class_builds(monkeypatch)
    assert find_mono_cm(g, coloring, 6) is None
    assert built == []


def test_find_mono_cm_with_a_listed_color_that_has_no_edges(monkeypatch):
    g = path_graph(6)
    coloring = EdgeColoring(4, {(0, 1): 1, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 1})
    monkeypatch.setattr(EdgeColoring, "colors_used", lambda self: (1, 2, 3, 4))
    witness = _assert_detector_matches_reference(g, coloring, 4)
    assert witness is not None and witness.color == 3
    assert _assert_detector_matches_reference(g, coloring, 6) is None
