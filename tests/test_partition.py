import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstruct import (
    EdgeColoring,
    Graph,
    SQIPartition,
    complete_graph,
    component_partitions,
    components,
    disjoint_union,
    matching_number,
    partition_edge_bound,
    path_graph,
    sqi_partition,
    star_graph,
    verify_sqi,
)
from cmstruct import partition as partition_module
from cmstruct.errors import HasLargeMatchingError, NotConnectedError, OddNError
from cmstruct.graphs import per_color

from .generators import low_matching_connected, random_connected_graph
from .oracles import all_graphs, all_partitions_sqi


def test_small_case_needs_no_matching(monkeypatch):
    # With v(G) <= n-1 no matching of size n/2 fits, so none is computed.
    def refuse(g):
        raise AssertionError("tutte_berge called on a small graph")

    monkeypatch.setattr(partition_module, "tutte_berge", refuse)
    p = sqi_partition(complete_graph(3), 4)
    assert p.Q == frozenset(range(3)) and not p.S and not p.I


def test_triangle_small_case():
    p = sqi_partition(complete_graph(3), 4)
    assert (p.S, p.Q, p.I) == (frozenset(), frozenset({0, 1, 2}), frozenset())


def test_star_partition_matches_brute_force():
    g = star_graph(3)
    p = sqi_partition(g, 4)
    assert p.S == frozenset({0}) and len(p.Q) == 1 and len(p.I) == 2
    assert len(p.Q) + 2 * len(p.S) == 3 == min(g.vertex_count, 3)
    # the deterministic output is one of the partitions the brute force finds
    assert (p.S, p.Q, p.I) in set(all_partitions_sqi(g, 4))


def test_large_matching_rejected():
    with pytest.raises(HasLargeMatchingError):
        sqi_partition(path_graph(5), 4)  # two disjoint edges


def test_clique_on_five_small_case():
    p = sqi_partition(complete_graph(5), 6)
    assert p.Q == frozenset(range(5)) and not p.S and not p.I


def test_bad_inputs():
    with pytest.raises(OddNError):
        sqi_partition(complete_graph(3), 5)
    with pytest.raises(NotConnectedError):
        sqi_partition(disjoint_union([complete_graph(3), complete_graph(3)]), 8)


def test_move_from_i_to_q_prefers_small_ids():
    # K_{1,5} with n=6: witness {0}, five singleton odd components; two of
    # the four I candidates move to Q to reach |Q| + 2|S| = 5.
    g = star_graph(5)
    p = sqi_partition(g, 6)
    assert p.S == frozenset({0})
    assert p.Q == frozenset({1, 2, 3})
    assert p.I == frozenset({4, 5})
    assert verify_sqi(g, 6, p).all_pass


def test_verify_flags_constructed_violations():
    g = star_graph(3)
    # I containing two adjacent vertices (center and a leaf)
    bad = SQIPartition(frozenset(), frozenset({2, 3}), frozenset({0, 1}), 4)
    report = verify_sqi(g, 4, bad)
    byname = {c.name: c for c in report.checks}
    assert not byname["independence"].passed
    assert byname["independence"].witness == (0, 1)
    # |Q| + 2|S| = n instead of n - 1
    bad = SQIPartition(frozenset({0}), frozenset({1, 2}), frozenset({3}), 4)
    report = verify_sqi(g, 4, bad)
    assert not {c.name: c for c in report.checks}["size-equality"].passed
    # the center in Q with two neighbors in I, and |Q| + 2|S| = n - 2
    bad = SQIPartition(frozenset(), frozenset({0, 3}), frozenset({1, 2}), 4)
    failed = verify_sqi(g, 4, bad).failed()
    assert [(c.name, c.witness) for c in failed] == [
        ("size-equality", None),
        ("q-neighbors", (0,)),
    ]


def test_edge_bound_examples():
    p = sqi_partition(star_graph(3), 4)
    assert partition_edge_bound(p) == 4 >= 3
    p = sqi_partition(complete_graph(3), 4)
    assert partition_edge_bound(p) == 6
    p = sqi_partition(complete_graph(1), 4)
    assert partition_edge_bound(p) == 1


def test_exhaustive_small_connected_graphs():
    for count in range(1, 7):
        for g in all_graphs(count):
            if components(g).count != 1:
                continue
            for n in (4, 6):
                if matching_number(g) >= n // 2:
                    continue
                p = sqi_partition(g, n)
                report = verify_sqi(g, n, p)
                assert report.all_pass, (g, n, report.failed())
                assert g.edge_count <= partition_edge_bound(p)
                assert all(g.degree(v) * 2 <= n - 1 for v in p.I)


def test_seeded_random_suite():
    rng = random.Random(2024)
    for n in (4, 6, 8):
        for _ in range(400):
            g = low_matching_connected(rng, n)
            assert matching_number(g) < n // 2
            p = sqi_partition(g, n)
            report = verify_sqi(g, n, p)
            assert report.all_pass, (g, n, report.failed())
            assert g.edge_count <= partition_edge_bound(p)


def test_component_partitions_cover_disconnected_graphs():
    g = disjoint_union([complete_graph(3), star_graph(3), complete_graph(1)])
    parts = component_partitions(g, 4)
    assert len(parts) == 3
    covered = frozenset().union(*(p.vertices for p in parts))
    assert covered == frozenset(range(g.vertex_count))
    star_part = parts[1]
    assert star_part.S == frozenset({3})


def test_determinism():
    rng = random.Random(9)
    for _ in range(50):
        g = low_matching_connected(rng, 6)
        assert sqi_partition(g, 6) == sqi_partition(g, 6)


# -- component_partitions against one sqi_partition per component -------------

def _covered_component(rng: random.Random, size: int, n: int) -> Graph:
    """Connected graph on ``size`` vertices with matching number below n/2:
    any connected graph up to n-1 vertices, above that one whose edges all
    touch at most n/2 - 1 hubs."""
    if size <= n - 1:
        return random_connected_graph(rng, size, rng.random())
    hubs = rng.randint(1, n // 2 - 1)
    edges = [(h - 1, h) for h in range(1, hubs)]
    for w in range(hubs, size):
        edges += [(h, w) for h in rng.sample(range(hubs), rng.randint(1, hubs))]
    return Graph(size, edges)


def _shuffled_union(rng: random.Random, parts: list[Graph]) -> Graph:
    """Disjoint union of ``parts`` with the vertex ids permuted, so that no
    component's ids need be consecutive."""
    union = disjoint_union(parts)
    perm = list(range(union.vertex_count))
    rng.shuffle(perm)
    return Graph(union.vertex_count, [(perm[u], perm[v]) for u, v in union.edges])


def _reference_partitions(g: Graph, n: int) -> list[SQIPartition]:
    """``sqi_partition`` of every component's induced subgraph, relabeled."""
    out = []
    for comp in components(g).vertex_sets():
        sub, ids = g.induced(comp)
        out.append(sqi_partition(sub, n).relabel(ids))
    return out


def _check_against_reference(rng: random.Random, n: int, sizes: list[int]) -> None:
    g = _shuffled_union(rng, [_covered_component(rng, s, n) for s in sizes])
    parts = component_partitions(g, n)
    assert parts == _reference_partitions(g, n)
    for p in parts:
        sub, ids = g.induced(p.vertices)
        local = p.relabel({orig: j for j, orig in enumerate(ids)})
        assert verify_sqi(sub, n, local).all_pass


def test_component_partitions_match_sqi_partition_on_seeded_graphs():
    rng = random.Random(2406)
    for _ in range(150):
        n = rng.choice((4, 6, 8))
        # Components on both sides of the n-vertex threshold, and on it.
        pool = (1, 2, n - 2, n - 1, n, n + 1, n + 3)
        sizes = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        _check_against_reference(rng, n, sizes)


@settings(max_examples=60)
@given(
    st.sampled_from((4, 6, 8)),
    st.lists(st.sampled_from((-3, -1, 0, 1, 2)), max_size=5),
    st.randoms(use_true_random=False),
)
def test_component_partitions_match_sqi_partition(n, offsets, rnd):
    # Sizes are n + offset (at least one vertex): n - 1, n and n + 1 among them.
    _check_against_reference(rnd, n, [max(1, n + d) for d in offsets])


def test_component_partitions_on_the_shared_edgeless_class():
    # Colors 2 and 3 are unused, so per_color hands both one all-singletons
    # record, which the partition rule reads as the edgeless class.
    g = complete_graph(5)
    coloring = EdgeColoring(3, {e: 1 for e in g.edges})
    parts = per_color(
        g,
        coloring,
        lambda cls: partition_module._partitions(cls.components, 6, cls.induced),
    )
    assert parts[2] is parts[3]
    assert parts[2] == _reference_partitions(Graph(5, ()), 6)
    assert parts[2] == [
        SQIPartition(frozenset(), frozenset({v}), frozenset(), 6) for v in range(5)
    ]


def test_component_partitions_build_no_subgraph_below_n_vertices(monkeypatch):
    n = 6
    rng = random.Random(31)
    sizes = [n - 1, 1, n, n + 1, 2, n - 1, n + 1]
    g = _shuffled_union(rng, [_covered_component(rng, s, n) for s in sizes])
    expected = _reference_partitions(g, n)
    induced_sizes, sqi_sizes = [], []
    real_induced, real_sqi = Graph.induced, partition_module.sqi_partition

    def counting_induced(self, vertices):
        sub, ids = real_induced(self, vertices)
        if self is g:  # the deficiency witness cuts its own subgraphs
            induced_sizes.append(len(ids))
        return sub, ids

    def counting_sqi(sub, n):
        sqi_sizes.append(sub.vertex_count)
        return real_sqi(sub, n)

    monkeypatch.setattr(Graph, "induced", counting_induced)
    monkeypatch.setattr(partition_module, "sqi_partition", counting_sqi)
    assert component_partitions(g, n) == expected
    # One subgraph and one partition for each component on n or more vertices.
    assert sorted(induced_sizes) == sorted(sqi_sizes) == [n, n + 1, n + 1]


@pytest.mark.parametrize(
    "g",
    [
        Graph(0, ()),
        Graph(2, ()),
        disjoint_union([complete_graph(3), path_graph(2), complete_graph(1)]),
    ],
    ids=["no-vertices", "edgeless", "small-components"],
)
def test_component_partitions_check_n_on_every_graph(g):
    for bad in (3, 5, 0, -2):
        with pytest.raises(OddNError):
            component_partitions(g, bad)
    # Every component is small at n = 6, so each takes Q = V.
    assert component_partitions(g, 6) == [
        SQIPartition(frozenset(), comp, frozenset(), 6)
        for comp in components(g).vertex_sets()
    ]
