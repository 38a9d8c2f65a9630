import random

import pytest

from cmstruct import (
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

from .generators import low_matching_connected
from .oracles import all_graphs, all_partitions_sqi


def test_small_case_needs_no_matching(monkeypatch):
    # With v(G) <= n-1 no matching of size n/2 fits, so none is computed.
    def refuse(g):
        raise AssertionError("matching_number called on a small graph")

    monkeypatch.setattr(partition_module, "matching_number", refuse)
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
