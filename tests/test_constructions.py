import hashlib
import random

import pytest

from cmstruct import color_class, components, find_mono_cm
from cmstruct.constructions import (
    MAX_VERTICES,
    affine_plane_coloring,
    bounded_component_coloring,
    disjoint_cliques_coloring,
    random_coloring,
)
from cmstruct.errors import NotPrimeError
from cmstruct.graphs import EdgeColoring, Graph, complete_graph, serialize


def test_affine_q2_gives_three_perfect_matchings():
    g, coloring = affine_plane_coloring(2)
    assert g.vertex_count == 4 and coloring.color_count == 3
    for color in range(1, 4):
        cls = color_class(g, coloring, color)
        assert components(cls).sizes == (2, 2)


def test_affine_q3_gives_triangle_classes():
    g, coloring = affine_plane_coloring(3)
    assert g.vertex_count == 9 and coloring.color_count == 4
    for color in range(1, 5):
        assert components(color_class(g, coloring, color)).sizes == (3, 3, 3)


def test_affine_rejects_prime_powers():
    with pytest.raises(NotPrimeError):
        affine_plane_coloring(4)


def test_affine_classes_partition_all_edges():
    for q in (2, 3, 5):
        g, coloring = affine_plane_coloring(q)
        assert set(coloring.assignment) == set(g.edges)
        per_line = q * (q - 1) // 2
        for color in range(1, q + 2):
            assert len(coloring.edges_of_color(color)) == q * per_line


def test_affine_avoids_connected_matchings():
    for q in (2, 3):
        g, coloring = affine_plane_coloring(q)
        n = q + 1 if (q + 1) % 2 == 0 else q + 2
        assert n // 2 > q // 2
        assert find_mono_cm(g, coloring, n) is None


def test_disjoint_cliques_examples():
    coloring = disjoint_cliques_coloring(4, 3, 2)
    assert coloring is not None
    g = complete_graph(4)
    for color in range(1, 4):
        assert components(color_class(g, coloring, color)).sizes == (2, 2)

    coloring = disjoint_cliques_coloring(3, 1, 3)
    assert coloring is not None
    assert set(coloring.assignment.values()) == {1}
    assert len(coloring.assignment) == 3

    assert disjoint_cliques_coloring(5, 1, 2) is None


def test_disjoint_cliques_stops_once_every_pair_is_covered():
    # K_6 is covered after 7 matchings; further rounds change nothing.
    few = disjoint_cliques_coloring(6, 10, 2)
    many = disjoint_cliques_coloring(6, 10**9, 2)
    assert few is not None and many is not None
    assert many.assignment == few.assignment
    assert max(few.assignment.values()) == 7


def test_disjoint_cliques_respects_block_size():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 10)
        k = rng.randint(1, 5)
        cap = rng.randint(1, 4)
        coloring = disjoint_cliques_coloring(n, k, cap, seed=rng.randrange(100))
        if coloring is None:
            continue
        g = complete_graph(n)
        assert set(coloring.assignment) == set(g.edges)
        for color in range(1, k + 1):
            cls = color_class(g, coloring, color)
            for comp in components(cls).vertex_sets():
                sub, _ = cls.induced(comp)
                if sub.edge_count:
                    assert len(comp) <= cap
                    # each block is a clique
                    assert sub.edge_count == len(comp) * (len(comp) - 1) // 2


def test_random_coloring_determinism():
    a = random_coloring(10, 3, seed=42)
    b = random_coloring(10, 3, seed=42)
    assert a == b
    assert a != random_coloring(10, 3, seed=43)


def test_random_coloring_single_color():
    coloring = random_coloring(4, 1, seed=5)
    assert set(coloring.assignment.values()) == {1}
    assert len(coloring.assignment) == 6


def test_bounded_component_coloring_caps_components():
    rng = random.Random(99)
    for _ in range(25):
        seed = rng.randrange(10**6)
        g, coloring = bounded_component_coloring(14, 4, 4, seed=seed)
        assert set(coloring.assignment) == set(g.edges)
        for color in range(1, 5):
            sizes = components(color_class(g, coloring, color)).sizes
            touched = [
                len(comp)
                for comp in components(color_class(g, coloring, color)).vertex_sets()
                if len(comp) > 1
            ]
            assert all(t <= 4 for t in touched), (seed, sizes)
        again, coloring2 = bounded_component_coloring(14, 4, 4, seed=seed)
        assert (again, coloring2) == (g, coloring)


@pytest.mark.parametrize(
    "generate",
    [
        lambda n: random_coloring(n, 2),
        lambda n: disjoint_cliques_coloring(n, 2, 2),
        lambda n: bounded_component_coloring(n, 2, 2),
    ],
    ids=["random", "cliques", "bounded"],
)
def test_generators_refuse_orders_above_the_cap(generate):
    with pytest.raises(ValueError, match=f"n_vertices must be <= {MAX_VERTICES}"):
        generate(MAX_VERTICES + 1)
    with pytest.raises(ValueError, match=f"n_vertices must be <= {MAX_VERTICES}"):
        generate(10**12)


def test_affine_refuses_planes_above_the_cap():
    # 32^2 = 1,024 fits under the cap, so only its primality fails; 37^2 =
    # 1,369 does not fit, nor does a q whose primality would take long to test.
    with pytest.raises(NotPrimeError):
        affine_plane_coloring(32)
    for q in (37, 1009, 10**18 + 9):
        with pytest.raises(ValueError, match=f"q\\^2 must be <= {MAX_VERTICES}"):
            affine_plane_coloring(q)


# -- trusted outputs against the checking constructors ------------------------

def _assert_coloring_as_checked(coloring, k):
    """``coloring`` equals ``EdgeColoring(k, ...)`` on the same records,
    down to the iteration order of its assignment and its color index."""
    checked = EdgeColoring(k, dict(coloring.assignment))
    assert coloring == checked
    assert list(coloring.assignment.items()) == list(checked.assignment.items())
    assert list(coloring._by_color.items()) == list(checked._by_color.items())
    return checked


def _assert_colored_graph_as_checked(g, coloring, k):
    checked_graph = Graph(g.vertex_count, list(coloring.assignment))
    assert g.vertex_count == checked_graph.vertex_count
    assert g.edges == checked_graph.edges
    assert g.adjacency == checked_graph.adjacency
    assert g == checked_graph
    checked = _assert_coloring_as_checked(coloring, k)
    assert serialize(g, coloring) == serialize(checked_graph, checked)


def test_generators_match_the_checking_constructors():
    for seed in range(50):
        rng = random.Random(seed)
        n, k = rng.randint(1, 20), rng.randint(1, 6)
        coloring = random_coloring(n, k, seed)
        _assert_coloring_as_checked(coloring, k)
        assert serialize(complete_graph(n), coloring) == serialize(
            complete_graph(n), EdgeColoring(k, dict(coloring.assignment))
        )

        g, coloring = bounded_component_coloring(n, k, rng.randint(1, 6), seed)
        _assert_colored_graph_as_checked(g, coloring, k)

        cap = rng.randint(1, 5)
        coloring = disjoint_cliques_coloring(n, rng.randint(1, 12), cap, seed)
        if coloring is not None:
            _assert_coloring_as_checked(coloring, coloring.color_count)
    for q in (2, 3, 5, 7, 11):
        g, coloring = affine_plane_coloring(q)
        assert g.edges == complete_graph(q * q).edges
        _assert_colored_graph_as_checked(g, coloring, q + 1)


def test_generators_are_not_checked_again(monkeypatch):
    calls = []
    for cls in (Graph, EdgeColoring):
        def counting(self, original=cls.__post_init__):
            calls.append(type(self))
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    random_coloring(9, 3, 1)
    bounded_component_coloring(9, 3, 4, 1)
    disjoint_cliques_coloring(4, 3, 2, 1)
    affine_plane_coloring(3)
    assert calls == []
    Graph(2, [(0, 1)])
    assert calls == [Graph]  # the counting check is live


def test_bounded_component_coloring_stream_is_pinned():
    # The random stream of the seeded generators is part of their output:
    # the benchmark pins digests of colorings built from it.
    g, coloring = bounded_component_coloring(21, 4, 5, 3)
    digest = hashlib.sha256(serialize(g, coloring).encode()).hexdigest()
    assert digest == "ce9c4da66a11a4c7b05430c2e20eee98f03f9ccae1f097c2c529f744d07c921d"


@pytest.mark.parametrize(
    "n, k, seed, digest",
    [
        (24, 10, 7, "0f6afb43f6213c80d08540071c24116d9d4d48ace3013c4dc8e0581d9fe17da9"),
        (17, 4, 3, "5d6873b913863f19aeb11659fe1fd7fcf6edfe6b784c6406c5ea499d7561b001"),
        (9, 1, 5, "f5c9dffb7733b45e1ee2f326a0331b5099bceade45012c28c6138689cd5fc744"),
    ],
)
def test_random_coloring_stream_is_pinned(n, k, seed, digest):
    coloring = random_coloring(n, k, seed)
    text = serialize(complete_graph(n), coloring)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 10, 16, 17, 1000])
def test_random_coloring_draws_the_stream_of_randrange(k):
    # random_coloring draws through getrandbits; its colors must stay those
    # of randrange(1, k + 1) on every supported interpreter.
    for n in (2, 5, 13, 30):
        for seed in (0, 1, 42):
            rng = random.Random(seed)
            expected = {
                (u, v): rng.randrange(1, k + 1)
                for u in range(n)
                for v in range(u + 1, n)
            }
            assert random_coloring(n, k, seed).assignment == expected
