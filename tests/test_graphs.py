import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstruct import (
    EdgeColoring,
    Graph,
    color_class,
    complete_graph,
    components,
    disjoint_union,
    parse_graph,
    serialize,
    star_graph,
    to_dot,
)
from cmstruct.errors import ColorRangeError, GraphFormatError
from cmstruct.graphs import MAX_VERTICES

from .generators import random_graph


def test_components_empty_graph():
    labeling = components(Graph(3, frozenset()))
    assert labeling.count == 3
    assert labeling.sizes == (1, 1, 1)


def test_components_clique():
    labeling = components(complete_graph(4))
    assert labeling.count == 1
    assert labeling.sizes == (4,)


def test_components_two_triangles():
    g = disjoint_union([complete_graph(3), complete_graph(3)])
    labeling = components(g)
    assert labeling.sizes == (3, 3)
    assert labeling.vertex_sets() == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 5)}))


def test_color_class_monochromatic():
    g = complete_graph(4)
    coloring = EdgeColoring(2, {e: 1 for e in g.edges})
    assert color_class(g, coloring, 1) == g
    empty = color_class(g, coloring, 2)
    assert empty.vertex_count == 4 and empty.edge_count == 0
    with pytest.raises(ColorRangeError):
        color_class(g, coloring, 3)


def test_color_class_star_triangle():
    g = complete_graph(4)
    coloring = EdgeColoring(
        2, {(0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    )
    red = color_class(g, coloring, 1)
    assert red.edges == frozenset({(0, 3), (1, 3), (2, 3)})
    # a star on four vertices, like star_graph(3) up to relabeling
    assert sorted(red.degree(v) for v in range(4)) == sorted(
        star_graph(3).degree(v) for v in range(4)
    )


def test_parse_simple():
    g, coloring = parse_graph("p cm 3 1\ne 0 1 1\ne 1 2 1\ne 0 2 1\n")
    assert g == complete_graph(3)
    assert coloring.color_count == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p cm 3 1\ne 0 5 1\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1 1\n")  # edge before header
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p cm 3 2\ne 0 1 3\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("p cm 3 1\ne 0 1 1\ne 1 0 1\n")  # duplicate edge
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(f"# comment\np cm {MAX_VERTICES + 1} 1\n")
    assert exc.value.line == 2


def test_roundtrip_seeded_random_colorings():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        k = rng.randint(1, 4)
        coloring = EdgeColoring(k, {e: rng.randint(1, k) for e in g.edges})
        text = serialize(g, coloring)
        g2, c2 = parse_graph(text)
        assert (g2, c2) == (g, coloring)
        assert serialize(g2, c2) == text


def test_serialize_uncolored_defaults_to_one_color():
    g = complete_graph(3)
    text = serialize(g)
    assert text.splitlines()[0] == "p cm 3 1"
    g2, c2 = parse_graph(text)
    assert g2 == g and c2.color_count == 1


@st.composite
def graphs_with_colorings(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    k = draw(st.integers(min_value=1, max_value=3))
    assignment = {e: draw(st.integers(min_value=1, max_value=k)) for e in chosen}
    return Graph.from_edges(n, chosen), EdgeColoring(k, assignment)


@settings(max_examples=60)
@given(graphs_with_colorings(), st.randoms(use_true_random=False))
def test_component_sizes_invariant_under_relabeling(gc, rnd):
    g, _ = gc
    perm = list(range(g.vertex_count))
    rnd.shuffle(perm)
    relabeled = Graph.from_edges(
        g.vertex_count, ((perm[u], perm[v]) for u, v in g.edges)
    )
    assert sorted(components(g).sizes) == sorted(components(relabeled).sizes)


@settings(max_examples=60)
@given(graphs_with_colorings())
def test_color_classes_partition_edges(gc):
    g, coloring = gc
    seen: set = set()
    for color in range(1, coloring.color_count + 1):
        cls = color_class(g, coloring, color)
        assert not (cls.edges & seen)
        seen |= cls.edges
    assert seen == g.edges


def test_dot_export_mentions_classes_and_colors():
    g = star_graph(3)
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    dot = to_dot(g, coloring, {0: "S", 1: "Q", 2: "I", 3: "I"})
    assert "subgraph cluster_0" in dot
    assert '0 [class="S"];' in dot
    assert "0 -- 1 [color=1];" in dot
