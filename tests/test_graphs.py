import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstruct import (
    FOUND,
    EdgeColoring,
    Graph,
    SearchConfig,
    color_class,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    parse_graph,
    path_graph,
    ramsey_cm,
    search_avoider,
    serialize,
    star_graph,
    to_dot,
)
from cmstruct.errors import ColorRangeError, GraphFormatError
from cmstruct.graphs import (
    MAX_COLORS,
    MAX_VERTICES,
    color_components,
    distinct_with_counts,
    induced_coloring,
    per_color,
)

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


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p cm 3 1\np cm 3 1\n", 2, "duplicate header"),
        ("p cm 3\n", 1, "bad header 'p cm 3'"),
        ("p xx 3 1\n", 1, "bad header 'p xx 3 1'"),
        ("# c\np cm three 1\n", 2, "bad header 'p cm three 1'"),
        ("p cm -1 1\n", 1, "header requires N >= 0 and k >= 1"),
        ("p cm 3 0\n", 1, "header requires N >= 0 and k >= 1"),
        ("p cm 3 1\ne 0 1\n", 2, "bad edge line 'e 0 1'"),
        ("p cm 3 1\n\ne 0 x 1\n", 3, "bad edge line 'e 0 x 1'"),
        ("p cm 3 1\ne 2 2 1\n", 2, "self-loop at vertex 2"),
        ("p cm 3 1\nq 0 1\n", 2, "unknown record 'q'"),
        ("p cm 3 1\nE 0 1 1\n", 2, "unknown record 'E'"),
        ("e 0 1 1\np cm 3 1\n", 1, "edge before header"),
        ("# c\ne 0 1\np cm 3 1\n", 2, "edge before header"),
        ("p cm 3 1\ne 0 1 1 1\n", 2, "bad edge line 'e 0 1 1 1'"),
        ("p cm 3 1\ne 5 5 9\n", 2, "self-loop at vertex 5"),
        ("p cm 3 2\ne 0 7 9\n", 2, "vertex id out of range 0..2"),
        ("p cm 3 2\ne -1 2 1\n", 2, "vertex id out of range 0..2"),
        ("p cm 3 2\ne 0 1 3\n", 2, "color 3 outside 1..2"),
        ("p cm 3 2\ne 0 1 0\n", 2, "color 0 outside 1..2"),
        ("p cm 3 1\ne 0 1 1\n\ne 1 0 1\n", 4, "duplicate edge (1, 0)"),
        # Through the per-call numeral tables: a line whose numerals are all
        # known, a line with one unknown spelling of a known id, a numeral
        # known only in the other role, as a color or as an id, and a bad
        # numeral after known ones.
        ("p cm 3 1\ne 1 2 1\ne 02 01 1\n", 3, "duplicate edge (2, 1)"),
        ("p cm 3 1\ne 0 1 1\ne 1 01 1\n", 3, "self-loop at vertex 1"),
        ("p cm 3 1\ne 0 1 1\ne 1 1 1\n", 3, "self-loop at vertex 1"),
        ("p cm 3 4\ne 0 1 4\ne 4 0 1\n", 3, "vertex id out of range 0..2"),
        ("p cm 5 2\ne 0 4 1\ne 0 1 4\n", 3, "color 4 outside 1..2"),
        ("p cm 3 2\ne 0 1 2\ne 1 2 x\n", 3, "bad edge line 'e 1 2 x'"),
        ("# only a comment\n", 1, "missing 'p cm <N> <k>' header"),
        ("", 1, "missing 'p cm <N> <k>' header"),
    ],
)
def test_parse_error_lines_and_messages(text, line, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


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


def test_parse_mixed_layout_matches_the_checking_constructors():
    # Comments, blank lines, extra whitespace, reversed endpoints and
    # numerals spelled with a leading 0 or + change nothing: the graph, the
    # order of the assignment and the by-color index equal those of Graph
    # and EdgeColoring given the same records in the same order. A numeral
    # spelled apart misses the parser's numeral tables where the plain
    # spelling of the same int hits them, so lines that hit and lines that
    # miss must name the same vertices and colors.
    rng = random.Random(2411)
    fillers = ["", "   ", "\t", "# comment", "#", "  # indented comment"]
    layouts = [
        "e {} {} {}", " e\t{}  {} {} ", "e {}\t{}\t{}", "e 0{} +{} {}", "e +{} {} 0{}",
    ]
    for _ in range(150):
        n = rng.randint(0, 12)
        k = rng.randint(1, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e in pairs if rng.random() < rng.random()]
        rng.shuffle(chosen)
        records = {
            (e if rng.random() < 0.5 else e[::-1]): rng.randint(1, k) for e in chosen
        }
        lines = [rng.choice(fillers) for _ in range(rng.randint(0, 2))]
        lines.append(f"p cm {n} {k}")
        for (u, v), c in records.items():
            lines += [rng.choice(fillers) for _ in range(rng.randint(0, 2))]
            lines.append(rng.choice(layouts).format(u, v, c))
        g, coloring = parse_graph("\n".join(lines))
        ref_g, ref = Graph(n, list(records)), EdgeColoring(k, records)
        assert g == ref_g and g.adjacency == ref_g.adjacency
        assert list(coloring.assignment.items()) == list(ref.assignment.items())
        assert coloring._by_color == ref._by_color
        assert list(coloring._by_color) == list(ref._by_color)
        assert coloring == ref


def test_serialize_uncolored_defaults_to_one_color():
    g = complete_graph(3)
    text = serialize(g)
    assert text.splitlines()[0] == "p cm 3 1"
    g2, c2 = parse_graph(text)
    assert g2 == g and c2.color_count == 1


def test_serialize_rejects_a_coloring_of_other_edges():
    # The coloring misses edge (1, 2) of the triangle and colors (0, 3),
    # which is not an edge of it.
    coloring = EdgeColoring(2, {(0, 1): 1, (0, 2): 2, (0, 3): 1})
    with pytest.raises(ValueError) as exc:
        serialize(Graph(4, [(0, 1), (0, 2), (1, 2)]), coloring)
    assert str(exc.value) == (
        "coloring does not match edge set (missing [(1, 2)], extra [(0, 3)])"
    )


@pytest.mark.parametrize("n", [3, 4, 7])
def test_cycle_graph(n):
    g = cycle_graph(n)
    assert g.vertex_count == n
    assert g.edges == {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    assert all(g.degree(v) == 2 for v in range(n))


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_cycle_graph_needs_three_vertices(n):
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cycle_graph(n)


@st.composite
def graphs_with_colorings(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    k = draw(st.integers(min_value=1, max_value=3))
    assignment = {e: draw(st.integers(min_value=1, max_value=k)) for e in chosen}
    return Graph(n, chosen), EdgeColoring(k, assignment)


@settings(max_examples=60)
@given(graphs_with_colorings(), st.randoms(use_true_random=False))
def test_component_sizes_invariant_under_relabeling(gc, rnd):
    g, _ = gc
    perm = list(range(g.vertex_count))
    rnd.shuffle(perm)
    relabeled = Graph(
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


# -- edge-scan references for the indexed graph layer ------------------------

def _ref_graph(vertex_count, edges):
    """Normalized edge set and sorted adjacency, one check per edge."""
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range 0..{vertex_count - 1}")
        normalized.add((min(u, v), max(u, v)))
    adj = [[] for _ in range(vertex_count)]
    for u, v in normalized:
        adj[u].append(v)
        adj[v].append(u)
    return frozenset(normalized), tuple(tuple(sorted(a)) for a in adj)


def _ref_color_class(g, coloring, color):
    return frozenset(e for e in g.edges if coloring.assignment.get(e) == color)


def _ref_edges_of_color(coloring, color):
    return sorted(e for e, c in coloring.assignment.items() if c == color)


def _ref_induced(g, vertices):
    ids = sorted(set(vertices))
    index = {orig: j for j, orig in enumerate(ids)}
    edges = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    )
    return edges, tuple(ids)


def test_indexed_subgraphs_match_edge_scan_references():
    rng = random.Random(20240611)
    for _ in range(150):
        n = rng.randint(0, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e in pairs if rng.random() < rng.random()]
        # Input edges in either orientation, some given both ways.
        given = [e if rng.random() < 0.5 else e[::-1] for e in chosen]
        given += [e[::-1] for e in chosen if rng.random() < 0.2]
        rng.shuffle(given)
        g = Graph(n, frozenset(given))
        edges, adj = _ref_graph(n, given)
        assert g.edges == edges
        assert g.adjacency == adj
        assert Graph(n, iter(given)) == g
        assert Graph(n, iter(given)).adjacency == adj
        assert Graph(n, [list(e) for e in given]).edges == edges

        # The coloring misses some edges of g, carries some pairs outside
        # g, and names some edges in both orientations.
        k = rng.randint(1, 5)
        assignment = {}
        for u, v in pairs:
            if ((u, v) in edges and rng.random() < 0.85) or rng.random() < 0.2:
                key = (u, v) if rng.random() < 0.5 else (v, u)
                assignment[key] = rng.randint(1, k)
                if rng.random() < 0.1:
                    assignment[key[::-1]] = rng.randint(1, k)
        coloring = EdgeColoring(k, assignment)
        used = []
        for color in range(1, k + 1):
            assert color_class(g, coloring, color).edges == _ref_color_class(
                g, coloring, color
            )
            assert color_class(g, coloring, color).vertex_count == n
            listed = coloring.edges_of_color(color)
            assert listed == _ref_edges_of_color(coloring, color)
            if listed:
                used.append(color)
        assert coloring.colors_used() == tuple(used)

        # Unordered vertex iterables with repeats.
        picks = rng.randint(0, 2 * n) if n else 0
        chosen_vertices = [rng.randrange(n) for _ in range(picks)]
        sub, ids = g.induced(chosen_vertices)
        ref_edges, ref_ids = _ref_induced(g, chosen_vertices)
        assert ids == ref_ids
        assert sub.vertex_count == len(ref_ids)
        assert sub.edges == ref_edges
        assert sub.adjacency == _ref_graph(len(ref_ids), ref_edges)[1]


# -- derived graphs against the validating constructor ------------------------

def _assert_matches_validated(derived, vertex_count, edges):
    """``derived`` equals ``Graph(vertex_count, edges)`` field for field."""
    validated = Graph(vertex_count, edges)
    assert derived.vertex_count == validated.vertex_count
    assert derived.edges == validated.edges
    # Tuple equality also pins each row's type and order.
    assert derived.adjacency == validated.adjacency
    assert derived == validated
    assert hash(derived) == hash(validated)


def _check_derived_graphs(rng, vertex_count, given, colors, k, vertices):
    """Every graph derived from ``Graph(vertex_count, given)`` matches the
    validated graph on the same edges; ``colors`` aligns with ``given``."""
    g = Graph(vertex_count, given)
    coloring = EdgeColoring(k, dict(zip(given, colors)))

    text = serialize(g, coloring)
    _assert_matches_validated(parse_graph(text)[0], vertex_count, given)
    # The same records shuffled, with some edges written high end first.
    header, *records = text.splitlines()
    rng.shuffle(records)
    flipped = []
    for line in records:
        _, u, v, c = line.split()
        flipped.append(f"e {v} {u} {c}" if rng.random() < 0.5 else line)
    parsed = parse_graph("\n".join([header, *flipped]))[0]
    _assert_matches_validated(parsed, vertex_count, given)

    for color in range(1, k + 1):
        _assert_matches_validated(
            color_class(g, coloring, color),
            vertex_count,
            [e for e, c in zip(given, colors) if c == color],
        )

    sub, ids = g.induced(vertices)
    ref_edges, ref_ids = _ref_induced(g, vertices)
    assert ids == ref_ids
    _assert_matches_validated(sub, len(ids), ref_edges)
    # Induced subgraphs of derived graphs are derived too.
    cls = color_class(g, coloring, 1)
    sub, ids = cls.induced(vertices)
    _assert_matches_validated(sub, len(ids), _ref_induced(cls, vertices)[0])


def test_derived_graphs_match_validated_ones_on_seeded_inputs():
    rng = random.Random(1307)
    for _ in range(200):
        n = rng.randint(0, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e in pairs if rng.random() < rng.random()]
        rng.shuffle(chosen)
        given = [e if rng.random() < 0.5 else e[::-1] for e in chosen]
        k = rng.randint(1, 4)
        colors = [rng.randint(1, k) for _ in given]
        # Unordered vertex ids with repeats.
        vertices = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))] if n else []
        _check_derived_graphs(rng, n, given, colors, k, vertices)


@st.composite
def derived_graph_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    given = [e[::-1] if flip else e for e, flip in zip(chosen, flips)]
    k = draw(st.integers(min_value=1, max_value=3))
    colors = draw(
        st.lists(
            st.integers(min_value=1, max_value=k),
            min_size=len(given),
            max_size=len(given),
        )
    )
    vertices = (
        draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n))
        if n
        else []
    )
    return n, given, colors, k, vertices


@settings(max_examples=80)
@given(derived_graph_inputs(), st.randoms(use_true_random=False))
def test_derived_graphs_match_validated_ones(inputs, rnd):
    n, given, colors, k, vertices = inputs
    _check_derived_graphs(rnd, n, given, colors, k, vertices)


# -- derived colorings against the validating constructor ---------------------

def _assert_coloring_matches_validated(g, derived, k, records):
    """``derived`` answers every query as ``EdgeColoring(k, records)`` does,
    and both match references read off ``records`` alone."""
    validated = EdgeColoring(k, records)
    normalized = {(min(e), max(e)): c for e, c in records.items()}
    assert derived == validated
    assert derived.assignment == normalized
    assert derived.colors_used() == validated.colors_used()
    assert derived.colors_used() == tuple(sorted(set(normalized.values())))
    for color in range(1, k + 1):
        listed = sorted(e for e, c in normalized.items() if c == color)
        assert derived.edges_of_color(color) == validated.edges_of_color(color)
        assert derived.edges_of_color(color) == listed
        cls = color_class(g, derived, color)
        assert cls == color_class(g, validated, color)
        _assert_matches_validated(cls, g.vertex_count, listed)


def test_derived_colorings_match_validated_ones_on_seeded_inputs():
    rng = random.Random(1409)
    for _ in range(200):
        n = rng.randint(0, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e in pairs if rng.random() < rng.random()]
        k = rng.randint(1, 6)
        # Colors drawn from a random subset, so some colors go unused.
        palette = rng.sample(range(1, k + 1), rng.randint(1, k))
        coloring = EdgeColoring(k, {e: rng.choice(palette) for e in chosen})
        g = Graph(n, chosen)
        text = serialize(g, coloring)
        # The same records shuffled, with some edges written high end first.
        header, *lines = text.splitlines()
        records = {}
        for line in lines:
            _, u, v, c = line.split()
            key = (int(v), int(u)) if rng.random() < 0.5 else (int(u), int(v))
            records[key] = int(c)
        shuffled = list(records.items())
        rng.shuffle(shuffled)
        shuffled_text = "\n".join(
            [header, *(f"e {u} {v} {c}" for (u, v), c in shuffled)]
        )
        for source in (text, shuffled_text):
            parsed_graph, parsed = parse_graph(source)
            assert parsed_graph == g
            _assert_coloring_matches_validated(g, parsed, k, records)

        # Unordered vertex ids with repeats.
        vertices = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))] if n else []
        sub, sub_coloring = induced_coloring(g, parsed, vertices)
        ref_edges, ids = _ref_induced(g, vertices)
        _assert_matches_validated(sub, len(ids), ref_edges)
        inherited = {e: coloring.color_of(ids[e[0]], ids[e[1]]) for e in ref_edges}
        _assert_coloring_matches_validated(sub, sub_coloring, k, inherited)


def test_parsed_and_induced_colorings_are_not_checked_again(
    monkeypatch, in_process_pool
):
    calls = []
    for cls in (Graph, EdgeColoring):
        def counting(self, original=cls.__post_init__):
            calls.append(type(self))
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    g, coloring = parse_graph("p cm 5 3\ne 0 1 2\ne 3 2 1\ne 4 1 2\n")
    sub, sub_coloring = induced_coloring(g, coloring, [4, 1, 0])
    assert calls == []
    # Generated graphs, per_color's records and their component subgraphs
    # (color 3 is unused) and serialize's default coloring.
    disjoint_union([complete_graph(5), star_graph(4), path_graph(5), cycle_graph(5)])
    subgraphs = per_color(
        g, coloring, lambda cls: [cls.induced(c)[0] for c in cls.components]
    )
    assert [(sub.vertex_count, sub.edge_count) for sub in subgraphs[2]] == [
        (3, 2), (1, 0), (1, 0)
    ]
    assert [(sub.vertex_count, sub.edge_count) for sub in subgraphs[3]] == [(1, 0)] * 5
    assert serialize(g).startswith("p cm 5 1\n")
    assert calls == []
    # The search's avoiders: below n, sequential, from a worker, in a scan.
    assert search_avoider(SearchConfig(5, 2, 6)).status == FOUND
    assert search_avoider(SearchConfig(7, 2, 6)).status == FOUND
    assert search_avoider(SearchConfig(7, 2, 6, threads=2)).status == FOUND
    assert in_process_pool != []
    assert ramsey_cm(2, 4, 6).value == 5
    assert calls == []
    assert sub_coloring == EdgeColoring(3, {(0, 1): 2, (1, 2): 2})
    assert calls == [EdgeColoring]  # the counting check is live


def test_generated_graphs_match_validated_ones():
    for n in range(10):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        _assert_matches_validated(complete_graph(n), n, pairs)
        _assert_matches_validated(star_graph(n - 1), n, [(0, v) for v in range(1, n)])
        _assert_matches_validated(path_graph(n), n, [(v, v + 1) for v in range(n - 1)])
        if n >= 3:
            # The wrap edge given high end first, as (n - 1, 0).
            cycle = [(v, (v + 1) % n) for v in range(n)]
            _assert_matches_validated(cycle_graph(n), n, cycle)
        for a in range(n + 1):
            # K_a, then a path on the other n - a vertices.
            edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
            edges += [(v, v + 1) for v in range(a, n - 1)]
            union = disjoint_union([complete_graph(a), path_graph(n - a)])
            _assert_matches_validated(union, n, edges)
    _assert_matches_validated(disjoint_union([]), 0, [])


def test_generators_reject_a_negative_order():
    for build, order in ((complete_graph, -1), (path_graph, -1), (star_graph, -2)):
        with pytest.raises(ValueError) as exc:
            build(order)
        assert str(exc.value) == "vertex_count must be nonnegative"
    with pytest.raises(ValueError) as exc:
        cycle_graph(2)
    assert str(exc.value) == "cycle needs at least 3 vertices"


def test_header_color_count_is_capped_with_its_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(f"# comment\np cm 5 {MAX_COLORS + 1}\ne 0 1 1\n")
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: header k = {MAX_COLORS + 1} exceeds {MAX_COLORS}"
    g, coloring = parse_graph(f"p cm 5 {MAX_COLORS}\ne 0 1 {MAX_COLORS}\n")
    assert coloring.colors_used() == (MAX_COLORS,)


def test_graph_error_messages_name_the_edge_as_given():
    cases = [
        (3, frozenset({(5, 1)}), "edge (5, 1) out of range 0..2"),
        (3, frozenset({(1, 5)}), "edge (1, 5) out of range 0..2"),
        (3, frozenset({(-1, 2)}), "edge (-1, 2) out of range 0..2"),
        (3, frozenset({(2, -1)}), "edge (2, -1) out of range 0..2"),
        (0, frozenset({(0, 1)}), "edge (0, 1) out of range 0..-1"),
        (3, frozenset({(1, 1)}), "self-loop at vertex 1"),
        (3, frozenset({(7, 7)}), "self-loop at vertex 7"),
        (-1, frozenset(), "vertex_count must be nonnegative"),
    ]
    for vertex_count, edges, message in cases:
        with pytest.raises(ValueError) as exc:
            Graph(vertex_count, edges)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            Graph(vertex_count, list(edges))
        assert str(exc.value) == message


def test_induced_rejects_vertex_ids_out_of_range():
    g = complete_graph(4)
    for vertices in ([-1], [0, 4], [3, 2, 17], range(-2, 2)):
        with pytest.raises(ValueError, match="out of range 0..3"):
            g.induced(vertices)
    sub, ids = g.induced([3, 0, 3])
    assert ids == (0, 3) and sub.edges == frozenset({(0, 1)})
    empty, ids = Graph(0, frozenset()).induced([])
    assert ids == () and empty.vertex_count == 0
    with pytest.raises(ValueError):
        Graph(0, frozenset()).induced([0])


def _recording(calls):
    def fn(cls):
        calls.append(cls)
        return (cls.vertex_count, cls.edge_count, cls.components)

    return fn


def _class_components(cls):
    """The vertex count, edge count and sorted component tuples of a class
    ``Graph``, as ``per_color`` hands them to its function."""
    comps = tuple(tuple(sorted(s)) for s in components(cls).vertex_sets())
    return (cls.vertex_count, cls.edge_count, comps)


def test_per_color_builds_one_edgeless_class_for_all_unused_colors():
    k = 10**5
    g = Graph(5, frozenset({(0, 1)}))
    coloring = EdgeColoring(k, {(0, 1): 7})
    calls = []
    result = per_color(g, coloring, _recording(calls))
    assert len(calls) == 2
    assert list(result) == list(range(1, k + 1))
    assert result[7] == (5, 1, ((0, 1), (2,), (3,), (4,)))
    assert all(result[c] == (5, 0, tuple((v,) for v in range(5))) for c in (1, 6, 8, k))


def test_per_color_with_every_color_used_calls_fn_once_per_color():
    g = complete_graph(6)
    coloring = EdgeColoring(3, {e: 1 + sum(e) % 3 for e in g.edges})
    calls = []
    result = per_color(g, coloring, _recording(calls))
    assert list(result) == [1, 2, 3]
    assert len(calls) == 3
    assert all(cls.edge_count > 0 for cls in calls)


def test_per_color_matches_a_class_per_declared_color():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(0, 9)
        k = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        # Colors drawn from a random subset, so some colors go unused; the
        # coloring also covers edges that g lacks.
        palette = rng.sample(range(1, k + 1), rng.randint(1, k))
        extra = random_graph(rng, n, rng.random() / 2).edges
        coloring = EdgeColoring(k, {e: rng.choice(palette) for e in g.edges | extra})
        reference = {
            c: _class_components(color_class(g, coloring, c)) for c in range(1, k + 1)
        }
        assert list(per_color(g, coloring, _recording([])).items()) == list(
            reference.items()
        )


def test_color_components_induce_the_subgraphs_of_the_class():
    rng = random.Random(62)
    for _ in range(100):
        n = rng.randint(0, 12)
        k = rng.randint(1, 4)
        g = random_graph(rng, n, rng.random())
        extra = random_graph(rng, n, rng.random() / 2).edges
        coloring = EdgeColoring(k, {e: rng.randint(1, k) for e in g.edges | extra})
        for color in range(1, k + 1):
            cls = color_class(g, coloring, color)
            split = color_components(g, coloring, color)
            assert split.sizes == components(cls).sizes
            # Components in reverse order: each first call groups nothing
            # the others need.
            for comp in reversed(split.components):
                sub, ids = split.induced(comp)
                ref_sub, ref_ids = cls.induced(comp)
                assert ids == ref_ids == comp
                assert sub == ref_sub and sub.adjacency == ref_sub.adjacency
    with pytest.raises(ColorRangeError):
        color_components(Graph(2, ()), EdgeColoring(2, {}), 3)


def test_distinct_with_counts_weighs_shared_values_by_their_colors():
    g = Graph(5, frozenset({(0, 1), (2, 3)}))
    coloring = EdgeColoring(10**5, {(0, 1): 7, (2, 3): 9})
    result = per_color(g, coloring, _recording([]))
    groups = distinct_with_counts(result)
    assert [count for _, count in groups] == [10**5 - 2, 1, 1]
    assert [value for value, _ in groups] == [result[1], result[7], result[9]]
    assert distinct_with_counts({}) == []
