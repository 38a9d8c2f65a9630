import random
from fractions import Fraction

import pytest

from cmstruct import (
    AuditParams,
    EdgeColoring,
    Graph,
    SQIPartition,
    audit_coloring,
    VertexClass,
    check_F_inequality,
    check_f_inequality,
    classify_vertices,
    color_class,
    complete_graph,
    component_partitions,
    disjoint_union,
    erdos_gallai_check,
    f_graph,
    f_vertex,
    path_graph,
    star_graph,
)
from cmstruct import matching as matching_module
from cmstruct.constructions import affine_plane_coloring
from cmstruct.errors import (
    HasConnectedMatchingError,
    HasMonochromaticMatchingError,
    InvalidPartitionError,
    OddNError,
)

from .generators import avoiding_coloring, avoiding_graph
from .test_matching import count_max_matchings


def star_triangle():
    g = complete_graph(4)
    coloring = EdgeColoring(
        2, {(0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    )
    return g, coloring


def test_f_graph_examples():
    assert f_graph(complete_graph(3), 4) == Fraction(3, 2)
    assert f_graph(Graph(1, frozenset()), 4) == Fraction(3, 2)
    assert f_graph(star_graph(3), 4) == 3


def test_f_graph_rejects_large_connected_matching():
    with pytest.raises(HasConnectedMatchingError):
        f_graph(complete_graph(4), 4)


@pytest.mark.parametrize("n", [5, 3, 0, -2])
def test_f_graph_rejects_odd_or_nonpositive_n(n):
    with pytest.raises(OddNError):
        f_graph(Graph(3, frozenset()), n)


def test_f_vertex_examples():
    g = complete_graph(3)
    values = f_vertex(g, 4, component_partitions(g, 4))
    assert values == {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)}

    g = star_graph(3)
    values = f_vertex(g, 4, component_partitions(g, 4))
    assert values[0] == Fraction(3, 4)  # center sits in S
    assert sorted(values[v] for v in (1, 2, 3)) == [0, 0, Fraction(1)]

    g = Graph(1, frozenset())
    values = f_vertex(g, 4, component_partitions(g, 4))
    assert values == {0: Fraction(3, 2)}


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda parts: [SQIPartition(frozenset(), frozenset(), frozenset(), 4)],
         "empty partition"),
        (lambda parts: component_partitions(complete_graph(3), 4),
         "partition set is not a component"),
        (lambda parts: parts + [parts[1]], "partitions overlap"),
        (lambda parts: parts[:1], "partitions do not cover the graph"),
        # The star with every vertex in Q.
        (lambda parts: [SQIPartition(frozenset(), frozenset(range(4)), frozenset(), 4),
                        parts[1]],
         "partition fails: size-equality, q-bound, s-vs-i"),
    ],
    ids=["empty", "not-a-component", "overlap", "uncovered", "fails-conditions"],
)
def test_f_vertex_rejects_bad_partitions(bad, message):
    g = disjoint_union([star_graph(3), path_graph(2)])
    parts = component_partitions(g, 4)
    with pytest.raises(InvalidPartitionError) as exc:
        f_vertex(g, 4, bad(parts))
    assert str(exc.value) == message


def test_check_f_examples():
    holds, ledger = check_f_inequality(complete_graph(3), 4)
    assert holds and ledger.vertex_sum == ledger.total == Fraction(3, 2)

    holds, ledger = check_f_inequality(star_graph(3), 4)
    assert holds
    assert ledger.vertex_sum == Fraction(7, 4) and ledger.total == 3

    two = disjoint_union([complete_graph(3), complete_graph(3)])
    holds, ledger = check_f_inequality(two, 4)
    assert holds and ledger.vertex_sum == ledger.total == 3


def test_f_vertex_rejects_a_large_connected_matching_its_partitions_pass():
    # A triangle with a pendant edge at each corner has nu = 3; with S
    # empty, Q the triangle and I the pendant ends, verify_sqi passes at n = 4.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    parts = [SQIPartition(frozenset(), frozenset({0, 1, 2}), frozenset({3, 4, 5}), 4)]
    with pytest.raises(HasConnectedMatchingError):
        f_vertex(g, 4, parts)


def test_check_f_runs_one_matching_per_large_component(monkeypatch):
    # The partition pass decides the input class: one maximum matching for
    # each component on n or more vertices, none for the smaller ones, and
    # no guard of its own.
    orders = count_max_matchings(monkeypatch)
    guards = []
    guard = matching_module.max_connected_matching

    def counting_guard(*args):
        guards.append(args)
        return guard(*args)

    monkeypatch.setattr(matching_module, "max_connected_matching", counting_guard)
    g = disjoint_union([star_graph(5), star_graph(4), path_graph(2)])
    holds, _ = check_f_inequality(g, 4)
    assert holds
    assert orders == [6, 5]
    assert guards == []
    # The k = 1 bounds check keeps its guard, which skips the path: two
    # vertices cannot hold more than the one edge a star already matched.
    orders.clear()
    assert erdos_gallai_check(g, 4)[0]
    assert orders == [6, 5]
    assert len(guards) == 1


def test_check_f_names_the_largest_connected_matching():
    # The partition pass rejects the path first; the error still names the
    # K_6's matching of size 3.
    g = disjoint_union([path_graph(4), complete_graph(6)])
    with pytest.raises(HasConnectedMatchingError) as exc:
        check_f_inequality(g, 4)
    assert str(exc.value) == "graph has a connected matching of size 3 >= 2"


@pytest.mark.parametrize("n", [5, 3, 0, -2])
def test_check_f_rejects_odd_or_nonpositive_n(n):
    with pytest.raises(OddNError):
        check_f_inequality(star_graph(3), n)


def test_classify_star_triangle():
    g, coloring = star_triangle()
    classes = classify_vertices(g, coloring, 4)
    assert classes[3] is VertexClass.STRONG
    assert classes[0] is VertexClass.Q_SATURATED
    assert classes[1] is classes[2] is VertexClass.SMALL


def test_classify_single_color_triangle():
    g = complete_graph(3)
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    classes = classify_vertices(g, coloring, 4)
    assert set(classes.values()) == {VertexClass.Q_SATURATED}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_vertex_class_loss_matches_the_paper_shares(n, k):
    for degree in range(k * (n - 1) + 3):
        assert VertexClass.STRONG.loss(n, k, degree) == Fraction(n - 1, 4)
        assert VertexClass.Q_SATURATED.loss(n, k, degree) == (
            Fraction(k * (n - 1), 2) - Fraction(degree, 2)
        )
        assert VertexClass.SMALL.loss(n, k, degree) == 0
        # the audit's shifted variant, read at degree - 1
        assert VertexClass.Q_SATURATED.loss(n, k, degree - 1) == (
            VertexClass.Q_SATURATED.loss(n, k, degree) + Fraction(1, 2)
        )


def test_audit_qsat_loss_is_the_vertex_class_rule():
    rng = random.Random(5)
    seen = 0
    for _ in range(40):
        k = rng.randint(1, 4)
        g, coloring = avoiding_coloring(rng, rng.randint(4, 10), k, 4)
        report = audit_coloring(AuditParams(k, Fraction(1, 2), 0, 4), g, coloring)
        for v, (std, shifted) in report.qsat_loss.items():
            assert std == Fraction(3 * k, 2) - Fraction(g.degree(v), 2)
            assert shifted == std + Fraction(1, 2)
            seen += 1
    assert seen


def test_classify_two_perfect_matchings():
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    coloring = EdgeColoring(2, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2})
    classes = classify_vertices(g, coloring, 4)
    assert set(classes.values()) == {VertexClass.Q_SATURATED}


def test_classify_rejects_monochromatic_cm():
    g = complete_graph(4)
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    with pytest.raises(HasMonochromaticMatchingError):
        classify_vertices(g, coloring, 4)


def test_F_examples():
    g, coloring = star_triangle()
    values = check_F_inequality(g, coloring, 4)[1].per_vertex
    assert values[3] == Fraction(3, 4)
    assert values[0] == Fraction(3, 2)
    assert values[1] == values[2] == 0

    holds, ledger = check_F_inequality(g, coloring, 4)
    assert holds and ledger.vertex_sum == Fraction(9, 4) and ledger.total == 6


def test_F_reduces_to_f_for_one_color():
    g = complete_graph(3)
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    holds, ledger = check_F_inequality(g, coloring, 4)
    assert ledger.total == f_graph(g, 4)
    assert ledger.per_vertex == f_vertex(g, 4, component_partitions(g, 4))
    assert holds and ledger.vertex_sum == ledger.total == Fraction(3, 2)

    # The k = 1 ledgers agree, with the classes named after S, Q and I.
    names = {"strong": "S", "q-saturated": "Q", "small": "I"}
    rng = random.Random(21)
    graphs = [star_graph(3)] + [avoiding_graph(rng, 6) for _ in range(40)]
    seen = set()
    for g in graphs:
        coloring = EdgeColoring(1, {e: 1 for e in g.edges})
        holds_F, multi = check_F_inequality(g, coloring, 6)
        holds_f, single = check_f_inequality(g, 6)
        assert holds_F == holds_f
        assert multi.total == single.total
        assert multi.per_vertex == single.per_vertex
        assert multi.color_losses == single.color_losses
        assert {v: names[c] for v, c in multi.classes.items()} == single.classes
        seen.update(single.classes.values())
    assert seen == {"S", "Q", "I"}


@pytest.mark.parametrize(
    "analysis",
    [
        lambda g, c: classify_vertices(g, c, 4),
        lambda g, c: check_F_inequality(g, c, 4),
        lambda g, c: audit_coloring(AuditParams(4, Fraction(1, 2), 0, 4), g, c),
    ],
    ids=["classify_vertices", "check_F_inequality", "audit_coloring"],
)
def test_per_color_analysis_runs_detection_once(monkeypatch, analysis):
    calls = []
    detect = matching_module.find_mono_cm

    def counting(*args):
        calls.append(args)
        return detect(*args)

    monkeypatch.setattr(matching_module, "find_mono_cm", counting)
    g, coloring = affine_plane_coloring(3)
    analysis(g, coloring)
    assert len(calls) == 1


def test_F_on_affine_plane():
    g, coloring = affine_plane_coloring(3)
    holds, ledger = check_F_inequality(g, coloring, 4)
    assert holds
    assert ledger.total == 4 * Fraction(3, 2) * 9 - 36


def test_additivity_and_dominance_on_random_instances():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice((4, 6))
        g, coloring = avoiding_coloring(rng, rng.randint(4, 12), rng.randint(1, 4), n)
        ledger = check_F_inequality(g, coloring, n)[1]
        total, values = ledger.total, ledger.per_vertex
        parts = sum(
            (f_graph(color_class(g, coloring, i), n)
             for i in range(1, coloring.color_count + 1)),
            Fraction(0),
        )
        assert total == parts
        assert all(v >= 0 for v in values.values())
        # per-vertex dominance: F(v) <= sum over colors of f_i(v)
        per_color = [
            f_vertex(
                cls := color_class(g, coloring, i),
                n,
                component_partitions(cls, n),
            )
            for i in range(1, coloring.color_count + 1)
        ]
        for v in range(g.vertex_count):
            assert values[v] <= sum(fv[v] for fv in per_color)
        classes = classify_vertices(g, coloring, n)
        assert len(classes) == g.vertex_count


def test_random_single_color_suite():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.choice((4, 6, 8))
        g = avoiding_graph(rng, n)
        holds, ledger = check_f_inequality(g, n)
        assert holds
        assert all(v >= 0 for v in ledger.per_vertex.values())
        assert ledger.total >= 0
        # f_vertex re-verifies the partitions the ledger was built from.
        assert ledger.per_vertex == f_vertex(g, n, ledger.partitions[1])


def test_random_multicolor_suite():
    rng = random.Random(78)
    for _ in range(60):
        n = rng.choice((4, 6))
        g, coloring = avoiding_coloring(rng, rng.randint(3, 14), rng.randint(1, 4), n)
        holds, ledger = check_F_inequality(g, coloring, n)
        assert holds
        assert all(v >= 0 for v in ledger.per_vertex.values())


def test_unused_colors_share_one_edgeless_partition(monkeypatch):
    from cmstruct import loss as loss_module

    calls = []
    partitions = loss_module.component_partitions

    def counting(g, n):
        calls.append(g.edge_count)
        return partitions(g, n)

    monkeypatch.setattr(loss_module, "component_partitions", counting)
    g = Graph(5, [(0, 1)])
    coloring = EdgeColoring(10**5, {(0, 1): 4})
    classes = classify_vertices(g, coloring, 4)
    assert len(calls) <= len(coloring.colors_used()) + 1
    assert classes == classify_vertices(g, EdgeColoring(3, {(0, 1): 2}), 4)


class _CountedTuple(tuple):
    """A tuple that records each pass over its items."""

    def __new__(cls, items, passes):
        self = super().__new__(cls, items)
        self.passes = passes
        return self

    def __iter__(self):
        self.passes.append(len(self))
        return super().__iter__()


def test_classify_reads_shared_partitions_once(monkeypatch):
    from cmstruct import loss as loss_module

    passes = []
    real = loss_module.per_color

    def counted(g, coloring, fn):
        # Colors that share one class analysis share its counted tuple.
        def analysis(cls):
            parts, f = fn(cls)
            return _CountedTuple(parts, passes), f

        return real(g, coloring, analysis)

    monkeypatch.setattr(loss_module, "per_color", counted)
    g = Graph(5, [(0, 1)])
    coloring = EdgeColoring(10**5, {(0, 1): 4})
    classes = classify_vertices(g, coloring, 4)
    # One pass over color 4's partitions and one over the shared ones.
    assert len(passes) == 2
    # Q-saturated means in Q for all 10^5 colors: the shared pass counts
    # once per color that shares it.
    assert classes == {v: VertexClass.Q_SATURATED for v in range(5)}
    passes.clear()
    holds, ledger = check_F_inequality(g, coloring, 4)
    assert holds and len(passes) == 2
    assert ledger.classes == {v: "q-saturated" for v in range(5)}


def test_shared_edgeless_partitions_give_the_unshared_ledger(monkeypatch):
    # k = 4 with colors 2 and 4 unused.
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (0, 2)])
    coloring = EdgeColoring(4, {(0, 1): 1, (1, 2): 1, (0, 2): 3, (3, 4): 3})
    assert coloring.colors_used() == (1, 3)
    holds, shared = check_F_inequality(g, coloring, 4)
    assert shared.partitions[2] is shared.partitions[4]
    # Claiming every color as used computes each class on its own.
    monkeypatch.setattr(EdgeColoring, "colors_used", lambda self: (1, 2, 3, 4))
    holds_unshared, unshared = check_F_inequality(g, coloring, 4)
    assert shared.partitions[2] is not unshared.partitions[2]
    assert list(shared.partitions) == [1, 2, 3, 4]
    assert (holds, shared) == (holds_unshared, unshared)
    assert shared.partitions == {
        c: tuple(component_partitions(color_class(g, coloring, c), 4))
        for c in range(1, 5)
    }
