import random
from fractions import Fraction
from math import comb

import pytest

from cmstruct import (
    AuditParams,
    EdgeColoring,
    audit_coloring,
    check_hypotheses,
    complete_graph,
    disjoint_union,
    erdos_gallai_check,
    path_graph,
    small_components_bound,
    star_graph,
)
from cmstruct.constructions import (
    affine_plane_coloring,
    bounded_component_coloring,
    random_coloring,
)
from cmstruct.errors import (
    HasConnectedMatchingError,
    HasMonochromaticMatchingError,
    OddNError,
)
from cmstruct.graphs import Graph, color_class, components, induced_coloring

from .generators import avoiding_graph


def test_erdos_gallai_equality_on_disjoint_cliques():
    for n in (4, 6, 8):
        g = disjoint_union([complete_graph(n - 1)] * 3)
        holds, slack = erdos_gallai_check(g, n)
        assert holds and slack == 0


def test_erdos_gallai_examples():
    holds, slack = erdos_gallai_check(star_graph(3), 4)
    assert holds and slack == 1
    holds, slack = erdos_gallai_check(Graph(5, frozenset()), 4)
    assert holds and slack == 5


def test_erdos_gallai_rejects_connected_matching():
    with pytest.raises(HasConnectedMatchingError):
        erdos_gallai_check(path_graph(4), 4)


@pytest.mark.parametrize("n", [3, 0, -2])
def test_erdos_gallai_rejects_odd_or_nonpositive_n(n):
    # An odd or non-positive n is refused before the graph is looked at.
    for g in (Graph(3, frozenset()), path_graph(4)):
        with pytest.raises(OddNError):
            erdos_gallai_check(g, n)


def test_erdos_gallai_random_suite():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.choice((4, 6, 8))
        g = avoiding_graph(rng, n)
        holds, slack = erdos_gallai_check(g, n)
        assert holds and slack >= 0
        assert slack == Fraction(n - 2, 2) * g.vertex_count - g.edge_count


def test_small_components_bound_arithmetic():
    g, coloring = bounded_component_coloring(14, 4, 4, seed=3)
    applicable, holds, slack = small_components_bound(g, coloring, 4)
    assert applicable and holds
    # cap is C(14,2) - 16/32 = 91 - 1/2, so any integer e <= 90 passes
    assert slack == Fraction(91) - Fraction(1, 2) - g.edge_count
    assert g.edge_count <= 90


def test_small_components_bound_applicability():
    # a component of five vertices in one color breaks the hypothesis
    edges = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1}
    g = Graph(14, frozenset(edges))
    coloring = EdgeColoring(4, edges)
    applicable, _, _ = small_components_bound(g, coloring, 4)
    assert not applicable
    # wrong vertex count
    g2, c2 = bounded_component_coloring(13, 4, 4, seed=3)
    assert not small_components_bound(g2, c2, 4)[0]


def test_small_components_bound_n8():
    g = Graph(28, frozenset())
    coloring = EdgeColoring(4, {})
    applicable, holds, slack = small_components_bound(g, coloring, 8)
    assert applicable and holds
    assert slack == comb(28, 2) - Fraction(64, 32)
    assert comb(28, 2) - Fraction(64, 32) == 376


def _applicable_per_declared_color(g, coloring, n):
    """Applicability as a loop over every declared color's class."""
    k = coloring.color_count
    if not (k >= 4 and n >= 4 and 2 * g.vertex_count == (2 * k - 1) * n):
        return False
    for color in range(1, k + 1):
        sizes = components(color_class(g, coloring, color)).sizes
        if sizes and max(sizes) > n:
            return False
    return True


def test_small_components_applicability_matches_per_color_loop():
    cases = [
        (Graph(0, frozenset()), EdgeColoring(4, {}), 4),
        (Graph(14, frozenset()), EdgeColoring(6, {}), 4),
    ]
    rng = random.Random(12)
    for k, n in ((4, 4), (5, 4), (4, 6), (6, 4)):
        v = (2 * k - 1) * n // 2
        for max_component in (2, n, n + 1, n + 3):
            g, coloring = bounded_component_coloring(
                v, k, max_component, seed=rng.randrange(10**6)
            )
            cases += [(g, coloring, n), (g, coloring, n + 2)]
            # The same edges with two more colors declared but unused.
            wider = EdgeColoring(k + 2, coloring.assignment)
            cases += [(g, wider, n), (Graph(v + 2 * n, g.edges), wider, n)]
    # Four disjoint triangles on 14 vertices, each edge of a triangle in its
    # own color of 1..3, with color 4 declared but unused.
    triangles = {}
    for base in (0, 3, 6, 9):
        triangles.update(
            {(base, base + 1): 1, (base + 1, base + 2): 2, (base, base + 2): 3}
        )
    cases += [(Graph(14, frozenset(triangles)), EdgeColoring(4, triangles), 4)]
    # The audit's trimmed survivors: the first (k - 1/2) n vertices of a
    # larger coloring, with its color count.
    g17, c17 = bounded_component_coloring(17, 4, 4, seed=5)
    cases += [(*induced_coloring(g17, c17, list(range(14))), 4)]
    seen = set()
    for g, coloring, n in cases:
        applicable = small_components_bound(g, coloring, n)[0]
        assert applicable == _applicable_per_declared_color(g, coloring, n)
        seen.add(applicable)
    assert seen == {True, False}


def test_hypotheses_on_complete_graphs():
    params = AuditParams(4, Fraction(1, 2), Fraction(1, 500), 4)
    g = complete_graph(17)
    coloring = random_coloring(17, 4, seed=0)
    checks = {c.name: c for c in check_hypotheses(params, g, coloring)}
    assert all(c.passed for c in checks.values())
    assert checks["v(G) > (k - 1/2 + eps) n"].margin == 1

    g16 = complete_graph(16)
    checks = {c.name: c for c in check_hypotheses(params, g16, random_coloring(16, 4, 0))}
    assert not checks["v(G) > (k - 1/2 + eps) n"].passed


def test_hypotheses_delta_cap_is_strict():
    eps = Fraction(1, 2)
    cap = eps**3 / (3 * 16)
    params = AuditParams(4, eps, cap, 4)
    g = complete_graph(17)
    checks = {c.name: c for c in check_hypotheses(params, g, random_coloring(17, 4, 0))}
    assert not checks["0 <= delta < eps^3 / (3 k^2)"].passed
    assert checks["0 <= delta < eps^3 / (3 k^2)"].margin == 0


def test_audit_affine_plane():
    g, coloring = affine_plane_coloring(3)
    params = AuditParams(4, Fraction(1, 2), Fraction(1, 500), 4)
    report = audit_coloring(params, g, coloring)
    byname = {h.name: h for h in report.hypotheses}
    assert not byname["v(G) > (k - 1/2 + eps) n"].passed
    # every vertex has degree 8 < 14
    assert report.low_degree == frozenset(range(9))
    assert not report.low_degree_ok
    assert "v(G) > (k - 1/2 + eps) n" in report.failures
    assert report.failures  # the chain must break somewhere


def test_audit_padded_star_triangle():
    g = complete_graph(4)
    coloring = EdgeColoring(
        4, {(0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    )
    params = AuditParams(4, Fraction(1, 2), Fraction(1, 500), 4)
    report = audit_coloring(params, g, coloring)
    byname = {h.name: h for h in report.hypotheses}
    assert not byname["v(G) > (k - 1/2 + eps) n"].passed
    assert report.low_degree == frozenset(range(4))
    assert isinstance(report.strong_survivors, frozenset)
    # vertex 0 sits in Q for every color (the empty classes contribute
    # singleton Case-1 components), so both loss variants are reported
    assert report.qsat_loss == {0: (Fraction(9, 2), Fraction(5))}
    # vertex 3 is strong but low degree, so it never reaches the strong set
    assert report.beta == 0


def test_audit_rejects_colorings_with_mono_cm():
    g = complete_graph(17)
    coloring = random_coloring(17, 4, seed=1)
    params = AuditParams(4, Fraction(1, 2), Fraction(1, 500), 4)
    with pytest.raises(HasMonochromaticMatchingError):
        audit_coloring(params, g, coloring)


def test_audit_reports_both_qsat_loss_variants():
    # two perfect matchings on four vertices: all vertices Q-saturated
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    coloring = EdgeColoring(2, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2})
    params = AuditParams(2, Fraction(1, 2), Fraction(0), 4)
    report = audit_coloring(params, g, coloring)
    assert set(report.qsat_loss) == {0, 1, 2, 3}
    std, shifted = report.qsat_loss[0]
    assert std == Fraction(2 * 3, 2) - 1
    assert shifted == std + Fraction(1, 2)


def test_audit_survivor_branches():
    # K_3 on {1, 2, 3} plus the isolated vertex 0: only vertex 0 has degree
    # below (k - 1/2) n = 2, and the triangle survives as one component.
    g = disjoint_union([Graph(1, frozenset()), complete_graph(3)])
    assert g.edges == {(1, 2), (1, 3), (2, 3)}
    coloring = EdgeColoring(1, {e: 1 for e in g.edges})
    params = AuditParams(1, Fraction(1, 2), Fraction(0), 4)
    report = audit_coloring(params, g, coloring)
    assert report.low_degree == frozenset({0})
    assert report.strong_survivors == frozenset()
    assert report.residual_count == 3
    assert report.residual_ok
    assert report.residual_max_component == 3
    # the trimmed survivors {1, 2} span one edge, over the cap 1 - 16/32
    assert not report.small_components_applicable
    assert not report.small_components_ok
