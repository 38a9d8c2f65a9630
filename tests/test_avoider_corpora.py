"""The avoiders of small decided cases as a gate for the loss inequalities.

The paper's inequality is tightest on avoiders of K_{R-1}, where every
color class is as dense as the input class allows, so an off-by-one in a
share formula or a partition condition shows here first. Each listed
avoider is checked whole: the detector misses, every component of every
class passes ``verify_sqi``, and both loss inequalities hold.
"""

import collections
from fractions import Fraction

import pytest

from cmstruct import (
    FOUND,
    EdgeColoring,
    SearchConfig,
    check_F_inequality,
    check_f_inequality,
    color_class,
    complete_graph,
    component_partitions,
    find_mono_cm,
    search_avoider,
    verify_sqi,
)
from cmstruct import search as search_module

from .oracles import canonical_form


def check_avoider(shape, colors):
    """Run every check on the avoider of K_N that colors the pairs in
    lexicographic order by ``colors``; return its multicolor ledger."""
    size, k, n = shape
    g = complete_graph(size)
    coloring = EdgeColoring(k, dict(zip(sorted(g.edges), colors)))
    assert find_mono_cm(g, coloring, n) is None
    holds, ledger = check_F_inequality(g, coloring, n)
    assert holds
    for color in range(1, k + 1):
        cls = color_class(g, coloring, color)
        for p in component_partitions(cls, n):
            sub, ids = cls.induced(p.vertices)
            local = p.relabel({orig: j for j, orig in enumerate(ids)})
            assert verify_sqi(sub, n, local).all_pass
        assert check_f_inequality(cls, n)[0]
    return ledger


def all_q_saturated(ledger):
    return all(c == "q-saturated" for c in ledger.classes.values())


@pytest.mark.parametrize(
    "shape, classes, equality_cases",
    [((4, 2, 4), 1, 0), ((5, 3, 4), 3, 15), ((7, 2, 6), 2, 0)],
)
def test_every_listed_avoider_passes_every_check(shape, classes, equality_cases):
    # The class counts up to vertex and color maps do not depend on the
    # search's symmetry rules; the number of listed avoiders that are all
    # Q-saturated does (15 of the 32 listed for (5, 3, 4) today).
    searcher = search_module._Searcher(SearchConfig(*shape))
    listed = list(searcher._dfs(0, 0, len(searcher.edge_list)))
    assert not searcher.exhausted
    assert len({canonical_form(shape[0], colors) for colors in listed}) == classes
    saturated = 0
    for colors in listed:
        ledger = check_avoider(shape, colors)
        if all_q_saturated(ledger):
            saturated += 1
            assert ledger.vertex_sum == ledger.total
    assert saturated == equality_cases


def first_avoider(shape):
    result = search_avoider(SearchConfig(*shape))
    assert result.status == FOUND
    g = complete_graph(shape[0])
    return [result.coloring.color_of(u, v) for u, v in sorted(g.edges)]


def test_k9_avoider_meets_the_bound_with_equality():
    # The affine plane of order 3: every vertex is Q-saturated.
    ledger = check_avoider((9, 4, 4), first_avoider((9, 4, 4)))
    assert all_q_saturated(ledger) and len(ledger.classes) == 9
    assert ledger.vertex_sum == ledger.total == 18


def test_k10_two_color_avoider_shares():
    ledger = check_avoider((10, 2, 8), first_avoider((10, 2, 8)))
    assert collections.Counter(ledger.classes.values()) == {
        "strong": 3, "q-saturated": 1, "small": 6
    }
    assert ledger.total == 25
    assert ledger.vertex_sum == Fraction(31, 4)
