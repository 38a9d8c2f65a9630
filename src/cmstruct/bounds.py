"""Edge-count bound checkers and the dense-coloring audit.

All thresholds are evaluated in exact rational arithmetic; quantities like
``(k - 1/2) n`` are never rounded. The audit walks a putative avoider
through the counting chain that rules such colorings out: few low-degree
vertices, few strong vertices, and small monochromatic components after
removing both; at desk scale the point is to report exactly which step
breaks for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from .graphs import EdgeColoring, Graph, components, per_color
from .loss import VertexClass, classify_vertices
from .matching import require_no_connected_matching


def erdos_gallai_check(g: Graph, n: int) -> tuple[bool, Fraction]:
    """Edge bound ``e(G) <= (n-2)/2 * v(G)`` for graphs in the input class.

    Requires that the graph has no connected matching of size ``n/2``; the
    bound then always holds, with equality on disjoint unions of cliques on
    ``n-1`` vertices. Returns the verdict and the exact slack.
    """
    require_no_connected_matching(g, n)
    bound = Fraction(n - 2, 2) * g.vertex_count
    return g.edge_count <= bound, bound - g.edge_count


def _largest_mono_component(g: Graph, coloring: EdgeColoring) -> int:
    """Order of the largest component of any color class (0 on no vertices)."""
    sizes = per_color(g, coloring, lambda cls: max(components(cls).sizes, default=0))
    return max(sizes.values())


def small_components_bound(
    g: Graph, coloring: EdgeColoring, n: int
) -> tuple[bool, bool, Fraction]:
    """Edge cap for colorings whose monochromatic components stay small.

    ``k`` is the coloring's ``color_count``, counting colors no edge uses.
    Applicable when ``k >= 4``, ``n >= 4``, ``v(G) == (k - 1/2) n`` exactly,
    and no color class has a component on more than ``n`` vertices. The cap
    is ``C(v, 2) - n^2 / 32``. Returns (applicable, holds, slack); holds and
    slack are computed regardless, for reporting.
    """
    k = coloring.color_count
    applicable = (
        k >= 4
        and n >= 4
        and Fraction(g.vertex_count) == Fraction(2 * k - 1, 2) * n
        and _largest_mono_component(g, coloring) <= n
    )
    bound = Fraction(comb(g.vertex_count, 2)) - Fraction(n * n, 32)
    return applicable, g.edge_count <= bound, bound - g.edge_count


@dataclass(frozen=True)
class AuditParams:
    """Parameters of the dense-coloring setting: k colors, slack epsilon,
    density deficit delta, matching target n; alpha = 1/2 - epsilon."""

    k: int
    epsilon: Fraction
    delta: Fraction
    n: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "delta", Fraction(self.delta))

    @property
    def alpha(self) -> Fraction:
        return Fraction(1, 2) - self.epsilon

    @property
    def delta_cap(self) -> Fraction:
        return self.epsilon**3 / (3 * self.k**2)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    margin: Fraction
    detail: str = ""


def check_hypotheses(
    params: AuditParams, g: Graph, coloring: EdgeColoring
) -> list[HypothesisCheck]:
    """Per-hypothesis pass/fail with exact margins.

    Margins are oriented so that a positive (or, where noted, nonnegative)
    value means the hypothesis holds.
    """
    k, eps, delta, n = params.k, params.epsilon, params.delta, params.n
    checks = [
        HypothesisCheck("k >= 4", k >= 4, Fraction(k - 4)),
        HypothesisCheck(
            "0 < epsilon <= 1/2",
            0 < eps <= Fraction(1, 2),
            min(eps, Fraction(1, 2) - eps),
            "margin is min(eps, 1/2 - eps); needs eps > 0",
        ),
        HypothesisCheck(
            "0 <= delta < eps^3 / (3 k^2)",
            0 <= delta < params.delta_cap,
            params.delta_cap - delta,
            "strict at the cap",
        ),
        HypothesisCheck(
            "n >= 4 even", n >= 4 and n % 2 == 0, Fraction(n - 4)
        ),
        HypothesisCheck(
            "color count matches k",
            coloring.color_count == k,
            Fraction(k - coloring.color_count),
        ),
    ]
    vertex_threshold = (k - Fraction(1, 2) + eps) * n
    checks.append(
        HypothesisCheck(
            "v(G) > (k - 1/2 + eps) n",
            g.vertex_count > vertex_threshold,
            g.vertex_count - vertex_threshold,
            "strict",
        )
    )
    edge_threshold = (1 - delta) * comb(g.vertex_count, 2)
    checks.append(
        HypothesisCheck(
            "e(G) >= (1 - delta) C(v, 2)",
            g.edge_count >= edge_threshold,
            g.edge_count - edge_threshold,
        )
    )
    return checks


@dataclass(frozen=True)
class AuditReport:
    params: AuditParams
    hypotheses: tuple[HypothesisCheck, ...]
    low_degree: frozenset[int]  # degree below (k - 1/2) n
    low_degree_cap: Fraction  # delta k^2 n / eps
    low_degree_ok: bool
    strong_survivors: frozenset[int]  # strong vertices outside the low set
    beta: Fraction  # |strong survivors| / n
    beta_cap: Fraction  # 2 delta k^2 / eps^2
    beta_ok: bool
    residual_count: int  # survivors after removing both sets
    residual_required: Fraction  # (k - 1/2) n
    residual_ok: bool
    residual_max_component: int  # largest mono component among Q-sat survivors
    small_components_applicable: bool
    small_components_ok: bool
    qsat_loss: Mapping[int, tuple[Fraction, Fraction]]  # standard, shifted

    @property
    def failures(self) -> tuple[str, ...]:
        out = [h.name for h in self.hypotheses if not h.passed]
        if not self.low_degree_ok:
            out.append("low-degree count cap")
        if not self.beta_ok:
            out.append("strong-vertex density cap")
        if not self.residual_ok:
            out.append("residual vertex count")
        if self.small_components_applicable and not self.small_components_ok:
            out.append("small-components edge cap")
        return tuple(out)


def _induced_coloring(
    g: Graph, coloring: EdgeColoring, vertices: list[int]
) -> tuple[Graph, EdgeColoring]:
    """Subgraph induced on ``vertices``, relabeled, with its coloring."""
    sub, ids = g.induced(vertices)
    return sub, EdgeColoring(
        coloring.color_count,
        {e: coloring.color_of(ids[e[0]], ids[e[1]]) for e in sub.edges},
    )


def audit_coloring(
    params: AuditParams, g: Graph, coloring: EdgeColoring
) -> AuditReport:
    """Trace a putative avoider through the counting chain.

    Raises if the coloring contains a monochromatic connected matching of
    size ``n/2`` (such inputs are not counterexample candidates). On any
    input satisfying every hypothesis, at least one later step must fail.
    """
    k, eps, delta, n = params.k, params.epsilon, params.delta, params.n
    classes = classify_vertices(g, coloring, n)
    hypotheses = tuple(check_hypotheses(params, g, coloring))

    degree_floor = Fraction(2 * k - 1, 2) * n
    low = frozenset(
        v for v in range(g.vertex_count) if g.degree(v) < degree_floor
    )
    low_cap = delta * k**2 * n / eps if eps else Fraction(0)
    strong = frozenset(
        v
        for v in range(g.vertex_count)
        if v not in low and classes[v] is VertexClass.STRONG
    )
    beta = Fraction(len(strong), n)
    beta_cap = 2 * delta * k**2 / eps**2 if eps else Fraction(0)

    survivors = sorted(set(range(g.vertex_count)) - low - strong)
    residual_required = Fraction(2 * k - 1, 2) * n
    residual_ok = len(survivors) >= residual_required

    qsat_survivors = [v for v in survivors if classes[v] is VertexClass.Q_SATURATED]
    max_comp = 0
    if qsat_survivors:
        sub, sub_coloring = _induced_coloring(g, coloring, qsat_survivors)
        max_comp = _largest_mono_component(sub, sub_coloring)

    # Small-components step: trim survivors to exactly (k - 1/2) n vertices
    # (keeping the smallest ids) when possible, mirroring the removal step.
    sc_applicable = False
    sc_ok = True
    if residual_ok and residual_required.denominator == 1:
        trimmed = survivors[: int(residual_required)]
        sub, sub_coloring = _induced_coloring(g, coloring, trimmed)
        sc_applicable, sc_ok, _ = small_components_bound(sub, sub_coloring, n)

    qsat_loss = {
        v: (
            Fraction(k * (n - 1), 2) - Fraction(g.degree(v), 2),
            Fraction(k * (n - 1), 2) - Fraction(g.degree(v) - 1, 2),
        )
        for v in range(g.vertex_count)
        if classes[v] is VertexClass.Q_SATURATED
    }

    return AuditReport(
        params=params,
        hypotheses=hypotheses,
        low_degree=low,
        low_degree_cap=low_cap,
        low_degree_ok=len(low) <= low_cap,
        strong_survivors=strong,
        beta=beta,
        beta_cap=beta_cap,
        beta_ok=beta <= beta_cap,
        residual_count=len(survivors),
        residual_required=residual_required,
        residual_ok=residual_ok,
        residual_max_component=max_comp,
        small_components_applicable=sc_applicable,
        small_components_ok=sc_ok,
        qsat_loss=qsat_loss,
    )
