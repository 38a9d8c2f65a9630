"""Constructive S/Q/I partition of connected graphs without a large matching.

For a connected graph with no matching of ``n/2`` edges (``n`` even), the
vertex set splits into high-degree vertices S, bounded-degree vertices Q and
an independent low-degree set I with:

  1. ``|Q| + 2|S| == min(v(G), n-1)``
  2. I is independent, and empty whenever ``v(G) <= n-1``
  3. every vertex of Q has at most one neighbor in I
  4. every vertex of I has degree below ``n/2``

Small graphs (``v(G) <= n-1``) take ``Q = V``. Larger graphs start from a
deficiency witness: S is the witness set, I picks one vertex from every odd
component of G-S except the largest, and vertices move from I to Q until
condition 1 holds with equality.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from math import comb

from .errors import HasLargeMatchingError, NotConnectedError
from .graphs import Graph, components
from .matching import DeficiencyWitness, require_even_n, tutte_berge


@dataclass(frozen=True)
class SQIPartition:
    """Disjoint vertex sets S, Q, I for one connected graph."""

    S: frozenset[int]
    Q: frozenset[int]
    I: frozenset[int]
    n: int

    @property
    def vertices(self) -> frozenset[int]:
        return self.S | self.Q | self.I

    def class_of(self, v: int) -> str:
        if v in self.S:
            return "S"
        if v in self.Q:
            return "Q"
        if v in self.I:
            return "I"
        raise KeyError(v)

    def relabel(self, ids: Sequence[int] | Mapping[int, int]) -> SQIPartition:
        """The same partition with every vertex ``v`` renamed ``ids[v]``:
        ``ids`` is ``Graph.induced``'s id tuple (subgraph to host ids) or an
        injective mapping (for example host to subgraph ids)."""
        return SQIPartition(
            frozenset(ids[v] for v in self.S),
            frozenset(ids[v] for v in self.Q),
            frozenset(ids[v] for v in self.I),
            self.n,
        )


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str = ""
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class PartitionReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[ConditionCheck]:
        return [c for c in self.checks if not c.passed]


def sqi_partition(g: Graph, n: int) -> SQIPartition:
    """Deterministic S/Q/I partition of a connected graph with ``nu < n/2``."""
    return _sqi_partition(g, n, tutte_berge)


def _sqi_partition(
    g: Graph, n: int, witness_of: Callable[[Graph], DeficiencyWitness]
) -> SQIPartition:
    """``sqi_partition`` taking the deficiency witness from ``witness_of(g)``,
    so a caller that already built the witness need not build it again."""
    require_even_n(n)
    if g.vertex_count == 0 or components(g).count != 1:
        raise NotConnectedError("partition requires a connected, nonempty graph")
    v = g.vertex_count
    if v <= n - 1:
        # 2 nu <= v < n, so no matching of size n/2 fits.
        return SQIPartition(frozenset(), frozenset(range(v)), frozenset(), n)
    wit = witness_of(g)
    nu = (v - wit.deficiency) // 2
    if nu >= n // 2:
        raise HasLargeMatchingError(f"graph has a matching of size {nu} >= {n // 2}")

    s = set(wit.witness)
    # Odd components arrive sorted (size desc, min id asc); the largest one
    # contributes nothing to I, each other one its minimum vertex.
    independent = sorted(min(comp) for comp in wit.odd_components[1:])
    q = set(range(v)) - s - set(independent)
    assert 2 * len(s) + len(q) <= n - 1, "deficiency witness too small"
    move = (n - 1) - (2 * len(s) + len(q))
    assert move <= len(independent), "cannot reach required size equality"
    # Moved vertices were their component's only I member, so Q keeps
    # at most one I neighbor per vertex.
    q.update(independent[:move])
    return SQIPartition(frozenset(s), frozenset(q), frozenset(independent[move:]), n)


def verify_sqi(g: Graph, n: int, p: SQIPartition) -> PartitionReport:
    """Check the four partition conditions plus the derived size bounds.

    Failures become report entries with a witness vertex or edge; nothing is
    raised.
    """
    checks: list[ConditionCheck] = []
    v = g.vertex_count

    overlap = (p.S & p.Q) | (p.S & p.I) | (p.Q & p.I)
    covers = p.vertices == frozenset(range(v))
    checks.append(
        ConditionCheck(
            "partition",
            not overlap and covers,
            "S, Q, I disjoint and covering all vertices",
            tuple(sorted(overlap)) if overlap else None,
        )
    )

    target = min(v, n - 1)
    got = len(p.Q) + 2 * len(p.S)
    checks.append(
        ConditionCheck(
            "size-equality",
            got == target,
            f"|Q| + 2|S| = {got}, required {target}",
        )
    )

    bad_edge = None
    for u in sorted(p.I):
        for w in g.neighbors(u):
            if w > u and w in p.I:
                bad_edge = (u, w)
                break
        if bad_edge:
            break
    empty_ok = not (v <= n - 1 and p.I)
    checks.append(
        ConditionCheck(
            "independence",
            bad_edge is None and empty_ok,
            "I independent" + ("" if empty_ok else " and empty for small graphs"),
            bad_edge,
        )
    )

    crowded = None
    for u in sorted(p.Q):
        in_i = sum(1 for w in g.neighbors(u) if w in p.I)
        if in_i > 1:
            crowded = (u,)
            break
    checks.append(
        ConditionCheck(
            "q-neighbors",
            crowded is None,
            "every Q vertex has at most one neighbor in I",
            crowded,
        )
    )

    heavy = None
    for u in sorted(p.I):
        if g.degree(u) >= n // 2:
            heavy = (u,)
            break
    checks.append(
        ConditionCheck(
            "i-degree",
            heavy is None,
            f"every I vertex has degree < {n // 2}",
            heavy,
        )
    )

    checks.append(
        ConditionCheck("s-bound", len(p.S) < n // 2, f"|S| = {len(p.S)} < {n // 2}")
    )
    checks.append(
        ConditionCheck("q-bound", len(p.Q) < n, f"|Q| = {len(p.Q)} < {n}")
    )
    s_vs_i = len(p.S) < len(p.I) if v > n - 1 else len(p.S) <= len(p.I)
    checks.append(
        ConditionCheck(
            "s-vs-i",
            s_vs_i,
            f"|S| = {len(p.S)} {'<' if v > n - 1 else '<='} |I| = {len(p.I)}",
        )
    )

    return PartitionReport(tuple(checks))


def partition_edge_bound(p: SQIPartition) -> int:
    """Edge-count cap implied by the partition shape.

    Edges inside S and Q, at most |I|*|S| between I and S, and at most one
    I edge per Q vertex; I itself is independent.
    """
    side = len(p.Q) + len(p.S)
    return comb(side, 2) + len(p.I) * len(p.S) + len(p.Q)


def component_partitions(g: Graph, n: int) -> list[SQIPartition]:
    """One partition per connected component, in original vertex ids.

    Raises HasLargeMatchingError if any component has a matching of size
    ``n/2``.
    """
    result = []
    for comp in components(g).vertex_sets():
        sub, ids = g.induced(comp)
        result.append(sqi_partition(sub, n).relabel(ids))
    return result
