"""Walk through the S/Q/I partition on a few hand-sized graphs.

A connected graph without a matching of n/2 edges splits into high-degree
vertices S, bounded-degree vertices Q, and an independent low-degree set I.
This script builds three such graphs, partitions them, verifies the four
defining conditions, and compares the edge count with the bound the
partition implies.
"""

from cmstruct import (
    Graph,
    partition_edge_bound,
    sqi_partition,
    star_graph,
    complete_graph,
    verify_sqi,
)


def show(name, g, n):
    print(f"--- {name} (v={g.vertex_count}, e={g.edge_count}, n={n})")
    p = sqi_partition(g, n)
    print(f"  S = {sorted(p.S)}")
    print(f"  Q = {sorted(p.Q)}")
    print(f"  I = {sorted(p.I)}")
    print(f"  |Q| + 2|S| = {len(p.Q) + 2 * len(p.S)}"
          f" = min(v, n-1) = {min(g.vertex_count, n - 1)}")
    report = verify_sqi(g, n, p)
    for check in report.checks:
        print(f"  {'ok  ' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    print(f"  edge bound: e = {g.edge_count} <= {partition_edge_bound(p)}")
    print()


# A triangle is smaller than n - 1 = 3 vertices ... equal, actually: the
# whole vertex set lands in Q and nothing else is needed.
show("triangle", complete_graph(3), 4)

# The star K_{1,3} has one high-degree center: it becomes S, one leaf stays
# in Q to reach |Q| + 2|S| = 3, and the other two leaves form I.
show("star K_{1,3}", star_graph(3), 4)

# A double star: two hubs, many leaves, still no 3-matching.
double_star = Graph(
    9, [(0, 1)] + [(0, v) for v in range(2, 6)] + [(1, v) for v in range(6, 9)]
)
show("double star", double_star, 6)
