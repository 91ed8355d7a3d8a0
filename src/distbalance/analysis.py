"""Distance-balance diagnostics and the Szeged index.

A connected graph is distance-balanced when for every edge xy the number
of vertices strictly closer to x equals the number strictly closer to y.
The Szeged index sums, over all edges, the product of those two counts.

Balance is decided as transmission-regularity: for an edge xy, |closer to
x| - |closer to y| = D(y) - D(x), where D(v) is the sum of the distances
from v, so a connected graph is balanced iff all D(v) are equal (Jerebic,
Klavzar and Rall, "Distance-balanced graphs", Ann. Comb. 12 (2008)).
Per-edge counts come from the BFS level masks L_i of ``graph._levels``:
|closer to x| is the sum over i of |L_i(x) & L_{i+1}(y)|.  Every report
takes one BFS per vertex, and its diameter comes from the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _bits, _levels, _profiles, _spanning_levels, _transmission


@dataclass(frozen=True)
class EdgeBalance:
    """Closer-set sizes for one edge (x, y) with x < y."""

    x: int
    y: int
    closer_to_x: int
    closer_to_y: int

    @property
    def gap(self) -> int:
        return abs(self.closer_to_x - self.closer_to_y)


@dataclass(frozen=True)
class ImbalanceReport:
    """Per-edge balance records in lexicographic edge order.

    ``worst_edge`` is the edge with the largest size gap, ties broken by
    lexicographically smallest (x, y); it is None when balanced.
    """

    records: tuple[EdgeBalance, ...]
    balanced: bool
    worst_edge: tuple[int, int] | None


def _edge_balances(g: Graph) -> tuple[list[EdgeBalance], int]:
    """The per-edge records in lexicographic order, and the diameter."""
    # BFS order, dropping a vertex's levels after its last neighbour: about two
    # layers hold levels at a time, where all n take memory cubic in n on a path
    adj, held, seen, out, diam = g.adj, {}, 0, [], 0
    for x in [v for mask in _spanning_levels(adj, 0) for v in _bits(mask)]:
        levels = _levels(adj, x)
        held[x] = levels, _transmission(levels)
        diam = max(diam, len(levels) - 1)
        seen |= 1 << x
        for y in _bits(adj[x] & seen):
            u, v = (x, y) if x < y else (y, x)
            (lu, tu), (lv, tv) = held[u], held[v]
            c = sum((a & b).bit_count() for a, b in zip(lu, lv[1:]))
            out.append(EdgeBalance(u, v, c, c + tu - tv))
        held = {v: h for v, h in held.items() if adj[v] & ~seen}
    out.sort(key=lambda r: (r.x, r.y))
    return out, diam


def _szeged(records) -> int:
    return sum(r.closer_to_x * r.closer_to_y for r in records)


def _transmission_regular(adj) -> bool:
    """Balance of the graph with adjacency rows ``adj``, as transmission-regularity;
    stops at the first vertex whose transmission differs from vertex 0's."""
    target = _transmission(_spanning_levels(adj, 0))
    for v in range(1, len(adj)):
        if _transmission(_levels(adj, v)) != target:
            return False
    return True


def is_distance_balanced(g: Graph) -> bool:
    """True when every edge has equal closer-set sizes; requires connectivity."""
    return _transmission_regular(g.adj)


def report_with_diameter(g: Graph, records: bool = True) -> tuple[ImbalanceReport, int]:
    """The imbalance report and the diameter of a connected graph, from one
    BFS per vertex.

    Without ``records`` no per-edge records are built and the report's
    ``records`` is empty: balance and the worst edge come from the
    transmissions alone, since the gap of an edge xy is |D(x) - D(y)|.
    """
    if records:
        recs, diam = _edge_balances(g)
        gaps = ((r.x, r.y, r.gap) for r in recs)
    else:
        recs, profiles = (), list(_profiles(g.adj))
        diam = max(ecc for _, ecc in profiles)
        gaps = ((x, y, abs(profiles[x][0] - profiles[y][0])) for x, y in g.edges())
    x, y, gap = max(gaps, key=lambda t: t[2], default=(0, 0, 0))  # first of ties
    worst = (x, y) if gap else None
    return ImbalanceReport(tuple(recs), worst is None, worst), diam


def imbalance_report(g: Graph) -> ImbalanceReport:
    return report_with_diameter(g)[0]


def szeged_index(g: Graph) -> int:
    """Sum over edges of |closer to x| * |closer to y|.

    Exact for any size (Python integers do not overflow).
    """
    return _szeged(_edge_balances(g)[0])
