"""Distance-balance diagnostics and the Szeged index.

A connected graph is distance-balanced when for every edge xy the number
of vertices strictly closer to x equals the number strictly closer to y.
The Szeged index sums, over all edges, the product of those two counts.

Balance is decided as transmission-regularity: for an edge xy, |closer to
x| - |closer to y| = D(y) - D(x), where D(v) is the sum of the distances
from v, so a connected graph is balanced iff all D(v) are equal (Jerebic,
Klavzar and Rall, "Distance-balanced graphs", Ann. Comb. 12 (2008)).
Per-edge counts come from the BFS level masks L_i of ``graph._levels``:
|closer to x| is the sum over i of |L_i(x) & L_{i+1}(y)|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _bits, _levels, _spanning_levels, _transmission


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


def _edge_balances(g: Graph) -> list[EdgeBalance]:
    # BFS order, dropping a vertex's levels after its last neighbour: about two
    # layers hold levels at a time, where all n take memory cubic in n on a path
    adj, held, seen, out = g.adj, {}, 0, []
    for x in [v for mask in _spanning_levels(adj, 0) for v in _bits(mask)]:
        levels = _levels(adj, x)
        held[x] = levels, _transmission(levels)
        seen |= 1 << x
        for y in _bits(adj[x] & seen):
            u, v = (x, y) if x < y else (y, x)
            (lu, tu), (lv, tv) = held[u], held[v]
            c = sum((a & b).bit_count() for a, b in zip(lu, lv[1:]))
            out.append(EdgeBalance(u, v, c, c + tu - tv))
        held = {v: h for v, h in held.items() if adj[v] & ~seen}
    out.sort(key=lambda r: (r.x, r.y))
    return out


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


def imbalance_report(g: Graph) -> ImbalanceReport:
    records = _edge_balances(g)
    balanced = all(r.closer_to_x == r.closer_to_y for r in records)
    worst = None if balanced else max(records, key=lambda r: r.gap)  # first of ties
    return ImbalanceReport(tuple(records), balanced,
                           None if worst is None else (worst.x, worst.y))


def szeged_index(g: Graph) -> int:
    """Sum over edges of |closer to x| * |closer to y|.

    Exact for any size (Python integers do not overflow).
    """
    return sum(r.closer_to_x * r.closer_to_y for r in _edge_balances(g))
