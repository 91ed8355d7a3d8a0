"""Distance-balance diagnostics and the Szeged index.

A connected graph is distance-balanced when for every edge xy the number
of vertices strictly closer to x equals the number strictly closer to y.
The Szeged index sums, over all edges, the product of those two counts.

Balance is decided as transmission-regularity: for an edge xy, |closer to
x| - |closer to y| = D(y) - D(x), where D(v) is the sum of the distances
from v, so a connected graph is balanced iff all D(v) are equal (Jerebic,
Klavzar and Rall, "Distance-balanced graphs", Ann. Comb. 12 (2008)).
Every report takes one call of ``graph._ball_sweep``, and its diameter
comes from the same call.  In general that is an all-sources ball sweep that
XORs v's balls B_d(v) (within distance d) over d = 0, 1, ... into A(v), the
vertices at one parity of distance; on an edge xy each |d(x, w) - d(y, w)| <=
1, so |closer to x| = (|A(x) ^ A(y)| + D(y) - D(x)) / 2 by the identity,
and a balanced graph's report reuses that list for |closer to y|.
Three kinds of graph take shorter routes (see the ``graph`` module):
those with 2 delta >= n - 1 or a dominant vertex, trees and bipartite
graphs.  The search's balance test takes one vertex's D at a time from
``graph._transmission``, the kernel the search's transmission floor also
reads, so it can stop at the first vertex whose D differs.
"""

from __future__ import annotations

from itertools import starmap
from operator import add, mul
from typing import NamedTuple

from .graph import Edge, Graph, _ball_sweep, _transmission


class EdgeBalance(NamedTuple):
    """Closer-set sizes for one edge (x, y) with x < y."""

    x: int
    y: int
    closer_to_x: int
    closer_to_y: int

    @property
    def gap(self) -> int:
        return abs(self.closer_to_x - self.closer_to_y)


class ImbalanceReport(NamedTuple):
    """Per-edge balance records in lexicographic edge order.

    ``worst_edge`` is the edge with the largest size gap, ties broken by
    lexicographically smallest (x, y); it is None when balanced.
    """

    records: tuple[EdgeBalance, ...]
    balanced: bool
    worst_edge: tuple[int, int] | None


def _closer_counts(g: Graph) -> tuple[list[Edge], list[int], list[int], list[int], int]:
    """The edges in lexicographic order, |closer to x| and |closer to y| of
    each, the transmissions and the diameter, from one ball sweep."""
    edges = g.edges()
    trans, diam, near = _ball_sweep(g.adj, edges)
    if min(trans) == max(trans):  # |closer to x| - |closer to y| = D(y) - D(x) = 0
        return edges, near, near, trans, diam
    far = [c + trans[x] - trans[y] for (x, y), c in zip(edges, near)]
    return edges, near, far, trans, diam


def _worst_edge(g: Graph, trans: list[int], edges: list[Edge] | None = None) -> Edge | None:
    """The first edge of largest gap |D(x) - D(y)|, None when all D are equal."""
    if min(trans) == max(trans):
        return None
    return max(edges or g.edges(), key=lambda e: abs(trans[e[0]] - trans[e[1]]))


def _transmission_regular(adj) -> bool:
    """Balance of the graph with adjacency rows ``adj``, as transmission-regularity:
    each vertex's ``_transmission`` equals vertex 0's, which raises when disconnected.
    Stops at the first vertex whose D differs."""
    target = _transmission(adj, 0)
    return all(_transmission(adj, v) == target for v in range(1, len(adj)))


def is_distance_balanced(g: Graph) -> bool:
    """True when every edge has equal closer-set sizes; requires connectivity."""
    return _transmission_regular(g.adj)


def report_with_diameter(g: Graph, records: bool = True
                         ) -> tuple[Edge | None, int, list[tuple[int, int, int, int]]]:
    """The worst edge (None when balanced), the diameter and the per-edge rows
    (x, y, |closer to x|, |closer to y|) of a connected graph, from one ball
    sweep.  Without ``records`` the rows are empty and no per-edge counts are
    taken: the worst edge comes from the transmissions alone, since the gap
    of an edge xy is |D(x) - D(y)|.
    """
    if records:
        edges, near, far, trans, diam = _closer_counts(g)
        rows = list(map(add, edges, zip(near, far)))  # tuples joined in C
    else:
        trans, diam, _ = _ball_sweep(g.adj)
        edges, rows = None, []
    return _worst_edge(g, trans, edges), diam, rows


def szeged_with_diameter(g: Graph) -> tuple[int, int]:
    """The Szeged index and the diameter of a connected graph, from one ball
    sweep and no per-edge records."""
    _, near, far, _, diam = _closer_counts(g)
    return sum(map(mul, near, far)), diam


def imbalance_report(g: Graph) -> ImbalanceReport:
    worst, _, rows = report_with_diameter(g)
    return ImbalanceReport(tuple(starmap(EdgeBalance, rows)), worst is None, worst)


def szeged_index(g: Graph) -> int:
    """Sum over edges of |closer to x| * |closer to y|.

    Exact for any size (Python integers do not overflow).
    """
    return szeged_with_diameter(g)[0]
