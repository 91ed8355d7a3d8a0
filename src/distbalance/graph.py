"""Simple undirected graphs on integer vertices, with bitmask adjacency.

Vertices are 0..n-1.  Each adjacency row is a Python int used as a bit
vector: bit v of row u is set when uv is an edge, for any n.  ``_members``
lists a row's vertices: bit by bit when sparse, and when dense as a range
per run between the few clear bits, chained in C, so a near-complete row
costs its non-neighbours in Python steps.  Edge lists, a closure's added
pairs (``_upper_pairs``) and the neighbour lists of ``_sweep`` read their
rows through it.  ``_pair_text`` walks a near-full row's clear bits inline
and makes one ``join`` over a slice of its table of names per run.

``_levels`` is a single-source BFS that returns level masks;
connectivity, the classifier's tree test (whose levels a closure hands to
``_tree_sweep`` for its input's diameter) and the search's tree centre are
read off it.  ``_transmission`` gives one vertex's D(v), the sum of its
distances, growing its ball and the sum in one loop; the balance test and
the search's transmission floor both read D from it.
``_ball_sweep`` gives the transmissions, the diameter and the per-edge
closer counts of a whole graph by one of four routes; all but the first are
picked from vertex 0's BFS levels, taken anyway to refuse a disconnected graph:
- with 2 delta >= n - 1 or a dominant vertex, two non-adjacent vertices
  share a neighbour, so the diameter is at most 2 and the degrees give D(v)
  = 2(n - 1) - deg(v) and |closer to x| = deg(x) - |N(x) & N(y)| (1 on K_n);
- a tree (degree sum 2(n - 1)) takes two O(n) passes over the BFS tree:
  subtree sizes and heights bottom-up, then D(c) = D(parent) + n - 2
  |subtree(c)| top-down, since moving the root to c brings c's subtree one
  step closer and the rest one step farther;
- a bipartite graph (no edge inside one level) takes the general sweep
  without its parity sets: no vertex is equidistant from the ends of an
  edge (Ilic, Klavzar and Milanovic, Eur. J. Combin. 31 (2010));
- every other graph takes ``_sweep``, which grows the balls of every vertex
  at once, B_{d+1}(u) the union of B_d(w) over w in N(u), and XORs each
  vertex's balls into one parity set.  For d >= 1 that union holds B_d(u)
  itself: u is in B_1(w), a subset of B_d(w), and any other x within d + 1
  of u is within d of the next vertex on a shortest u-x path.
On an edge xy, |d(x, w) - d(y, w)| <= 1, so w is equidistant from x and y
exactly when the two distances have the same parity.  The closer counts sum
to the s vertices of differing parity (n off the sweep), and |closer to x| =
(s + D(y) - D(x)) / 2 by |closer to x| - |closer to y| = D(y) - D(x), the
analysis module's balance test as transmission-regularity (Jerebic, Klavzar
and Rall, Ann. Comb. 12 (2008)), one ``_transmission`` at a time.
All distance computations reject disconnected graphs; there are no
infinite distances anywhere in the API.
"""

from __future__ import annotations

from itertools import chain, combinations, count, repeat, zip_longest
from operator import add, itemgetter, or_, xor
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DisconnectedGraphError,
    GraphTooLargeError,
    ParameterTooSmallError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]

# the largest vertex count from_edge_list accepts; an edge-list file names its
# own count, so this bounds what one line of input can make it allocate
MAX_VERTICES = 1 << 16


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(mask: int, lo: int, hi: int) -> Iterator[int]:
    """The set bit positions of ``mask``, which lie in lo..hi-1, in increasing
    order: bit by bit when fewer than half are set, else a ``range`` per run
    between the few clear bits (empty between adjacent ones), chained in C."""
    if 2 * mask.bit_count() < hi - lo:
        return _bits(mask)
    gaps = list(_bits(mask ^ (1 << hi) - (1 << lo)))
    return chain.from_iterable(map(range, [lo, *map((1).__add__, gaps)], [*gaps, hi]))


def _upper_pairs(rows) -> list[Edge]:
    """Each pair (u, v) with u < v and bit v of rows[u] set, in lexicographic
    order; a row's pairs are zipped in C.  A list, since ``tuple`` of a long
    iterator regrows a tuple that the collector then rescans."""
    n = len(rows)
    # -(2 << u) keeps the bits above u
    return list(chain.from_iterable(zip(repeat(u), _members(row & -(2 << u), u + 1, n))
                                    for u, row in enumerate(rows)))


def _pair_text(rows, open_: str, mid: str, close: str, sep: str) -> str:
    """``_upper_pairs(rows)`` as text: open u mid v close per pair, joined by ``sep``,
    one ``join`` per row over a table of decimal names, no tuple per pair; a near-full row
    walks its clear bits inline and joins a table slice per run, then the runs."""
    n = len(rows)
    names = list(map(str, range(n)))
    parts = []
    for u, row in enumerate(rows):
        row &= -(2 << u)
        if row:
            head = open_ + names[u] + mid
            glue = close + sep + head
            if 2 * row.bit_count() < n - u - 1:
                pieces = map(names.__getitem__, _bits(row))
            else:
                pieces, a = [], u + 1
                gaps = row ^ (1 << n) - (2 << u)  # the clear bits among u+1..n-1
                while gaps:
                    low = gaps & -gaps
                    b = low.bit_length() - 1
                    if a < b:
                        pieces.append(glue.join(names[a:b]))
                    a = b + 1
                    gaps ^= low
                if a < n:
                    pieces.append(glue.join(names[a:]))
            parts.append(head + glue.join(pieces) + close)
    return sep.join(parts)


class Graph(NamedTuple):
    """Immutable simple graph: no loops, no parallel edges."""

    n: int
    adj: tuple[int, ...]
    edge_count: int

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def max_degree(self) -> int:
        return max(self.degrees())

    def min_degree(self) -> int:
        return min(self.degrees())

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return _upper_pairs(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def _check_order(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphTooLargeError(f"at most {MAX_VERTICES} vertices are supported, got {n}")


def from_edge_list(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a simple graph; duplicates and both orientations collapse.

    Raises VertexOutOfRangeError for an endpoint outside 0..n-1,
    SelfLoopError for a pair with equal endpoints and GraphTooLargeError
    for n above MAX_VERTICES.  n is checked before ``edges`` is read, so
    a lazy iterable builds nothing for a refused order.
    """
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    _check_order(n)
    return add_edges(Graph(n, (0,) * n, 0), edges)


def add_edges(g: Graph, pairs: Iterable[Edge]) -> Graph:
    """A new graph with the given pairs added (already-present pairs collapse)."""
    n, adj = g.n, list(g.adj)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), sum(row.bit_count() for row in adj) // 2)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a permutation: vertex v of the input becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("relabeling is not a permutation of 0..n-1")
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def complete_graph(n: int) -> Graph:
    _check_order(n)  # combinations() copies its whole pool when called
    return from_edge_list(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterTooSmallError(f"cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def _levels(adj, source: int) -> list[int]:
    """BFS level masks: bit u of entry i is set when d(source, u) = i; the list
    ends at the eccentricity of ``source`` and leaves out unreachable vertices."""
    seen = frontier = 1 << source
    levels = [frontier]
    while True:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        if not frontier:
            return levels
        seen |= frontier
        levels.append(frontier)


def _transmission(adj, v: int) -> int:
    """D(v), the sum of the distances from v: n - |B_d(v)| summed over v's balls
    short of full, grown from the closed row with the sum in one loop; raises
    DisconnectedGraphError when the ball stops growing short of full."""
    n = len(adj)
    full = (1 << n) - 1
    frontier = adj[v]
    ball, total = frontier | 1 << v, n - 1
    while ball != full:  # plain loops: this is the search's inner loop
        total += n - ball.bit_count()
        grown = ball
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        if grown == ball:
            raise DisconnectedGraphError("graph is not connected")
        frontier, ball = grown ^ ball, grown
    return total


# the width of a block of ball columns in ``_ball_sweep``: its two lists of balls
# and one of parity sets take about 3 n * _BLOCK / 8 bytes, where whole rows would
# take n * n / 4 (1 GiB at MAX_VERTICES)
_BLOCK = 4096


def _ball_sweep(adj, edges=None) -> tuple[list[int], int, list[int] | None]:
    """(transmissions, the diameter, |closer to x| of each (x, y) in
    ``edges``) of a connected graph; raises DisconnectedGraphError otherwise.

    The route (see the module docstring): degrees alone when 2 delta >= n - 1
    or a vertex is dominant; else, by the BFS levels of vertex 0, a tree from
    ``_tree_sweep`` and any other graph from ``_sweep``; |closer to x| = (s +
    D(y) - D(x)) / 2, with s the vertices whose distances from x and y, at
    most 1 apart, differ in parity: n if bipartite, else from the parity sets.
    """
    n = len(adj)
    degrees = list(map(int.bit_count, adj))
    if 2 * min(degrees) >= n - 1 or max(degrees) == n - 1:  # diameter <= 2
        if degrees.count(n - 1) == n:  # complete: B_1 is full
            return [n - 1] * n, min(n - 1, 1), None if edges is None else [1] * len(edges)
        near = None if edges is None else [degrees[x] - (adj[x] & adj[y]).bit_count()
                                           for x, y in edges]
        return [2 * (n - 1) - d for d in degrees], 2, near
    levels = _levels(adj, 0)
    if sum(map(int.bit_count, levels)) != n:
        raise DisconnectedGraphError("graph is not connected")
    split = repeat(n)  # a tree or bipartite graph has no equidistant vertex on an edge
    if sum(degrees) == 2 * (n - 1):
        trans, diam = _tree_sweep(adj, levels)
    elif edges is None or not any(adj[v] & level for level in levels
                                  for v in _members(level, 0, n)):
        trans, diam, _ = _sweep(adj, degrees)
    else:
        trans, diam, split = _sweep(adj, degrees, edges)
    near = None if edges is None else [(s + trans[y] - trans[x]) >> 1
                                       for (x, y), s in zip(edges, split)]
    return trans, diam, near


def _tree_sweep(adj, levels) -> tuple[list[int], int]:
    """(transmissions, the diameter) of a tree from the BFS levels of vertex 0.

    A vertex's parent is its one neighbour in the level before its own.
    Bottom-up, each vertex adds its subtree size and its height to its
    parent's, and the diameter is the largest sum of two branch heights at a
    vertex.  Top-down, D(0) = sum of i |L_i|, and moving the root across the
    edge to a child c brings the |subtree(c)| vertices one closer and the
    others one farther: D(c) = D(parent) + n - 2 |subtree(c)|.
    """
    n = len(adj)
    order, parent = [0], [0] * n
    for prev, level in zip(levels, levels[1:]):
        for v in _members(level, 0, n):
            parent[v] = (adj[v] & prev).bit_length() - 1
            order.append(v)
    size, height, diam = [1] * n, [0] * n, 0
    for v in order[:0:-1]:
        p, h = parent[v], height[v] + 1
        size[p] += size[v]
        if height[p] + h > diam:
            diam = height[p] + h
        if h > height[p]:
            height[p] = h
    trans = [0] * n
    trans[0] = sum(i * level.bit_count() for i, level in enumerate(levels))
    for v in order[1:]:
        trans[v] = trans[parent[v]] + n - 2 * size[v]
    return trans, diam


def _sweep(adj, degrees, edges=()) -> tuple[list[int], int, list[int]]:
    """``_ball_sweep``'s general route, from the balls of every vertex at once:
    (transmissions, the diameter, |A(x) ^ A(y)| of each (x, y) in ``edges``).

    B_d(u), the vertices within distance d of u, starts at the closed row
    B_1(u) and grows by B_{d+1}(u) = the union of B_d(w) over w in N(u),
    which holds B_d(u) for d >= 1 (module docstring), until every ball is
    full: a step gathers the first neighbour column and ORs in the others.
    D(u) is the sum over d of n - |B_d(u)|, and the diameter is the first d
    at which every ball is full.  The parity set A(u), the XOR of the nested
    B_0(u) = {u}, ..., B_T(u) with T the last d, holds the w with T - d(u, w)
    even; on an edge xy, |d(x, w) - d(y, w)| <= 1, so |A(x) ^ A(y)| counts
    the w not equidistant from x and y.  Distances are symmetric, so the
    ball columns run in blocks of ``_BLOCK``; the blocks' sums add up, and
    the diameter is the largest of their last d.
    """
    n = len(adj)
    # positions by falling degree, so the vertices with a j-th neighbour are
    # a prefix and a step is a few whole-list maps
    order = sorted(range(n), key=degrees.__getitem__, reverse=True)
    pos = [0] * n
    for i, u in enumerate(order):
        pos[u] = i
    rows = [map(pos.__getitem__, _members(adj[u], 0, n)) for u in order]
    # first gathers the balls in column 0 of the rows, which every vertex fills; slots[j], of
    # column j + 1, is cut when a step first needs it (a diameter-2 graph needs few)
    columns, slots = zip_longest(*rows), []
    first = itemgetter(*next(columns))
    xs, ys = [pos[x] for x, _ in edges], [pos[y] for _, y in edges]
    sizes, split, diam = [0] * n, [0] * len(xs), 0
    counted = 0  # the block widths summed over the steps taken
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        full = (1 << width) - 1
        parity = [adj[u] >> lo & full for u in order]  # B_0 ^ B_1, the open rows
        balls = [(adj[u] | 1 << u) >> lo & full for u in order]
        d = 1
        while balls.count(full) < n:
            counted += width
            sizes = list(map(add, sizes, map(int.bit_count, balls)))
            prev, d, k = balls, d + 1, n
            balls = list(first(prev))
            for j in count():
                if d == 2 and 2 * k > n and balls.count(full) == n:  # first step only
                    break  # the other slots would add nothing
                if j == len(slots):
                    col = next(columns, None)
                    if col is None:
                        break
                    k = col.index(None) if col[-1] is None else n
                    slots.append((k, itemgetter(*col[:k], 0)))  # 0: a tuple if k = 1
                k, gather = slots[j]
                if k == n:
                    balls = list(map(or_, balls, gather(prev)))
                else:
                    balls[:k] = map(or_, balls[:k], gather(prev))
            if edges:
                parity = list(map(xor, parity, balls))
        split = list(map(add, split, map(int.bit_count, map(
            xor, map(parity.__getitem__, xs), map(parity.__getitem__, ys)))))
        diam = max(diam, d)
    trans = [0] * n
    for i, u in enumerate(order):
        trans[u] = n - 1 + counted - sizes[i]
    return trans, diam, split


def is_connected(g: Graph) -> bool:
    return sum(mask.bit_count() for mask in _levels(g.adj, 0)) == g.n


def diameter(g: Graph) -> int:
    """The largest eccentricity; raises DisconnectedGraphError when disconnected."""
    return _ball_sweep(g.adj)[1]


def regular_degree(g: Graph) -> int | None:
    """The common degree when the graph is regular, otherwise None."""
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None


def is_spanning_subgraph(sub: Graph, sup: Graph) -> bool:
    """True when every edge of ``sub`` is an edge of ``sup`` under identical labels."""
    if sub.n != sup.n:
        raise SizeMismatchError(f"vertex counts differ: {sub.n} vs {sup.n}")
    return all(sub.adj[v] & ~sup.adj[v] == 0 for v in range(sub.n))


def complement_edges(g: Graph) -> list[Edge]:
    """All non-adjacent unordered pairs, in lexicographic order."""
    return [(u, v) for u, v in combinations(range(g.n), 2) if not g.adj[u] >> v & 1]
