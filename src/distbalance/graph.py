"""Simple undirected graphs on integer vertices, with bitmask adjacency.

Vertices are 0..n-1.  Each adjacency row is a Python int used as a bit
vector: bit v of row u is set when uv is an edge.  This gives O(1) edge
tests and word-parallel frontier unions during BFS, and because Python
ints are arbitrary width the same representation works for any n.

Distance rows, connectivity, transmissions and eccentricities are all
read off the level masks of one BFS, ``_levels``.  The analysis module
decides balance as transmission-regularity (Jerebic, Klavzar and Rall,
Ann. Comb. 12 (2008)) and takes per-edge counts from the same masks.
All distance computations reject disconnected graphs; there are no
infinite distances anywhere in the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Graph:
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
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def from_edge_list(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a simple graph; duplicates and both orientations collapse.

    Raises VertexOutOfRangeError for an endpoint outside 0..n-1,
    SelfLoopError for a pair with equal endpoints and GraphTooLargeError
    for n above MAX_VERTICES.
    """
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if n > MAX_VERTICES:
        raise GraphTooLargeError(f"at most {MAX_VERTICES} vertices are supported, got {n}")
    adj = [0] * n
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), sum(row.bit_count() for row in adj) // 2)


def add_edges(g: Graph, pairs: Iterable[Edge]) -> Graph:
    """A new graph with the given pairs added (already-present pairs collapse)."""
    adj = list(g.adj)
    for u, v in pairs:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{g.n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(g.n, tuple(adj), sum(row.bit_count() for row in adj) // 2)


def remove_edges(g: Graph, pairs: Iterable[Edge]) -> Graph:
    """A new graph with the given edges removed; every pair must be present."""
    adj = list(g.adj)
    removed = 0
    for u, v in pairs:
        if not adj[u] >> v & 1:
            raise ValueError(f"edge ({u}, {v}) not present")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        removed += 1
    return Graph(g.n, tuple(adj), g.edge_count - removed)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a permutation: vertex v of the input becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("relabeling is not a permutation of 0..n-1")
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterTooSmallError(f"cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


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


def _spanning_levels(adj, source: int) -> list[int]:
    """``_levels`` of a connected graph; raises DisconnectedGraphError otherwise."""
    levels = _levels(adj, source)
    if sum(mask.bit_count() for mask in levels) != len(adj):
        raise DisconnectedGraphError("graph is not connected")
    return levels


def _transmission(levels: list[int]) -> int:
    """D(v) = sum of d(v, u) over all u, from the level masks of v."""
    total = 0
    for d, mask in enumerate(levels):  # a plain loop: this is the search's inner loop
        total += d * mask.bit_count()
    return total


def _profiles(adj) -> Iterator[tuple[int, int]]:
    """(transmission, eccentricity) of each vertex in order; connected graphs only."""
    for v in range(len(adj)):
        levels = _spanning_levels(adj, v)
        yield _transmission(levels), len(levels) - 1


def is_connected(g: Graph) -> bool:
    return sum(mask.bit_count() for mask in _levels(g.adj, 0)) == g.n


def distances_from(g: Graph, source: int) -> list[int]:
    """BFS distances from one vertex of a connected graph."""
    if not 0 <= source < g.n:
        raise VertexOutOfRangeError(f"vertex {source} outside 0..{g.n - 1}")
    row = [0] * g.n
    for d, mask in enumerate(_spanning_levels(g.adj, source)):
        for v in _bits(mask):
            row[v] = d
    return row


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances of a connected graph."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def distance(self, u: int, v: int) -> int:
        return self.rows[u][v]


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; raises DisconnectedGraphError if any pair is unreachable."""
    return DistanceMatrix(g.n, tuple(tuple(distances_from(g, v)) for v in range(g.n)))


def diameter(g: Graph) -> int:
    """The largest eccentricity; raises DisconnectedGraphError when disconnected."""
    return max(ecc for _, ecc in _profiles(g.adj))


@dataclass(frozen=True)
class EdgePartition:
    """Vertex classification by distance to an ordered pair (x, y).

    ``closer_to_x`` holds the vertices strictly nearer x than y,
    ``closer_to_y`` the reverse, and ``equidistant`` the rest; together
    they partition the vertex set of a connected graph.
    """

    x: int
    y: int
    closer_to_x: frozenset[int]
    closer_to_y: frozenset[int]
    equidistant: frozenset[int]


def edge_partition(g: Graph, x: int, y: int) -> EdgePartition:
    """Partition the vertices by which of x, y they are nearer to.

    Defined for any distinct pair, adjacent or not; callers that need an
    actual edge must check adjacency themselves.
    """
    for v in (x, y):
        if not 0 <= v < g.n:
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    if x == y:
        raise SelfLoopError("partition endpoints must differ")
    dx = distances_from(g, x)
    dy = distances_from(g, y)
    near_x, near_y, equal = [], [], []
    for v in range(g.n):
        if dx[v] < dy[v]:
            near_x.append(v)
        elif dy[v] < dx[v]:
            near_y.append(v)
        else:
            equal.append(v)
    return EdgePartition(x, y, frozenset(near_x), frozenset(near_y), frozenset(equal))


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
