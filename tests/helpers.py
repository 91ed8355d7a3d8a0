"""Shared test utilities: exhaustive small-graph and tree enumeration,
a census of small trees' closures, seeded random corpora, and brute-force
isomorphism checking.

Everything here is an oracle of last resort, deliberately independent of
the package's own algorithms wherever feasible.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from itertools import combinations, permutations

from hypothesis import strategies as st

from distbalance import Graph, from_edge_list, is_connected, search_minimum_additions
from distbalance.closure import _additions
from distbalance.graph import _ball_sweep

# known counts of unlabeled trees, used to self-check the enumerator
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


def all_connected_graphs(n: int) -> list[Graph]:
    """All labeled connected graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = from_edge_list(n, edges)
        if is_connected(g):
            out.append(g)
    return out


def bfs_distances(n: int, edges, source: int) -> list[int | None]:
    """Hop distances from ``source`` by a plain queue BFS over an edge list;
    None marks an unreachable vertex."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    dist: list[int | None] = [None] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@functools.cache
def distance_table(g: Graph) -> list[list[int | None]]:
    """``bfs_distances`` from every source.  Cached per graph, since several
    tests walk the same exhaustive corpus; callers must not mutate it."""
    edges = g.edges()
    return [bfs_distances(g.n, edges, v) for v in range(g.n)]


@functools.cache
def edge_balance_oracle(g: Graph) -> list[tuple[int, int, int, int]]:
    """(x, y, |closer to x|, |closer to y|) for every edge in lexicographic
    order, from the per-edge definition and ``distance_table`` alone.
    Cached like it; callers must not mutate the list."""
    rows = distance_table(g)
    return [(x, y,
             sum(dx < dy for dx, dy in zip(rows[x], rows[y])),
             sum(dy < dx for dx, dy in zip(rows[x], rows[y])))
            for x, y in g.edges()]


def partition(g: Graph, x: int, y: int) -> tuple[set[int], set[int], set[int]]:
    """The vertices nearer x than y, nearer y than x and equidistant, for
    any distinct pair, from ``bfs_distances`` alone."""
    edges = g.edges()
    dx, dy = bfs_distances(g.n, edges, x), bfs_distances(g.n, edges, y)
    return ({v for v in range(g.n) if dx[v] < dy[v]},
            {v for v in range(g.n) if dy[v] < dx[v]},
            {v for v in range(g.n) if dx[v] == dy[v]})


def plain_check_oracle(g: Graph) -> tuple[bool, tuple[int, int] | None, int]:
    """(balanced, worst edge, diameter) as a plain ``check`` reports them,
    from ``edge_balance_oracle`` and ``distance_table`` alone: the worst edge
    is the first record with the largest gap, None when every gap is 0."""
    records = edge_balance_oracle(g)
    gaps = [abs(cx - cy) for _, _, cx, cy in records]
    top = max(gaps, default=0)
    worst = records[gaps.index(top)][:2] if top else None
    return top == 0, worst, max(map(max, distance_table(g)))


def naive_search_oracle(g: Graph) -> tuple[int, tuple, int]:
    """(k, first witness, lex count) of a plain exhaustive search: the
    k-subsets of the missing edges in lexicographic order, k = 0, 1, ...,
    each decided by the per-edge definition on ``bfs_distances`` rows; the
    lex count is the number of subsets up to and including the witness."""
    edges = g.edges()
    present = set(edges)
    missing = [p for p in combinations(range(g.n), 2) if p not in present]
    count = 0
    for k in range(len(missing) + 1):
        for added in combinations(missing, k):
            count += 1
            full = edges + list(added)
            rows = {}
            for x, y in full:
                for v in (x, y):
                    if v not in rows:
                        rows[v] = bfs_distances(g.n, full, v)
                closer_x = sum(a < b for a, b in zip(rows[x], rows[y]))
                closer_y = sum(b < a for a, b in zip(rows[x], rows[y]))
                if closer_x != closer_y:
                    break
            else:
                return k, added, count
    raise AssertionError("the complete graph is distance-balanced")


def _tree_centers(g: Graph) -> list[int]:
    """Iterative leaf stripping down to the 1- or 2-vertex core."""
    degree = g.degrees()
    remaining = set(range(g.n))
    leaves = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for leaf in leaves:
            remaining.discard(leaf)
            for u in g.neighbors(leaf):
                if u in remaining:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        leaves = nxt
    return sorted(remaining)


def tree_canonical_key(g: Graph):
    """Isomorphism-invariant key for a tree (rooted encoding at the centers)."""

    def encode(v: int, parent: int):
        return tuple(sorted(encode(u, v) for u in g.neighbors(v) if u != parent))

    centers = _tree_centers(g)
    if len(centers) == 1:
        return ("c", encode(centers[0], -1))
    a, b = centers
    return ("b", *sorted((encode(a, b), encode(b, a))))


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism, by leaf extension."""
    level = [from_edge_list(1, [])]
    for size in range(2, n + 1):
        seen = {}
        for t in level:
            base = t.edges()
            for v in range(t.n):
                g = from_edge_list(size, base + [(v, size - 1)])
                key = tree_canonical_key(g)
                if key not in seen:
                    seen[key] = g
        level = list(seen.values())
    return level


def tree_census(n: int) -> tuple[int, list, int]:
    """Every tree on n vertices (``all_trees``) under the naive search, which
    uses no theorem: the number of trees, the sorted (max degree, minimum,
    closed form) of those whose minimum is not the closed form at their
    maximum degree, and the number with 2f >= n-1 (Lemma M's domain, see
    the README's family survey), f = 2(n-1) - min D.  Asserts f <= Delta on
    every tree."""
    trees, exceptions, covered = all_trees(n), [], 0
    for t in trees:
        delta = t.max_degree()
        found = search_minimum_additions(t).min_additions
        if found != _additions(n, delta, n - 1):
            exceptions.append((delta, found, _additions(n, delta, n - 1)))
        f = 2 * (n - 1) - min(_ball_sweep(t.adj)[0])
        assert f <= delta
        covered += 2 * f >= n - 1
    return len(trees), sorted(exceptions), covered


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism check; fine for n <= 8."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    target = set(h.edges())
    g_edges = g.edges()
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in target
               for u, v in g_edges):
            return True
    return False


def prism_graph() -> Graph:
    return from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                              (0, 3), (1, 4), (2, 5)])


def three_diamonds() -> Graph:
    """The one balanced non-regular graph on at most 9 vertices: three
    diamonds (K_4 - e) joined tip to tip around a triangle."""
    return from_edge_list(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5),
                              (2, 5), (3, 4), (3, 6), (4, 6), (5, 7), (5, 8),
                              (6, 7), (6, 8), (7, 8)])


def petersen_graph() -> Graph:
    """The Petersen graph: 3-regular on 10 vertices, diameter 2."""
    return from_edge_list(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def complete_minus(n: int, pairs) -> Graph:
    """K_n without the given pairs (each as (u, v) with u < v)."""
    missing = set(pairs)
    return from_edge_list(n, [p for p in combinations(range(n), 2) if p not in missing])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def connected_graph_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    """Random connected graphs with an edge-probability sweep, seeded."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(4, max_n)
        p = rng.uniform(0.12, 0.9)
        edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
        g = from_edge_list(n, edges)
        if is_connected(g):
            graphs.append(g)
    return graphs


def random_regular_graph(n: int, r: int, rng: random.Random,
                         tries: int = 5) -> Graph | None:
    """Connected r-regular graph: circulant base randomized by double-edge
    swaps (each swap preserves all degrees)."""
    if r >= n or (n * r) % 2:
        return None
    base = set()
    for off in range(1, r // 2 + 1):
        for v in range(n):
            u, w = v, (v + off) % n
            base.add((min(u, w), max(u, w)))
    if r % 2:
        half = n // 2
        for v in range(half):
            base.add((v, v + half))
    for _ in range(tries):
        edges = set(base)
        edge_list = list(base)
        for _ in range(10 * len(edge_list)):
            i = rng.randrange(len(edge_list))
            j = rng.randrange(len(edge_list))
            if i == j:
                continue
            a, b = edge_list[i]
            c, d = edge_list[j]
            if rng.random() < 0.5:
                c, d = d, c
            if len({a, b, c, d}) < 4:
                continue
            e1 = (min(a, c), max(a, c))
            e2 = (min(b, d), max(b, d))
            if e1 in edges or e2 in edges:
                continue
            edges.remove(edge_list[i])
            edges.remove(edge_list[j])
            edges.add(e1)
            edges.add(e2)
            edge_list[i] = e1
            edge_list[j] = e2
        g = from_edge_list(n, edges)
        if is_connected(g):
            return g
    return None


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 10):
    """Hypothesis strategy: random tree plus extra edges, always connected."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pool = [p for p in combinations(range(n), 2) if p not in set(edges)]
    if pool:
        extras = draw(st.lists(st.sampled_from(pool), unique=True,
                               max_size=len(pool)))
        edges.extend(extras)
    return from_edge_list(n, edges)


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 12):
    """Hypothesis strategy: random labeled tree via parent attachment."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return from_edge_list(n, edges)
