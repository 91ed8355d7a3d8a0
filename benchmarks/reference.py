"""Independent graph generators and reference answers for the benchmark.

Nothing in this module imports distbalance.  Every value the benchmark
checks an answer against comes from here: closed forms, the paper's table
of minimum added edges, or a plain adjacency-list BFS.  Graphs are given
as (n, edges) with each edge a pair (u, v), u < v.
"""

from __future__ import annotations

import random
from itertools import combinations

Edge = tuple[int, int]

FAMILIES = ("star", "s2", "s22", "s3", "broom")
_ORDER_OFFSET = {"star": 1, "s2": 2, "s22": 3, "s3": 3, "broom": 3}


def pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------- generators

def complete(n: int) -> tuple[int, list[Edge]]:
    return n, list(combinations(range(n), 2))


def cycle(n: int) -> tuple[int, list[Edge]]:
    return n, sorted(pair(i, (i + 1) % n) for i in range(n))


def hypercube(d: int) -> tuple[int, list[Edge]]:
    n = 1 << d
    return n, [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]


def torus(a: int, b: int) -> tuple[int, list[Edge]]:
    """The Cartesian product C_a x C_b (a, b >= 3); vertex (i, j) is i*b + j."""
    edges = set()
    for i in range(a):
        for j in range(b):
            edges.add(pair(i * b + j, (i + 1) % a * b + j))
            edges.add(pair(i * b + j, i * b + (j + 1) % b))
    return a * b, sorted(edges)


def family_tree(tag: str, m: int) -> tuple[int, list[Edge]]:
    """Hub 0 with spokes 1..m, plus the family's extra vertices m+1, m+2."""
    edges = [(0, i) for i in range(1, m + 1)]
    extra = {
        "star": [],
        "s2": [(1, m + 1)],
        "s22": [(1, m + 1), (2, m + 2)],
        "s3": [(1, m + 1), (m + 1, m + 2)],
        "broom": [(1, m + 1), (1, m + 2)],
    }[tag]
    return m + _ORDER_OFFSET[tag], edges + extra


def random_tree(n: int, rng: random.Random) -> tuple[int, list[Edge]]:
    """A uniformly random labeled tree on n >= 2 vertices, from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append(pair(leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append(pair(u, w))
    return n, sorted(edges)


def random_connected(n: int, extra: int, rng: random.Random) -> tuple[int, list[Edge]]:
    """A random tree on n vertices plus ``extra`` distinct random chords."""
    _, edges = random_tree(n, rng)
    present = set(edges)
    while len(present) < n - 1 + extra:
        u, v = rng.sample(range(n), 2)
        present.add(pair(u, v))
    return n, sorted(present)


def dominant_graph(n: int, extra: int, rng: random.Random) -> tuple[int, list[Edge]]:
    """A star K_{1,n-1} on hub 0 plus ``extra`` random chords between spokes."""
    present = {(0, i) for i in range(1, n)}
    while len(present) < n - 1 + extra:
        u, v = rng.sample(range(1, n), 2)
        present.add(pair(u, v))
    return n, sorted(present)


def relabeled(n: int, edges: list[Edge], rng: random.Random) -> list[Edge]:
    """The edges under a random vertex permutation, in random order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ reference math

def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source``; -1 marks an unreachable vertex."""
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def edge_counts(n: int, edges) -> list[tuple[Edge, int, int]]:
    """Per-edge (edge, |closer to u|, |closer to v|) by the definition."""
    adj = adjacency(n, edges)
    rows: dict[int, list[int]] = {}
    out = []
    for u, v in edges:
        for x in (u, v):
            if x not in rows:
                rows[x] = bfs(adj, x)
        du, dv = rows[u], rows[v]
        cu = sum(a < b for a, b in zip(du, dv))
        cv = sum(b < a for a, b in zip(du, dv))
        out.append(((u, v), cu, cv))
    return out


def szeged_by_definition(n: int, edges) -> int:
    return sum(cu * cv for _, cu, cv in edge_counts(n, edges))


def balanced_by_definition(n: int, edges) -> bool:
    return all(cu == cv for _, cu, cv in edge_counts(n, edges))


def szeged_complete(n: int) -> int:
    return n * (n - 1) // 2


def szeged_cycle(n: int) -> int:
    # every edge leaves floor(n/2) vertices strictly on each side
    return n * (n // 2) ** 2


def szeged_hypercube(d: int) -> int:
    # d * 2^(d-1) edges, each splitting Q_d into two halves of 2^(d-1)
    return d * 2 ** (d - 1) * 4 ** (d - 1)


def szeged_torus(a: int, b: int) -> int:
    # an edge along C_a splits by the C_a coordinate alone, and vice versa
    return a * b * ((a // 2) * b) ** 2 + a * b * ((b // 2) * a) ** 2


def szeged_tree(n: int, edges) -> int:
    """The Wiener sum over edges of s * (n - s), s the size of one side."""
    adj = adjacency(n, edges)
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for u in order:
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return sum(size[u] * (n - size[u]) for u in order[1:])


def transmission_regular(n: int, edges) -> bool:
    """Connected and every vertex has the same distance sum, which for a
    connected graph is equivalent to being distance-balanced."""
    adj = adjacency(n, edges)
    sums = set()
    for v in range(n):
        dist = bfs(adj, v)
        if -1 in dist:
            return False
        sums.add(sum(dist))
    return len(sums) == 1


def min_additions(tag: str, m: int) -> int:
    """The paper's table: minimum added edges for a family tree with hub degree m."""
    if tag == "star":
        return m * (m - 1) // 2
    if tag == "s2":
        return m * m // 2 - 1 if m % 2 == 0 else m * (m + 1) // 2
    if tag in ("s22", "s3", "broom"):
        return (m * m + m - 4) // 2
    raise ValueError(f"no closed form for {tag!r}")


def closure_fault(n: int, edges, added, expected: int) -> str | None:
    """Why input + added is not a minimal balanced closure, or None.

    A regular graph of diameter at most 2 has the same distance sum
    2(n-1) - r at every vertex, so it is distance-balanced.
    """
    base = {pair(u, v) for u, v in edges}
    extra = set()
    for u, v in added:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return f"added pair ({u}, {v}) is not a vertex pair"
        e = pair(u, v)
        if e in base or e in extra:
            return f"added edge {e} is already present"
        extra.add(e)
    if len(extra) != expected:
        return f"{len(extra)} added edges, table says {expected}"
    nbr = [1 << v for v in range(n)]
    for u, v in base | extra:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    if len({row.bit_count() for row in nbr}) != 1:
        return "closure is not regular"
    full = (1 << n) - 1
    for v in range(n):
        reach = 0
        row = nbr[v]
        while row:
            low = row & -row
            reach |= nbr[low.bit_length() - 1]
            row ^= low
        if reach != full:
            return f"closure has diameter > 2 at vertex {v}"
    return None


def classify(n: int, edges) -> tuple[str, int]:
    """(family, hub degree) of a tree of max degree >= n-3, else ("other", max degree).

    Overlapping small orders resolve in the order star, s2, s22, s3, broom.
    """
    adj = adjacency(n, edges)
    m = max(len(a) for a in adj)
    if len(edges) != n - 1 or m < n - 3 or -1 in bfs(adj, 0):
        return "other", m
    found = set()
    for hub in (v for v in range(n) if len(adj[v]) == m):
        near = set(adj[hub]) | {hub}
        outside = [v for v in range(n) if v not in near]
        if not outside:
            found.add("star")
        elif len(outside) == 1:
            found.add("s2")
        elif outside[1] in adj[outside[0]]:
            found.add("s3")
        elif set(adj[outside[0]]) == set(adj[outside[1]]):
            found.add("broom")
        else:
            found.add("s22")
    return next(tag for tag in FAMILIES if tag in found), m


def search_minimum(n: int, edges) -> int:
    """Smallest k such that some k non-edges make the graph distance-balanced.

    A plain exhaustive search, independent of distbalance; small n only.
    """
    present = {pair(u, v) for u, v in edges}
    missing = [e for e in combinations(range(n), 2) if e not in present]
    base = sorted(present)
    for k in range(len(missing) + 1):
        for added in combinations(missing, k):
            if transmission_regular(n, base + list(added)):
                return k
    raise ValueError("graph is not connected")
