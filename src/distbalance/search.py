"""Exhaustive computation of the minimum number of edge additions that make
a graph distance-balanced.

Iterative deepening over the number k of added edges: level k enumerates
the k-subsets of the complement edges in lexicographic order, so the first
witness found is canonical and minimality is guaranteed by construction.
The complete graph is distance-balanced, hence the search always
terminates when no cap is set.

The optional "regular" prune mode only tests candidates that are regular.
It is legal on inputs of maximum degree at least n-3 or diameter at most
2, and refused elsewhere.  There every balanced supergraph is regular: it
keeps the maximum degree, so the paper's theorem applies, or it has
diameter at most 2 and transmissions 2(n-1) - deg.  Every degree-feasible
candidate is balanced too: r-regular with r >= n-3, it has 2r > n-2 for
n >= 5, so two non-adjacent vertices share a neighbour, and for n <= 4 it
is K1, K2, K3, C4 or K4; either way, like any supergraph of a diameter-2
graph, it has diameter at most 2 and every transmission 2(n-1) - r.  For a
fixed k the handshake identity pins r = 2(|E|+k)/n, so most levels are
skipped without enumerating anything, and the first candidate a level
yields is its witness; it is still balance-tested, as an independent check.

A naive search for the first witness prunes by orderly generation (Read 1978;
McKay, J. Algorithms 26 (1998)).  It takes a few automorphisms of the
input, which map witnesses to witnesses:

- for a tree, the branch swaps of its rooted canonical code (Aho, Hopcroft
  and Ullman 1974): the swap of two label-adjacent sibling subtrees with
  equal codes, and the swap of the two halves of a bicentral tree whose
  halves are equal.  These generate the automorphism group and include
  every swap of two twin leaves;
- for any other graph, the swaps of label-adjacent twins, vertices with
  the same neighbours, adjacent to each other (true twins) or not (false
  twins).

A set of added edges is dropped when one of these automorphisms maps it to
a lexicographically smaller set.  The lex-first witness is the minimum of
its orbit, so it is never dropped, and the first witness and the minimum
are those of the plain scan.  The test is hereditary: when it drops a
prefix of a k-subset, every extension of that prefix by larger edges is
dropped too, so the naive mode walks the k-subsets depth first and drops a
prefix together with its whole lex subtree.  Each automorphism is tested
alone, not the whole group, so some non-minimal members of an orbit are
still tested: the m = 6 star balance-tests 325 of its 2^15 candidates,
which fall into 156 orbits.  The order-7 spider with three legs of length
2 has no twins; labelled with legs 0-1-2, 0-3-4 and 0-5-6, its two leg
swaps leave 3,999 balance tests of the 19,274 candidates up to its first
witness.  ``all_witnesses`` scans without it.

Every level runs in this process, in lex order.  In naive mode
``explored`` counts the candidates in lex order up to and including the
first hit, dropped ones included (the earlier levels' sizes plus the
hit's lex rank + 1), so it does not depend on the pruning.  In regular
mode it counts the degree-feasible candidates enumerated, which is 1 for
a first witness.
"""

from __future__ import annotations

import time
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .analysis import _transmission_regular
from .errors import (
    DisconnectedGraphError,
    GraphTooLargeError,
    PruneModeUnjustifiedError,
    SearchBudgetError,
)
from .graph import Graph, _bits, _levels, complement_edges, diameter, is_connected

MAX_SEARCH_VERTICES = 64
# naive-mode enumeration nodes (dropped ones too), or regular-mode steps,
# per clock read
_DEADLINE_STRIDE = 512
# bound on the packed image tables, which take about 2 W^2 bits per
# permutation for W - 1 complement edges: 4 MiB, or 4 of the m = 63 star's 62
_MAX_TABLE_BITS = 1 << 25

Edge = tuple[int, int]
Witness = tuple[Edge, ...]


class SearchConfig(NamedTuple):
    """Knobs for the exhaustive search.

    prune_mode: "naive" tests every subset, "regular" restricts to regular
        candidates (see module docstring for when that is legal).
    max_k: stop after exhausting this many added edges (>= 0).
    all_witnesses: collect every minimal witness instead of the first.
    time_budget: wall-clock seconds before giving up with a certified bound
        (> 0).
    Out-of-range values are refused with ValueError, not clamped.
    """

    prune_mode: str = "naive"
    max_k: int | None = None
    all_witnesses: bool = False
    time_budget: float | None = None


class SearchResult(NamedTuple):
    """Outcome of a completed search.

    min_additions: smallest number of edges whose addition balances the input.
    witnesses: added-edge sets of that size (first = lexicographically
        smallest; all of them when requested).
    explored: candidates in enumeration order up to and including the first
        witness (the whole last level with all_witnesses): every k-subset
        in lex order in naive mode, the degree-feasible ones in regular
        mode, where a first witness is the first of them.
    mode_used: the prune mode that produced the result.
    """

    min_additions: int
    witnesses: tuple[Witness, ...]
    explored: int
    mode_used: str


class _Expired(Exception):
    """The deadline passed inside the regular-mode enumeration."""


def _regular_additions(degrees: list[int], comp: list[Edge], r: int, k: int,
                       deadline: float | None) -> Iterator[tuple[int, ...]]:
    """Index sets of the k-subsets of ``comp`` (lex order) raising every
    degree to exactly r.

    A depth-first walk with an explicit stack, so k is not bounded by the
    interpreter's recursion limit.  It backtracks at position i once a
    vertex's deficit exceeds its candidate edges at positions >= i.  None
    does at position 0, tested once before the walk, and taking an edge
    lowers its ends' deficits and counts together; so only a passed-over
    edge can leave a vertex short, one of its own ends, and the record of
    position i >= 1 is edge i - 1 with its ends' counts at positions >= i.
    The walk reads the clock at its first step and every _DEADLINE_STRIDE
    steps after, and raises _Expired once ``deadline``, if not None, has
    passed.
    """
    deficit = [r - d for d in degrees]
    left = [0] * len(degrees)
    for u, w in comp:
        left[u] += 1
        left[w] += 1
    if sum(deficit) != 2 * k or not all(0 <= d <= c for d, c in zip(deficit, left)):
        return
    m = len(comp)
    records = [(0, 0, m, m)]  # position 0 passed the test above
    for u, w in comp:
        left[u] -= 1
        left[w] -= 1
        records.append((u, w, left[u], left[w]))
    chosen: list[int] = []
    steps = 0
    i = 0
    while True:
        need = k - len(chosen)
        if not need:
            yield tuple(chosen)
        elif i <= m - need:
            if deadline is not None:
                if not steps % _DEADLINE_STRIDE and time.monotonic() > deadline:
                    raise _Expired
                steps += 1
            a, b, left_a, left_b = records[i]
            if deficit[a] <= left_a and deficit[b] <= left_b:
                u, w = comp[i]
                if deficit[u] and deficit[w]:
                    deficit[u] -= 1
                    deficit[w] -= 1
                    chosen.append(i)
                i += 1
                continue
            # else an end of edge i - 1 can no longer be saturated: backtrack
        if not chosen:
            return
        i = chosen.pop()
        u, w = comp[i]
        deficit[u] += 1
        deficit[w] += 1
        i += 1


def _twin_swaps(adj: tuple[int, ...]) -> list[tuple[int, int]]:
    """Transpositions (a, b), a < b, of twins of the adjacency rows ``adj``.

    a and b are false twins when their rows are equal and true twins when
    their closed rows (the row plus the vertex itself) are; swapping twins
    is an automorphism of any graph.  Each twin class gives the swaps of its
    label-adjacent members, which generate the symmetric group on it.
    """
    classes: dict[tuple[bool, int], list[int]] = {}
    for v, row in enumerate(adj):
        classes.setdefault((False, row), []).append(v)
        classes.setdefault((True, row | 1 << v), []).append(v)
    return sorted(pair for members in classes.values()
                  for pair in zip(members, members[1:]))


def _tree_branch_swaps(adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Vertex permutations generating the automorphism group of the tree
    with adjacency rows ``adj``.

    The tree is rooted at its centre, or at both ends of its central edge,
    and each vertex gets an id for its rooted subtree's canonical code.  The
    centre is the middle of a longest path a..b, a farthest from vertex 0
    and b from a: three ``graph._levels`` sweeps give the vertices d // 2
    from one end and d - d // 2 from the other, d = d(a, b).  For each
    vertex in BFS order from the root, the children with equal ids give the
    swaps of the subtrees of their label-adjacent members; a bicentral tree
    whose halves have equal ids adds the swap of the halves.
    """
    n = len(adj)
    from_a = _levels(adj, _levels(adj, 0)[-1].bit_length() - 1)
    from_b = _levels(adj, from_a[-1].bit_length() - 1)
    d = len(from_a) - 1
    centre = from_a[d // 2] & from_b[d - d // 2] | from_a[d - d // 2] & from_b[d // 2]
    roots = list(_bits(centre))
    order, seen = roots.copy(), centre
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order:  # BFS; the list grows while it is read
        children[v] = list(_bits(adj[v] & ~seen))
        seen |= adj[v]
        order.extend(children[v])
    code = [0] * n
    ids: dict[tuple[int, ...], int] = {}
    for v in reversed(order):
        code[v] = ids.setdefault(tuple(sorted(code[c] for c in children[v])),
                                 len(ids))

    def swap(x: int, y: int) -> tuple[int, ...]:
        # pair the children of matched vertices in order of their codes
        perm = list(range(n))
        pairs = [(x, y)]
        for a, b in pairs:
            perm[a], perm[b] = b, a
            pairs.extend(zip(sorted(children[a], key=code.__getitem__),
                             sorted(children[b], key=code.__getitem__)))
        return tuple(perm)

    swaps = []
    for v in order:
        classes: dict[int, list[int]] = {}
        for c in children[v]:
            classes.setdefault(code[c], []).append(c)
        for members in classes.values():
            swaps.extend(swap(x, y) for x, y in zip(members, members[1:]))
    if len(roots) == 2 and code[roots[0]] == code[roots[1]]:
        swaps.append(swap(*roots))
    return swaps


def _generators(g: Graph) -> list[tuple[int, ...]]:
    """The automorphisms the search prunes by, as vertex permutations: the
    branch swaps of a tree, the twin swaps of any other connected graph."""
    if g.edge_count == g.n - 1:  # connected, so a tree
        return _tree_branch_swaps(g.adj)
    perms = []
    for a, b in _twin_swaps(g.adj):
        perm = list(range(g.n))
        perm[a], perm[b] = b, a
        perms.append(tuple(perm))
    return perms


class _ImageTables(NamedTuple):
    """Where some vertex permutations send each complement edge, packed into
    one integer per edge index, so that one test covers every permutation.

    With N complement edges, permutation j owns the field of bits j*W to
    j*W + N, W = N + 1: bit j*W + x stands for edge index x and bit j*W + N
    is the field's guard.  For an index set S with bits M and images I under
    permutation j, S is the lex-smaller of the two iff the lowest bit of
    d = M ^ I lies in M, and it survives iff d is 0 or ``M & d & -d``.
    Packed, ``held`` is the guards plus M in every field and ``image`` the
    images I: d = held ^ image has the guard as its lowest bit in a field
    where M = I, so S survives every permutation iff the lowest bit of each
    field of d lies in ``held``.  The fields are never 0, so d - ``ones``
    borrows inside each field and d ^ (d & (d - ones)) is those lowest bits.
    """

    reps: list[int]  # bit i in every field
    cols: list[int]  # per field, the bit of the image of edge i
    guards: int
    ones: int


def _image_tables(perms: list[tuple[int, ...]], comp: list[Edge]) -> _ImageTables:
    """The packed tables of ``perms``, or of as many of the first ones as
    fit _MAX_TABLE_BITS; leaving a permutation out only prunes less."""
    width = len(comp) + 1
    perms = perms[:_MAX_TABLE_BITS // (2 * width * width)]
    index = {e: i for i, e in enumerate(comp)}
    offsets = range(0, width * len(perms), width)
    ones = sum(1 << off for off in offsets)
    cols = [sum(1 << (off + index[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])])
                for off, p in zip(offsets, perms)) for u, v in comp]
    return _ImageTables([ones << i for i in range(len(comp))], cols,
                        ones << len(comp), ones)


def _lex_rank(prefix: Sequence[int], n_comp: int, k: int) -> int:
    """How many k-subsets of range(n_comp) come, in lex order, before every
    one that starts with ``prefix`` (the combinatorial number system)."""
    rank, prev = 0, -1
    for j, c in enumerate(prefix):
        rank += comb(n_comp - prev - 1, k - j) - comb(n_comp - c, k - j)
        prev = c
    return rank


def _naive_level(adj: tuple[int, ...], comp: list[Edge], k: int,
                 tables: _ImageTables, deadline: float | None,
                 all_witnesses: bool) -> tuple[list[tuple[int, ...]], int, bool]:
    """Balance-test the k-subsets of ``comp`` in lex order, depth first.

    Each chosen edge is set in the rows in place and cleared on backtrack.
    A prefix that a permutation of ``tables`` maps lex-smaller is dropped
    with its whole subtree; callers that want every witness pass tables of
    no permutation.  The clock is read before every _DEADLINE_STRIDE-th node
    visited.

    Returns the hits as index sets, the level's lex count and whether the
    deadline passed.  The count runs up to and including the first hit
    (the whole level without one, or with ``all_witnesses``); on a timeout
    it is the number of subsets before the node being visited.
    """
    n_comp = len(comp)
    rows = list(adj)
    if not k:
        return ([()] if _transmission_regular(rows) else []), 1, False
    flips = [(u, 1 << u, v, 1 << v) for u, v in comp]
    reps, cols, ones = tables.reps, tables.cols, tables.ones
    held, image = tables.guards, 0
    hits: list[tuple[int, ...]] = []
    chosen: list[int] = []
    visited = i = 0
    last = k - 1
    while True:
        depth = len(chosen)
        if depth == last:  # the leaves, in a loop of their own: most nodes are leaves
            for i in range(i, n_comp):
                if (deadline is not None and not visited % _DEADLINE_STRIDE
                        and time.monotonic() > deadline):
                    return hits, _lex_rank(chosen + [i], n_comp, k), True
                visited += 1
                leaf = held ^ reps[i]
                d = leaf ^ image ^ cols[i]
                low = d ^ (d & (d - ones))
                if low & leaf != low:
                    continue  # a permutation maps the subset lex-smaller
                u, bu, v, bv = flips[i]
                rows[u] ^= bv
                rows[v] ^= bu
                balanced = _transmission_regular(rows)
                rows[u] ^= bv
                rows[v] ^= bu
                if balanced:
                    hits.append((*chosen, i))
                    if not all_witnesses:
                        return hits, _lex_rank(hits[0], n_comp, k) + 1, False
            i = n_comp
        if i <= n_comp - k + depth:  # i can still start the rest of a subset
            if (deadline is not None and not visited % _DEADLINE_STRIDE
                    and time.monotonic() > deadline):
                return hits, _lex_rank(chosen + [i], n_comp, k), True
            visited += 1
            u, bu, v, bv = flips[i]
            rows[u] ^= bv
            rows[v] ^= bu
            held ^= reps[i]
            image ^= cols[i]
            chosen.append(i)
            d = held ^ image  # the survival test of _ImageTables
            low = d ^ (d & (d - ones))
            if low & held == low:
                i += 1
                continue
            # else a permutation maps the prefix lex-smaller: drop its subtree
        elif not chosen:
            return hits, comb(n_comp, k), False
        i = chosen.pop()
        u, bu, v, bv = flips[i]
        rows[u] ^= bv
        rows[v] ^= bu
        held ^= reps[i]
        image ^= cols[i]
        i += 1


def _regular_level(adj: tuple[int, ...], comp: list[Edge],
                   candidates: Iterator[tuple[int, ...]],
                   all_witnesses: bool) -> tuple[list[tuple[int, ...]], int, bool]:
    """Balance-test the regular ``candidates``; returns the hits, the
    candidates enumerated up to and including the first hit and whether the
    enumeration expired."""
    hits: list[tuple[int, ...]] = []
    enumerated = 0
    try:
        for enumerated, cand in enumerate(candidates, 1):
            rows = list(adj)
            for i in cand:
                u, v = comp[i]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            if _transmission_regular(rows):
                hits.append(cand)
                if not all_witnesses:
                    break
    except _Expired:
        return hits, enumerated, True
    return hits, enumerated, False


def search_minimum_additions(g: Graph, config: SearchConfig = SearchConfig()) -> SearchResult:
    """Exact minimum number of edge additions that balance ``g``.

    Raises SearchBudgetError when max_k or time_budget runs out; the error
    carries the largest fully exhausted k, certifying the answer exceeds it.
    """
    if g.n > MAX_SEARCH_VERTICES:
        raise GraphTooLargeError(
            f"search supports at most {MAX_SEARCH_VERTICES} vertices, got {g.n}")
    if config.prune_mode not in ("naive", "regular"):
        raise ValueError(f"unknown prune mode {config.prune_mode!r}")
    if config.max_k is not None and config.max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {config.max_k}")
    if config.time_budget is not None and config.time_budget <= 0:
        raise ValueError(f"time_budget must be > 0, got {config.time_budget}")
    if not is_connected(g):
        raise DisconnectedGraphError("search requires a connected graph")
    degrees = g.degrees()
    max_deg = max(degrees)
    if config.prune_mode == "regular" and max_deg < g.n - 3 and diameter(g) > 2:
        raise PruneModeUnjustifiedError(
            "regular pruning needs max degree >= n-3 or diameter <= 2")

    comp = complement_edges(g)
    k_cap = len(comp) if config.max_k is None else min(config.max_k, len(comp))
    deadline = (None if config.time_budget is None
                else time.monotonic() + config.time_budget)

    if config.prune_mode == "naive":
        tables = _image_tables([] if config.all_witnesses else _generators(g), comp)
    explored = 0
    exhausted = -1
    for k in range(k_cap + 1):
        if config.prune_mode == "regular":
            # the handshake rule; k <= |comp| keeps r <= n - 1
            r, odd = divmod(2 * (g.edge_count + k), g.n)
            if odd or r < max_deg:
                # no regular graph with this many edges: provably empty level
                exhausted = k
                continue
            hits, counted, timed_out = _regular_level(
                g.adj, comp, _regular_additions(degrees, comp, r, k, deadline),
                config.all_witnesses)
        else:
            hits, counted, timed_out = _naive_level(
                g.adj, comp, k, tables, deadline, config.all_witnesses)
        explored += counted
        if timed_out:
            raise SearchBudgetError(
                f"time budget exhausted inside level k={k}", exhausted, explored)
        if hits:
            witnesses = tuple(tuple(comp[i] for i in hit) for hit in hits)
            return SearchResult(k, witnesses, explored, config.prune_mode)
        exhausted = k
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetError(
                f"time budget exhausted after level k={k}", exhausted, explored)
    raise SearchBudgetError(
        f"no witness with at most {k_cap} added edges", exhausted, explored)
