"""Exhaustive computation of the minimum number of edge additions that make
a graph distance-balanced.

Iterative deepening over the number k of added edges: level k walks the
k-subsets of the complement edges depth first, in lexicographic order, so
the first witness found is canonical and minimal by construction.  The
complete graph is balanced, so the search ends when no cap is set.

The walk prunes by orderly generation (Read 1978; McKay, J. Algorithms 26
(1998)) with a few automorphisms of the input, which map witnesses to
witnesses:

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
are those of the plain scan.  The test is hereditary: a dropped prefix of
a k-subset drops every extension by larger edges, so the walk drops its
whole lex subtree.  Each automorphism is tested alone, not the whole
group, so some non-minimal members of an orbit are still tested: the m = 6
star balance-tests 325 of its 2^15 candidates, which fall into 156 orbits.
``all_witnesses`` walks every level pruned and rescans the witness level
without pruning.

The "regular" prune mode adds a degree bound to the walk, so that it only
tests regular candidates.  It is legal on inputs of maximum degree at least
n-3 or diameter at most 2, and refused elsewhere.  There every balanced
supergraph is regular: it keeps the maximum degree, so the paper's theorem
applies, or it has diameter at most 2 and transmissions 2(n-1) - deg.
Every degree-feasible candidate is balanced too: r-regular with r >= n-3,
it has 2r > n-2 for n >= 5, so two non-adjacent vertices share a
neighbour, and for n <= 4 it is K1, K2, K3, C4 or K4; either way, like any
supergraph of a diameter-2 graph, it has diameter at most 2 and every
transmission 2(n-1) - r.  For a fixed k the handshake identity pins
r = 2(|E|+k)/n, so most levels are skipped without a walk, and the first
candidate a level tests is its witness.  It is still balance-tested, as an
independent check: a level that tests a candidate it does not accept
raises GraphError.

``explored`` counts, in naive mode, the candidates in lex order up to and
including the first hit, dropped ones included (the earlier levels' sizes
plus the hit's lex rank + 1), so it does not depend on the pruning; in
regular mode, the candidates balance-tested, which is 1 for a first
witness.
"""

from __future__ import annotations

import time
from math import comb
from typing import NamedTuple, Sequence

from .analysis import _transmission_regular
from .errors import (
    DisconnectedGraphError,
    GraphError,
    GraphTooLargeError,
    PruneModeUnjustifiedError,
    SearchBudgetError,
)
from .graph import Graph, _bits, _levels, complement_edges, diameter, is_connected

MAX_SEARCH_VERTICES = 64
# walk nodes per clock read, dropped ones and passed-over edges included
_DEADLINE_STRIDE = 512
# bound on the packed image tables, which take about 2 W^2 bits per
# permutation for W - 1 complement edges: 4 MiB, or 4 of the m = 63 star's 62
_MAX_TABLE_BITS = 1 << 25

Edge = tuple[int, int]
Witness = tuple[Edge, ...]
# deficits, and per walk position the record of the edge before it
Bound = tuple[list[int], list[tuple[int, int, int, int]]]


class SearchConfig(NamedTuple):
    """Knobs for the exhaustive search.

    prune_mode: "naive" tests every subset, "regular" restricts to regular
        candidates (see module docstring for when that is legal); both
        drop the subsets that an automorphism maps lex-smaller.
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
    explored: candidates up to and including the first witness (the whole
        last level with all_witnesses): every k-subset in lex order in naive
        mode; in regular mode the balance-tested ones, the degree-feasible
        candidates that survive the orbit prune, so 1 for a first witness.
    mode_used: the prune mode that produced the result.
    """

    min_additions: int
    witnesses: tuple[Witness, ...]
    explored: int
    mode_used: str


def _regular_bounds(degrees: list[int], comp: list[Edge], r: int, k: int) -> Bound | None:
    """The bound of the walk to the k-subsets of the complement edges
    ``comp`` that raise every degree to r, or None when no k-subset does:
    each vertex's deficit r - degree, and per position i a record.  At
    position i no deficit may exceed the vertex's candidate edges at
    positions >= i.  None does at position 0 (n - 1 - degree edges), tested
    here, and taking an edge lowers its ends' deficits and counts together;
    so only a passed-over edge can leave a vertex short, one of its own
    ends, and the record of position i >= 1 is edge i - 1 with its ends'
    counts at positions >= i.
    """
    n = len(degrees)
    deficit = [r - d for d in degrees]
    if sum(deficit) != 2 * k or not max(degrees) <= r < n:
        return None
    left = [n - 1 - d for d in degrees]
    m = len(comp)
    records = [(0, 0, m, m)]  # position 0 passed the test above
    for u, w in comp:
        left[u] -= 1
        left[w] -= 1
        records.append((u, w, left[u], left[w]))
    return deficit, records


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


def _level(adj: tuple[int, ...], comp: list[Edge], k: int, tables: _ImageTables,
           deadline: float | None, all_witnesses: bool, bound: Bound | None = None,
           ) -> tuple[list[tuple[int, ...]], int, int, bool]:
    """Balance-test the k-subsets of ``comp`` in lex order, depth first.

    Each chosen edge is set in the rows in place and cleared on backtrack.
    A prefix that a permutation of ``tables`` maps lex-smaller is dropped
    with its whole subtree.  A ``bound`` of _regular_bounds skips edges with
    a saturated end and backtracks once an end of the edge just passed can
    no longer be saturated.  The clock is read every _DEADLINE_STRIDE nodes.

    Returns the hits as index sets, the lex count, the leaves balance-tested
    and whether the deadline passed.  The lex count runs up to and including
    the first hit (the whole level without one, or with ``all_witnesses``);
    on a timeout it is the number of subsets before the node being visited.
    """
    n_comp = len(comp)
    rows = list(adj)
    if not k:
        return ([()] if _transmission_regular(rows) else []), 1, 1, False
    deficit, records = (None, None) if bound is None else (bound[0].copy(), bound[1])
    flips = [(u, 1 << u, v, 1 << v) for u, v in comp]
    reps, cols, ones = tables.reps, tables.cols, tables.ones
    held, image = tables.guards, 0
    hits: list[tuple[int, ...]] = []
    chosen: list[int] = []
    visited = tested = i = 0
    last = k - 1
    while True:
        depth = len(chosen)
        if depth == last:  # the leaves, in a loop of their own: most nodes are leaves
            for i in range(i, n_comp):
                if (deadline is not None and not visited % _DEADLINE_STRIDE
                        and time.monotonic() > deadline):
                    return hits, _lex_rank(chosen + [i], n_comp, k), tested, True
                visited += 1
                if deficit is not None:
                    u, v = comp[i]
                    if not (deficit[u] and deficit[v]):
                        continue  # an end of edge i is saturated
                leaf = held ^ reps[i]
                d = leaf ^ image ^ cols[i]
                low = d ^ (d & (d - ones))
                if low & leaf != low:
                    continue  # a permutation maps the subset lex-smaller
                u, bu, v, bv = flips[i]
                rows[u] ^= bv
                rows[v] ^= bu
                tested += 1
                balanced = _transmission_regular(rows)
                rows[u] ^= bv
                rows[v] ^= bu
                if balanced:
                    hits.append((*chosen, i))
                    if not all_witnesses:
                        return hits, _lex_rank(hits[0], n_comp, k) + 1, tested, False
            i = n_comp
        if i <= n_comp - k + depth:  # i can still start the rest of a subset
            if (deadline is not None and not visited % _DEADLINE_STRIDE
                    and time.monotonic() > deadline):
                return hits, _lex_rank(chosen + [i], n_comp, k), tested, True
            visited += 1
            u, bu, v, bv = flips[i]
            if deficit is not None:
                a, b, left_a, left_b = records[i]
                if deficit[a] > left_a or deficit[b] > left_b:
                    i = n_comp  # an end of edge i - 1 can no longer be saturated
                    continue
                if not (deficit[u] and deficit[v]):
                    i += 1  # an end of edge i is saturated
                    continue
                deficit[u] -= 1
                deficit[v] -= 1
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
            return hits, comb(n_comp, k), tested, False
        i = chosen.pop()
        u, bu, v, bv = flips[i]
        rows[u] ^= bv
        rows[v] ^= bu
        held ^= reps[i]
        image ^= cols[i]
        if deficit is not None:
            deficit[u] += 1
            deficit[v] += 1
        i += 1


def search_minimum_additions(g: Graph, config: SearchConfig = SearchConfig()) -> SearchResult:
    """Exact minimum number of edge additions that balance ``g``.

    Raises SearchBudgetError when max_k or time_budget runs out; the error
    carries the largest fully exhausted k, certifying the answer exceeds it.
    Raises GraphError when the regular mode tests an unbalanced candidate.
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
    regular = config.prune_mode == "regular"
    if regular and max(degrees) < g.n - 3 and diameter(g) > 2:
        raise PruneModeUnjustifiedError(
            "regular pruning needs max degree >= n-3 or diameter <= 2")

    comp = complement_edges(g)
    k_cap = len(comp) if config.max_k is None else min(config.max_k, len(comp))
    deadline = (None if config.time_budget is None
                else time.monotonic() + config.time_budget)

    tables = _image_tables(_generators(g), comp)
    explored = 0
    exhausted = -1
    for k in range(k_cap + 1):
        r = 2 * (g.edge_count + k) // g.n  # the only degree the handshake rule allows
        bound = _regular_bounds(degrees, comp, r, k) if regular else None
        if regular and bound is None:  # no regular supergraph has this many edges
            exhausted = k
            continue
        hits, lex, tested, timed_out = _level(g.adj, comp, k, tables, deadline, False, bound)
        if hits and config.all_witnesses:  # rescan this level unpruned
            hits, lex, tested, timed_out = _level(
                g.adj, comp, k, _image_tables([], comp), deadline, True, bound)
        explored += tested if regular else lex
        if timed_out:
            raise SearchBudgetError(
                f"time budget exhausted inside level k={k}", exhausted, explored)
        if regular and tested != len(hits):
            raise GraphError(f"regular mode: {tested - len(hits)} degree-feasible "
                             f"candidate(s) with k={k} added edges not balanced")
        if hits:
            witnesses = tuple(tuple(comp[i] for i in hit) for hit in hits)
            return SearchResult(k, witnesses, explored, config.prune_mode)
        exhausted = k
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetError(
                f"time budget exhausted after level k={k}", exhausted, explored)
    raise SearchBudgetError(
        f"no witness with at most {k_cap} added edges", exhausted, explored)
