"""Exhaustive computation of the minimum number of edge additions that make
a graph distance-balanced.

Iterative deepening over the number k of added edges, so the first witness
found is minimal; the complete graph is balanced, so the search ends when
no cap is set.  The naive mode walks the k-subsets of the complement edges
depth first, in lexicographic order, and prunes by orderly generation
(Read 1978; McKay, J. Algorithms 26 (1998)) with a few automorphisms of
the input, which map witnesses to witnesses:

- for a tree, the branch swaps of its rooted canonical code (Aho, Hopcroft
  and Ullman 1974): the swap of two label-adjacent sibling subtrees with
  equal codes, and the swap of the two halves of a bicentral tree whose
  halves are equal.  These generate the automorphism group;
- for any other graph, the swaps of label-adjacent twins: vertices with
  the same neighbours, adjacent (true twins) or not (false twins).

A set of added edges is dropped when one of these automorphisms maps it to
a lexicographically smaller set.  The lex-first witness is the minimum of
its orbit, so the first witness and the minimum are those of the plain
scan.  The test is hereditary, so a dropped prefix drops its whole lex
subtree.  Each automorphism is tested alone, not the whole group.
``all_witnesses`` walks every level pruned and rescans the witness level
without the automorphisms.

The naive walk also cuts by domination, an elementary necessary condition
that does not rest on the paper's theorem.  Call x dominated when it has a
neighbour y with N[x] a proper subset of N[y]; then the graph is not
balanced.  Proof: for any w != x, a shortest x-w path leaves x through
some z in N(x), which lies in N[y], so d(y, w) <= 1 + d(z, w) = d(x, w);
only x is closer to x than to y, while y and each vertex of N[y] - N[x]
are closer to y.  (A pendant vertex is the special case.)  Added edges
that miss x leave N[x] as it is and only grow N[y], so a dominated vertex
of the graph of a prefix stays dominated in every completion whose later
edges all miss it.  So a prefix with more dominated vertices than twice
the edges still to pick is dropped, the next edge is picked only up to
the last complement edge that touches each dominated vertex, and a last
edge must touch all of them.

It cuts by a transmission floor too, which does not rest on the paper's
theorem either.  Lemma F: let H be connected and H' a balanced graph on
the same vertices that contains H; then every vertex v has
deg_H'(v) >= f(H) = 2(n-1) - D_H(u), for any vertex u, D the
transmission.  Proof: H' is transmission-regular with some value t
(Jerebic, Klavzar and Rall 2008); the non-neighbours of v are at distance
at least 2, so t = D_H'(v) >= 2(n-1) - deg_H'(v), and adding edges never
makes a distance longer, so t = D_H'(u) <= D_H(u).  One BFS from a vertex
of maximum degree gives f; a prefix graph with a vertex more than the
edges still to pick below it, or below it by more than twice them in all,
has no balanced completion, and a vertex below it must be touched by a
later edge, like a dominated one.  A level whose input the floor rules out
is skipped, and counted whole.

Every witness survives both rules, so the witnesses, their order and
``explored`` are unchanged.  The m = 6 star balance-tests 325 of its 2^15
candidates under the automorphisms alone, which fall into 156 orbits, and
2 under all three rules: the centre dominates every spoke that is not yet
joined to all the others, and the floor, 6 at the star, skips every level
below 15.

The "regular" mode is legal on inputs of maximum degree at least n-3 and
refused elsewhere.  There every balanced supergraph keeps that degree, so
by the paper's theorem it is r-regular with r >= n-3, and every such
completion is balanced: with 2r > n-2 for n >= 5, two non-adjacent
vertices share a neighbour, and for n <= 4 it is K1, K2, K3, C4 or K4; so
it has diameter at most 2 and every transmission 2(n-1) - r.  The
handshake identity pins r = 2(|E|+k)/n, so most levels are skipped.  A
completion is K_n minus an s-factor S of the complement, s = n-1-r <= 2,
so the walk runs over the at most n pairs of S, and the first completion
it tests is the witness.  It is still balance-tested, as an independent
check: a completion that fails raises GraphError.

``explored`` counts, in naive mode, the candidates in lex order up to and
including the first hit, dropped ones included, so it does not depend on
the pruning; in regular mode, the completions tested, 1 for a first
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
from .graph import Graph, _bits, _levels, complement_edges, is_connected

MAX_SEARCH_VERTICES = 64
# walk nodes per clock read, dropped ones and passed-over edges included
_DEADLINE_STRIDE = 512
# bound on the packed image tables, which take about 2 W^2 bits per
# permutation for W - 1 complement edges: 4 MiB, or 4 of the m = 63 star's 62
_MAX_TABLE_BITS = 1 << 25

Edge = tuple[int, int]
Witness = tuple[Edge, ...]


class SearchConfig(NamedTuple):
    """Knobs for the exhaustive search.

    prune_mode: "naive" tests every subset that no automorphism maps
        lex-smaller, bar those the domination cut or the transmission
        floor shows unbalanced;
        "regular" only the regular completions, legal on inputs of max
        degree >= n-3 (see module docstring).
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
        last level with all_witnesses): k-subsets in lex order in naive
        mode, regular completions in regular mode (1 for a first witness).
    mode_used: the prune mode that produced the result.
    """

    min_additions: int
    witnesses: tuple[Witness, ...]
    explored: int
    mode_used: str


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


def _dominated(rows: list[int], among: int, by: int) -> int:
    """The vertices x in the mask ``among`` that have a neighbour y in the
    mask ``by`` with N[x] a proper subset of N[y], in the graph with
    adjacency rows ``rows``."""
    dom = 0
    while among:
        bit = among & -among
        among ^= bit
        row = rows[bit.bit_length() - 1]
        closed = row | bit
        row &= by
        while row:
            low = row & -row
            other = rows[low.bit_length() - 1] | low
            if closed & other == closed != other:
                dom |= bit
                break
            row ^= low
    return dom


class _Setup(NamedTuple):
    """What every level of a naive search shares."""

    flips: list[tuple[int, int, int, int]]  # per complement edge (u, 1 << u, v, 1 << v)
    touch: list[int]  # per vertex, the indices whose edge touches it
    dominated: int  # the input's dominated vertices


def _setup(adj: tuple[int, ...], comp: list[Edge]) -> _Setup:
    """The per-search data of ``_level`` for the rows ``adj`` and the
    complement edges ``comp``."""
    touch = [0] * len(adj)
    for j, (u, v) in enumerate(comp):
        touch[u] |= 1 << j
        touch[v] |= 1 << j
    everyone = (1 << len(adj)) - 1
    return _Setup([(u, 1 << u, v, 1 << v) for u, v in comp], touch,
                  _dominated(list(adj), everyone, everyone))


def _below_floor(rows: list[int], left: int) -> int | None:
    """The vertices of the connected graph with adjacency rows ``rows`` whose
    degree is below the transmission floor 2(n-1) - D(u), u a vertex of
    maximum degree (module docstring), or None when ``left`` more edges
    cannot lift them all to it: one of them is more than ``left`` short, or
    all together more than 2 * ``left``."""
    degrees = list(map(int.bit_count, rows))
    top = max(degrees)
    # D(u) = 2(n-1) - deg(u) + the sum over d >= 3 of (d - 2) |level d|
    floor = top - sum(d * level.bit_count() for d, level in
                      enumerate(_levels(rows, degrees.index(top))[3:], 1))
    low = min(degrees)
    if low >= floor:
        return 0
    if floor - low > left or sum(floor - d for d in degrees if d < floor) > 2 * left:
        return None
    return sum(1 << v for v, d in enumerate(degrees) if d < floor)


def _level(adj: tuple[int, ...], setup: _Setup, k: int, tables: _ImageTables,
           deadline: float | None, all_witnesses: bool,
           ) -> tuple[list[tuple[int, ...]], int, int, bool]:
    """Balance-test the k-subsets of the complement edges in lex order,
    depth first, setting each chosen edge in the rows in place.  A prefix
    that a permutation of ``tables`` maps lex-smaller is dropped with its
    whole subtree, and so is one whose completions all leave a vertex that
    must be touched untouched (module docstring).  Each node keeps a
    must-touch set: the dominated vertices and those below the floor, and
    those of its parent that its edge misses.  A level whose input has no
    balanced completion by the floor is skipped; a node with more vertices
    to touch than twice the edges left to pick, or one the floor rules
    out, is dropped; the next edge is picked only up to the last index that
    touches each of them, and a leaf is tested only when its edge touches
    all of them.  The clock is read every _DEADLINE_STRIDE nodes; a range
    that is cut is never visited.

    Returns the hits as index sets, the lex count, the leaves balance-tested
    and whether the deadline passed.  The lex count runs up to and including
    the first hit (the whole level without one, or with ``all_witnesses``);
    on a timeout it is the number of subsets before the node being visited.
    """
    flips, touch = setup.flips, setup.touch
    n_comp = len(flips)
    rows = list(adj)
    if not k:
        return ([()] if _transmission_regular(rows) else []), 1, 1, False
    short = _below_floor(rows, k)
    if short is None or (must := setup.dominated | short).bit_count() > 2 * k:
        return [], comb(n_comp, k), 0, False
    everyone = (1 << len(rows)) - 1

    def cut(must: int) -> int:
        # the largest next index that leaves an edge touching each vertex of ``must``
        last_touch = n_comp
        while must:
            low = must & -must
            last_touch = min(last_touch, touch[low.bit_length() - 1].bit_length() - 1)
            must ^= low
        return last_touch

    reps, cols, ones = tables.reps, tables.cols, tables.ones
    held, image = tables.guards, 0
    hits: list[tuple[int, ...]] = []
    chosen: list[int] = []
    musts, cuts = [must], [cut(must)]  # per depth, of the prefix graph
    visited = tested = i = 0
    last = k - 1
    while True:
        depth = len(chosen)
        if depth == last:  # the leaves, in a loop of their own: most nodes are leaves
            must = musts[-1]
            if must:  # at most 2: the indices from i on whose edge touches all of must
                cover = touch[(must & -must).bit_length() - 1] & touch[must.bit_length() - 1]
                leaves = _bits(cover >> i << i)
            else:
                leaves = range(i, n_comp)
            for i in leaves:
                if (deadline is not None and not visited % _DEADLINE_STRIDE
                        and time.monotonic() > deadline):
                    return hits, _lex_rank(chosen + [i], n_comp, k), tested, True
                visited += 1
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
        # i can still start the rest of a subset and leave an edge for each
        # vertex that must be touched
        if i <= n_comp - k + depth and i <= cuts[-1]:
            if (deadline is not None and not visited % _DEADLINE_STRIDE
                    and time.monotonic() > deadline):
                return hits, _lex_rank(chosen + [i], n_comp, k), tested, True
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
                # a vertex that the new edge misses must still be touched,
                # a dominated one it touches is tested afresh, and any other
                # can only become dominated by u or v
                ends = bu | bv
                must = musts[-1]
                stays = must & ends
                must = must & ~ends | _dominated(rows, (rows[u] | rows[v]) & ~must, ends)
                if stays:
                    must |= _dominated(rows, stays, everyone)
                left = k - 1 - depth
                if must.bit_count() <= 2 * left:
                    short = _below_floor(rows, left)
                    if short is not None:
                        must |= short
                        if must.bit_count() <= 2 * left:
                            musts.append(must)
                            cuts.append(cut(must))
                            i += 1
                            continue
            # else a permutation maps the prefix lex-smaller, or a vertex
            # cannot be touched or lifted to the floor: drop its subtree
        elif chosen:
            musts.pop()
            cuts.pop()
        else:
            return hits, comb(n_comp, k), tested, False
        i = chosen.pop()
        u, bu, v, bv = flips[i]
        rows[u] ^= bv
        rows[v] ^= bu
        held ^= reps[i]
        image ^= cols[i]
        i += 1


def _regular_level(adj: tuple[int, ...], comp: list[Edge], r: int, deadline: float | None,
                   all_witnesses: bool) -> tuple[list[tuple[int, ...]], int, bool]:
    """Balance-test the r-regular completions of the rows ``adj``, r < n:
    K_n minus an s-factor S of the complement ``comp``, s = n-1-r.

    Depth first, the lowest vertex that still needs pairs takes a partner,
    largest first; the partners it passes over leave S in that branch, so S
    comes out in descending lex order and the added pairs, ``comp`` minus
    S, in ascending lex order, as _level meets them.  A vertex with no
    partner to spare takes them all; a branch ends once one has fewer than
    it needs.  The clock is read every _DEADLINE_STRIDE nodes, the first
    one included.  Returns the hits as index sets into ``comp``, the
    completions tested and whether the deadline passed.
    """
    n = len(adj)
    full = (1 << n) - 1
    hits: list[tuple[int, ...]] = []
    tested = visited = 0

    def walk(free: list[int], taken: list[int], need: list[int], pairs: list) -> bool:
        nonlocal tested, visited  # a True return stops the walk
        if (deadline is not None and not visited % _DEADLINE_STRIDE
                and time.monotonic() > deadline):
            return True
        visited += 1
        while True:  # each (u, w, 1) in ``pairs`` joins S, each (u, w, 0) leaves it
            for u, w, joins in pairs:
                for a, b in (u, w), (w, u):
                    free[a] ^= 1 << b
                    taken[a] ^= joins << b
                    need[a] -= joins
            needy = sum(1 << v for v in range(n) if need[v])
            spare = {(free[v] & needy).bit_count() - need[v]: v for v in _bits(needy)}
            if min(spare, default=0) < 0:
                return False
            if 0 not in spare:
                break
            pairs = [(spare[0], w, 1) for w in _bits(free[spare[0]] & needy)]
        if not needy:  # S is complete
            tested += 1
            if _transmission_regular([full ^ 1 << v ^ t for v, t in enumerate(taken)]):
                hits.append(tuple(i for i, (a, b) in enumerate(comp) if not taken[a] >> b & 1))
            return bool(hits) and not all_witnesses
        u = (needy & -needy).bit_length() - 1
        partners = list(_bits(free[u] & needy))
        for j in range(len(partners) - need[u], -1, -1):
            pairs = [(u, x, 0) for x in partners[:j]] + [(u, partners[j], 1)]
            if walk(free.copy(), taken.copy(), need.copy(), pairs):
                return True
        return False

    free = [full ^ row ^ 1 << v for v, row in enumerate(adj)]  # pairs that may join S
    stopped = walk(free, [0] * n, [n - 1 - r] * n, [])  # and those of S
    return hits, tested, stopped and (all_witnesses or not hits)


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
    max_deg = g.max_degree()
    regular = config.prune_mode == "regular"
    if regular and max_deg < g.n - 3:
        raise PruneModeUnjustifiedError("regular pruning needs max degree >= n-3")

    comp = complement_edges(g)
    k_cap = len(comp) if config.max_k is None else min(config.max_k, len(comp))
    deadline = (None if config.time_budget is None
                else time.monotonic() + config.time_budget)

    if not regular:
        tables, setup = _image_tables(_generators(g), comp), _setup(g.adj, comp)
    explored = 0
    exhausted = -1
    for k in range(k_cap + 1):
        if regular:
            r, odd = divmod(2 * (g.edge_count + k), g.n)
            if odd or r < max_deg:  # no regular supergraph has this many edges
                exhausted = k
                continue
            hits, tested, timed_out = _regular_level(g.adj, comp, r, deadline,
                                                     config.all_witnesses)
            explored += tested
        else:
            hits, lex, _, timed_out = _level(g.adj, setup, k, tables, deadline, False)
            if hits and config.all_witnesses:  # rescan it without the automorphisms
                hits, lex, _, timed_out = _level(
                    g.adj, setup, k, _image_tables([], comp), deadline, True)
            explored += lex
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
