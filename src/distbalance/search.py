"""Exhaustive computation of the minimum number of edge additions that make
a graph distance-balanced.

Iterative deepening over the number k of added edges: level k enumerates
the k-subsets of the complement edges in lexicographic order, so the first
witness found is canonical and minimality is guaranteed by construction.
The complete graph is distance-balanced, hence the search always
terminates when no cap is set.

The optional "regular" prune mode only tests candidates that are regular.
That is sound exactly when every distance-balanced supergraph of the input
is regular, which holds for inputs of diameter at most 2 and for trees
with maximum degree at least n-3; the mode is refused elsewhere.  For a
fixed k the handshake identity pins the only possible degree to
r = 2(|E|+k)/n, so most levels are skipped without enumerating anything.

In both modes a search for the first witness skips candidates by the
twin rule, a cheap form of orderly generation (Read 1978; McKay,
J. Algorithms 26 (1998)).  Two vertices are twins when they have the same
neighbours, adjacent to each other (true twins) or not (false twins);
swapping them is an automorphism of the input, so it maps witnesses to
witnesses.  Each twin class contributes the swaps of its label-adjacent
members, and a candidate that one of these swaps maps to a
lexicographically smaller candidate is skipped before any BFS.  The
lex-first witness is the minimum of its orbit, so no swap makes it
smaller: it is never skipped, and the first witness and the minimum are
those of the plain scan.  The rule tests each generating swap alone, not
the whole group, so some non-minimal members of an orbit are still tested
(325 candidates on the m = 6 star, whose 2^15 candidates fall into 156
orbits).  ``all_witnesses`` scans without the rule, and inputs without
twins get no swaps and take the plain path.

Every level runs in this process, in lex order.  Checking a candidate is
Python computation, which a thread pool cannot overlap; worker processes
wait for a multi-CPU benchmark workload that can show their gain.
``explored`` counts the candidates in lex order up to and including the
first hit, skipped ones included, so it does not depend on
``SearchConfig.threads`` or on the twin rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .analysis import _transmission_regular
from .errors import (
    DisconnectedGraphError,
    GraphTooLargeError,
    InfeasibleDegreeError,
    PruneModeUnjustifiedError,
    SearchBudgetError,
)
from .graph import Graph, add_edges, complement_edges, diameter, is_connected
from .trees import is_tree

MAX_SEARCH_VERTICES = 64
# enumerated candidates (skipped ones too), or regular-mode recursion steps,
# per clock read
_DEADLINE_STRIDE = 512

Edge = tuple[int, int]
Witness = tuple[Edge, ...]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exhaustive search.

    prune_mode: "naive" tests every subset, "regular" restricts to regular
        candidates (see module docstring for when that is legal).
    max_k: stop after exhausting this many added edges (>= 0).
    all_witnesses: collect every minimal witness instead of the first.
    time_budget: wall-clock seconds before giving up with a certified bound
        (> 0).
    threads: accepted (>= 1) and otherwise unused: every level runs
        in-line, so results, ``explored`` included, do not depend on it.
    Out-of-range values are refused with ValueError, not clamped.
    """

    prune_mode: str = "naive"
    max_k: int | None = None
    all_witnesses: bool = False
    time_budget: float | None = None
    threads: int = 1


@dataclass
class SearchProgress:
    """Mutable slot the search updates for polling from another thread."""

    current_k: int = 0
    explored: int = 0


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a completed search.

    min_additions: smallest number of edges whose addition balances the input.
    witnesses: added-edge sets of that size (first = lexicographically
        smallest; all of them when requested).
    explored: candidates in enumeration order up to and including the first
        witness (the whole last level with all_witnesses).
    mode_used: the prune mode that produced the result.
    """

    min_additions: int
    witnesses: tuple[Witness, ...]
    explored: int
    mode_used: str


class _Expired(Exception):
    """The deadline passed inside the regular-mode recursion."""


def _regular_additions(degrees: list[int], comp: list[Edge], r: int, k: int,
                       deadline: float | None = None) -> Iterator[Witness]:
    """k-subsets of ``comp`` (lex order) raising every degree to exactly r.

    The recursion can run long without yielding, so it reads the clock
    itself, at its first step and every _DEADLINE_STRIDE steps after, and
    raises _Expired once ``deadline`` has passed.
    """
    nv = len(degrees)
    deficit = [r - d for d in degrees]
    if min(deficit, default=0) < 0 or sum(deficit) != 2 * k:
        return
    m = len(comp)
    # suffix[i][v] = candidate edges at positions >= i incident to v
    suffix = [[0] * nv]
    for u, v in reversed(comp):
        row = suffix[-1].copy()
        row[u] += 1
        row[v] += 1
        suffix.append(row)
    suffix.reverse()
    chosen: list[Edge] = []
    steps = 0

    def rec(start: int, need: int) -> Iterator[Witness]:
        nonlocal steps
        if need == 0:
            yield tuple(chosen)
            return
        for i in range(start, m - need + 1):
            if deadline is not None:
                if not steps % _DEADLINE_STRIDE and time.monotonic() > deadline:
                    raise _Expired
                steps += 1
            srow = suffix[i]
            for v in range(nv):
                if deficit[v] > srow[v]:
                    return  # some vertex can no longer be saturated
            u, w = comp[i]
            if deficit[u] and deficit[w]:
                deficit[u] -= 1
                deficit[w] -= 1
                chosen.append(comp[i])
                yield from rec(i + 1, need - 1)
                chosen.pop()
                deficit[u] += 1
                deficit[w] += 1

    yield from rec(0, k)


def _regular_target(n: int, edge_count: int, k: int, max_deg: int) -> int | None:
    """The only degree an (edge_count + k)-edge regular graph on n vertices
    can have, or None when no feasible degree exists."""
    double = 2 * (edge_count + k)
    if double % n:
        return None
    r = double // n
    if r < max_deg or r > n - 1:
        return None
    return r


def _regular_mode_justified(g: Graph) -> bool:
    return diameter(g) <= 2 or (is_tree(g) and g.max_degree() >= g.n - 3)


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


def _scan(adj: tuple[int, ...], candidates: Iterable[Witness],
          deadline: float | None, all_witnesses: bool,
          swaps: list[tuple[int, int]]) -> tuple[list[Witness], int, bool]:
    """Test ``candidates`` in order, skipping those a swap makes smaller.

    A candidate is skipped when a swap (a, b) of ``swaps`` maps it to a
    lexicographically smaller one: after the swap the two rows trade their
    bits outside {a, b}, and the smallest edge the swap moves is the one
    from a to the lowest vertex x whose bit differs, so the candidate is the
    smaller of the two iff x lies in its row of a.  The first witness is
    the minimum of its orbit and is never skipped; skipped candidates are
    not hits, so callers that want every witness pass no swaps.

    Returns the hits, the number of candidates enumerated (skipped ones
    included) and whether the deadline passed; stops at the first hit unless
    ``all_witnesses``.
    """
    filters = [(a, b, ~(1 << a | 1 << b)) for a, b in swaps]
    hits: list[Witness] = []
    enumerated = 0
    try:
        for enumerated, cand in enumerate(candidates, 1):
            rows = list(adj)
            for u, v in cand:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            for a, b, outside in filters:
                ra = rows[a] & outside
                d = ra ^ (rows[b] & outside)
                if d and not ra & d & -d:
                    break  # the swap gives a smaller candidate: skip this one
            else:
                if _transmission_regular(rows):
                    hits.append(cand)
                    if not all_witnesses:
                        break
            if (deadline is not None and not enumerated % _DEADLINE_STRIDE
                    and time.monotonic() > deadline):
                return hits, enumerated, True
    except _Expired:
        return hits, enumerated, True
    return hits, enumerated, False


def search_minimum_additions(g: Graph, config: SearchConfig = SearchConfig(),
                             progress: SearchProgress | None = None) -> SearchResult:
    """Exact minimum number of edge additions that balance ``g``.

    Raises SearchBudgetError when max_k or time_budget runs out; the error
    carries the largest fully exhausted k, certifying the answer exceeds it.
    """
    if g.n > MAX_SEARCH_VERTICES:
        raise GraphTooLargeError(
            f"search supports at most {MAX_SEARCH_VERTICES} vertices, got {g.n}")
    if config.prune_mode not in ("naive", "regular"):
        raise ValueError(f"unknown prune mode {config.prune_mode!r}")
    if config.threads < 1:
        raise ValueError(f"threads must be >= 1, got {config.threads}")
    if config.max_k is not None and config.max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {config.max_k}")
    if config.time_budget is not None and config.time_budget <= 0:
        raise ValueError(f"time_budget must be > 0, got {config.time_budget}")
    if not is_connected(g):
        raise DisconnectedGraphError("search requires a connected graph")
    if config.prune_mode == "regular" and not _regular_mode_justified(g):
        raise PruneModeUnjustifiedError(
            "regular pruning needs diameter <= 2 or a tree with max degree >= n-3")

    comp = complement_edges(g)
    degrees = g.degrees()
    max_deg = max(degrees)
    k_cap = len(comp) if config.max_k is None else min(config.max_k, len(comp))
    deadline = (None if config.time_budget is None
                else time.monotonic() + config.time_budget)

    swaps = [] if config.all_witnesses else _twin_swaps(g.adj)
    explored = 0
    exhausted = -1
    for k in range(k_cap + 1):
        if progress is not None:
            progress.current_k = k
        if config.prune_mode == "regular":
            r = _regular_target(g.n, g.edge_count, k, max_deg)
            if r is None:
                # no regular graph with this many edges: provably empty level
                exhausted = k
                continue
            candidates: Iterable[Witness] = _regular_additions(
                degrees, comp, r, k, deadline)
        else:
            candidates = combinations(comp, k)
        hits, enumerated, timed_out = _scan(g.adj, candidates, deadline,
                                            config.all_witnesses, swaps)
        explored += enumerated
        if progress is not None:
            progress.explored = explored
        if timed_out:
            raise SearchBudgetError(
                f"time budget exhausted inside level k={k}", exhausted, explored)
        if hits:
            return SearchResult(k, tuple(hits), explored, config.prune_mode)
        exhausted = k
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetError(
                f"time budget exhausted after level k={k}", exhausted, explored)
    raise SearchBudgetError(
        f"no witness with at most {k_cap} added edges", exhausted, explored)


def enumerate_regular_supergraphs(g: Graph, r: int) -> Iterator[Graph]:
    """Every r-regular supergraph of ``g`` on the same labels, exactly once,
    in lexicographic order of the added-edge sets.

    Exponential in general; intended for small graphs.
    """
    if r < g.max_degree():
        raise InfeasibleDegreeError(
            f"target degree {r} is below the max degree {g.max_degree()}")
    if r > g.n - 1:
        raise InfeasibleDegreeError(f"target degree {r} exceeds n-1 = {g.n - 1}")
    if (g.n * r) % 2:
        raise InfeasibleDegreeError(f"n*r = {g.n}*{r} must be even")
    k = (g.n * r) // 2 - g.edge_count
    comp = complement_edges(g)
    degrees = g.degrees()

    def _generate() -> Iterator[Graph]:
        for added in _regular_additions(degrees, comp, r, k):
            yield add_edges(g, added)

    return _generate()


def count_balanced_additions(g: Graph, k: int) -> int:
    """How many k-subsets of the complement edges balance ``g`` (exact count:
    every subset is tested, without the twin rule)."""
    if not is_connected(g):
        raise DisconnectedGraphError("count requires a connected graph")
    comp = complement_edges(g)
    if not 0 <= k <= len(comp):
        raise ValueError(f"k must lie in 0..{len(comp)}, got {k}")
    hits, _, _ = _scan(g.adj, combinations(comp, k), None, True, [])
    return len(hits)
