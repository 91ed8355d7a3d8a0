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

Candidates can be partitioned into batches and checked by a thread pool;
results are merged in enumeration order, so witnesses are bit-identical
to the single-threaded run.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator

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
_DEADLINE_STRIDE = 512
_BATCH_SIZE = 1024

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
    threads: worker threads for candidate checking (1 = run in-line).
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
    explored: number of candidate graphs actually tested.
    mode_used: the prune mode that produced the result.
    """

    min_additions: int
    witnesses: tuple[Witness, ...]
    explored: int
    mode_used: str


def _balanced_with(adj: tuple[int, ...], added: Witness) -> bool:
    """Whether the adjacency rows ``adj`` plus the edges ``added`` are balanced."""
    rows = list(adj)
    for u, v in added:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _transmission_regular(rows)


def _regular_additions(degrees: list[int], comp: list[Edge], r: int,
                       k: int) -> Iterator[Witness]:
    """k-subsets of ``comp`` (lex order) raising every degree to exactly r."""
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

    def rec(start: int, need: int) -> Iterator[Witness]:
        if need == 0:
            yield tuple(chosen)
            return
        for i in range(start, m - need + 1):
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


def _scan_serial(candidates: Iterable[Witness], check: Callable[[Witness], bool],
                 all_witnesses: bool, deadline: float | None):
    hits: list[Witness] = []
    tested = 0
    for cand in candidates:
        tested += 1
        if check(cand):
            hits.append(cand)
            if not all_witnesses:
                return hits, tested, False
        if (deadline is not None and tested % _DEADLINE_STRIDE == 0
                and time.monotonic() > deadline):
            return hits, tested, True
    return hits, tested, False


def _scan_batches(candidates: Iterable[Witness], check: Callable[[Witness], bool],
                  all_witnesses: bool, deadline: float | None,
                  pool: ThreadPoolExecutor):
    hits: list[Witness] = []
    tested = 0
    while True:
        batch = list(islice(candidates, _BATCH_SIZE))
        if not batch:
            return hits, tested, False
        flags = list(pool.map(check, batch))
        tested += len(batch)
        for cand, ok in zip(batch, flags):
            if ok:
                hits.append(cand)
                if not all_witnesses:
                    return hits, tested, False
        if deadline is not None and time.monotonic() > deadline:
            return hits, tested, True


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
    check = partial(_balanced_with, g.adj)

    explored = 0
    exhausted = -1
    pool = (ThreadPoolExecutor(max_workers=config.threads) if config.threads > 1
            else None)
    try:
        for k in range(k_cap + 1):
            if progress is not None:
                progress.current_k = k
            if config.prune_mode == "regular":
                r = _regular_target(g.n, g.edge_count, k, max_deg)
                if r is None:
                    # no regular graph with this many edges: provably empty level
                    exhausted = k
                    continue
                candidates: Iterable[Witness] = _regular_additions(degrees, comp, r, k)
            else:
                candidates = combinations(comp, k)
            if pool is None:
                hits, tested, timed_out = _scan_serial(
                    candidates, check, config.all_witnesses, deadline)
            else:
                hits, tested, timed_out = _scan_batches(
                    candidates, check, config.all_witnesses, deadline, pool)
            explored += tested
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
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


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
    """How many k-subsets of the complement edges balance ``g`` (exact count)."""
    if not is_connected(g):
        raise DisconnectedGraphError("count requires a connected graph")
    comp = complement_edges(g)
    if not 0 <= k <= len(comp):
        raise ValueError(f"k must lie in 0..{len(comp)}, got {k}")
    return sum(map(partial(_balanced_with, g.adj), combinations(comp, k)))
