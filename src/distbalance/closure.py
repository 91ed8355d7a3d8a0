"""Minimal distance-balanced closures for the recognized tree families.

A distance-balanced closure of G is a distance-balanced supergraph on the
same vertices with the minimum possible number of extra edges.  For a
connected G with n vertices, |E| edges and maximum degree d >= n-3 that
minimum has one closed form,

    r*n/2 - |E|,   r the least degree >= d with r*n even,

in two steps.  Lower bound: a distance-balanced supergraph has maximum
degree >= d >= n-3, so it is regular (the paper's theorem), of a degree
>= d whose product with n is even (the handshake identity), and it has at
least r*n/2 edges.  Upper bound: K_n minus an s-factor, s = n-1-r <= 2,
that avoids G is an r-regular supergraph of diameter <= 2, so every
transmission is r + 2(n-1-r) = 2(n-1) - r and it is distance-balanced.

Every closure is built one way: r from d, then K_n minus a factor S,
cleared from full bit rows in the input's labels.  For a tree (|E| = n-1)
the family table ``trees.FAMILIES`` lists S per family on the canonical
labels of ``trees``, mapped to the input's through the classifier's
vertex order.  Where its cycles degenerate (s22 with m=2, s3
with m in {3,4}) S is what the first r-regular completion of the regular
walk (``search._regular_level``) leaves out, found on the input in its
own labels; the walk visits only the pairs a completion leaves out, so
its speed does not hang on the labeling.  An unbalanced completion
raises GraphError in the walk, and finding none raises it here.  A
connected non-tree with a dominant (degree n-1) vertex is the one
non-tree input handled here: r = n-1, S is empty and the closure is K_n.
The input's diameter comes from the classifier's BFS levels on a tree
(``graph._tree_sweep``), else from degrees: at most one BFS per op.
The about C(n, 2) added pairs are read off near-full rows as the runs
between a few gaps: by ``graph._upper_pairs`` here, and as text, one
``join`` per run with the gaps walked inline, by ``graph._pair_text``.

Every result carries a computational certificate; minimality beyond the
certified edge count is the search module's job.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DisconnectedGraphError,
    GraphError,
    UnsupportedFamilyError,
)
from .graph import (
    Graph,
    _ball_sweep,
    _tree_sweep,
    _upper_pairs,
    complement_edges,
    is_connected,
    is_spanning_subgraph,
    regular_degree,
)
from .search import _regular_level
from .trees import FAMILIES, FamilyTag, TreeFamily, _classified


class Certificate(NamedTuple):
    """Computed facts about a candidate closure of an input graph."""

    contains_input: bool
    distance_balanced: bool
    diameter: int
    regular_degree: int | None
    matches_formula: bool | None

    @property
    def failed(self) -> list[str]:
        """The fields whose check fails, in field order."""
        passed = (self.contains_input, self.distance_balanced, self.diameter <= 2,
                  self.regular_degree is not None, self.matches_formula is not False)
        return [name for name, held in zip(self._fields, passed) if not held]

    @property
    def ok(self) -> bool:
        """Containment, balance, regularity, diameter <= 2, and the edge count."""
        return not self.failed


class ClosureResult(NamedTuple):
    closure: Graph
    added_edges: tuple[tuple[int, int], ...]
    min_additions: int
    certificate: Certificate
    family: TreeFamily
    via_search: bool


def _additions(n: int, degree: int, edges: int) -> int:
    """r*n/2 - edges, r the least degree >= ``degree`` with r*n even."""
    r = degree + degree * n % 2
    return r * n // 2 - edges


def minimum_additions_formula(family: TreeFamily) -> int:
    """Minimum number of added edges for a recognized tree family: r*n/2 - (n-1)."""
    row = FAMILIES.get(family.tag)  # neither OTHER nor DOMINANT has a row
    if row is None:
        raise UnsupportedFamilyError(f"no closed form for family {family.tag.value!r}")
    n = family.m + row.order_offset
    return _additions(n, family.m, n - 1)


def verify_closure(t: Graph, candidate: Graph,
                   expected_additions: int | None = None) -> Certificate:
    """Certificate for an arbitrary candidate closure of ``t``.

    ``matches_formula`` compares the candidate's extra edge count against
    ``expected_additions`` when given, else stays None.  On a dense candidate
    (2 delta >= n - 1 or a dominant vertex, checked on its own rows) D and the
    diameter come from its own degrees, not from the construction, the family
    table or the paper's theorem.
    """
    contains = is_spanning_subgraph(t, candidate)  # refuses unequal vertex counts
    transmissions, diam, _ = _ball_sweep(candidate.adj)
    matches = None
    if expected_additions is not None:
        matches = candidate.edge_count - t.edge_count == expected_additions
    return Certificate(
        contains_input=contains,
        distance_balanced=len(set(transmissions)) == 1,  # transmission-regular
        diameter=diam,
        regular_degree=regular_degree(candidate),
        matches_formula=matches,
    )


def _certified_closure(t: Graph) -> tuple[Graph, TreeFamily, Certificate, bool, int]:
    """The closure of ``construct_closure`` with its family, certificate,
    ``via_search`` and the input's diameter, without the list of added edges."""
    if t.edge_count == t.n - 1:  # the classifier refuses a disconnected one
        family, vertex, levels = _classified(t)
        if family.tag is FamilyTag.OTHER:
            raise UnsupportedFamilyError(
                f"classification is {FamilyTag.OTHER.value!r}: max degree "
                f"{family.m} is below n-3 = {t.n - 3}")
        removed = FAMILIES[family.tag].removed(family.m)
        diam = _tree_sweep(t.adj, levels)[1]  # the classifier's BFS, no second one
    elif t.max_degree() == t.n - 1:
        family = TreeFamily(FamilyTag.DOMINANT, t.n - 1, tuple(range(t.n)))
        removed, vertex = [], range(t.n)
        diam = _ball_sweep(t.adj)[1]  # from the degrees: 1 on K_n, else 2
    elif not is_connected(t):  # the one route where connectivity is still unknown
        raise DisconnectedGraphError("closure construction requires a connected graph")
    else:
        raise UnsupportedFamilyError(
            "only trees with max degree >= n-3 and graphs with a "
            "dominant vertex are supported")
    n, r = t.n, family.m + family.m * t.n % 2  # the degree of _additions
    if removed is None:
        # degenerate cycles: S is what the walk's first completion leaves out
        comp = complement_edges(t)
        hits, _, _ = _regular_level(t.adj, comp, r, None, False)
        if not hits:
            raise GraphError(f"no {r}-regular completion avoids the input")
        pairs = [pair for i, pair in enumerate(comp) if i not in hits[0]]
    else:
        pairs = [(vertex[a], vertex[b]) for a, b in removed]
    rows = [((1 << n) - 1) ^ (1 << v) for v in range(n)]  # K_n
    for u, v in pairs:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    closure = Graph(n, tuple(rows), sum(map(int.bit_count, rows)) // 2)
    certificate = verify_closure(t, closure, _additions(n, family.m, t.edge_count))
    return closure, family, certificate, removed is None, diam


def construct_closure(t: Graph) -> ClosureResult:
    """Minimal distance-balanced closure of a recognized tree (or of a
    connected graph with a dominant vertex, which closes to K_n).

    Raises UnsupportedFamilyError for any other connected graph, and for a
    disconnected one NotATreeError (n - 1 edges) or DisconnectedGraphError.
    The certificate is always computed on the way out.
    """
    closure, family, certificate, via_search, _ = _certified_closure(t)
    added = tuple(_upper_pairs([row & ~old for row, old in zip(closure.adj, t.adj)]))
    return ClosureResult(
        closure=closure,
        added_edges=added,
        min_additions=len(added),
        certificate=certificate,
        family=family,
        via_search=via_search,
    )
