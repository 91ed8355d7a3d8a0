"""Star-like tree families: canonical generators and a structural classifier.

A starlike tree has exactly one vertex of degree greater than two; removing
that hub leaves disjoint paths (the branches).  The families handled by the
closure constructions are the trees whose maximum degree m is within 3 of
the vertex count:

  star   K_{1,m}                    order m+1
  s2     one branch of length 2     order m+2   (branches 2,1,...,1)
  s22    two branches of length 2   order m+3   (branches 2,2,1,...,1)
  s3     one branch of length 3     order m+3   (branches 3,1,...,1)
  broom  star plus two pendants on one spoke    order m+3 (not starlike)

Canonical labels, in order: hub 0; hub neighbors 1..m, the long/loaded
spoke at 1 (s22's second one at 2); tails m+1 and m+2, where a length-3
branch runs 0-1-(m+1)-(m+2).  ``FAMILIES`` holds each family's tail
edges and its starlike branches longer than 1, which the generators read,
and the pairs its closure leaves out of K_n, which ``closure`` reads.

A tree with m >= n-3 is one of these families, and the vertices outside
a hub's closed neighbourhood say which: none is a star, one is s2, two
adjacent ones are s3, and two on one carrier (a hub neighbour) or on two
are a broom or s22.  Small orders make families coincide (P_4 is s2 with
m=2; P_5 is both s22 and s3 with m=2; the m=2 broom equals s2 with m=3),
and there the hubs see different families.  Classification resolves
these overlaps with the fixed precedence star > s2 > s22 > s3 > broom.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from typing import Callable, NamedTuple

from .errors import (
    EmptySpecError,
    NotATreeError,
    ParameterTooSmallError,
    UnsupportedFamilyError,
)
from .graph import Edge, Graph, _bits, _check_order, _levels, from_edge_list, is_connected


class FamilyTag(str, Enum):
    STAR = "star"
    S2 = "s2"
    S22 = "s22"
    S3 = "s3"
    BROOM = "broom"
    DOMINANT = "dominant"  # connected non-tree with a degree n-1 vertex
    OTHER = "other"


class StarlikeSpec(NamedTuple):
    """Branch lengths of a starlike tree, e.g. (3, 1, 1)."""

    branches: tuple[int, ...]

    @classmethod
    def from_text(cls, text: str) -> "StarlikeSpec":
        """Parse "3,1^4" style syntax: comma-separated lengths, optional ^multiplicity.

        An order above graph.MAX_VERTICES is refused before the lengths are
        expanded, so "1^10000000000" allocates nothing."""
        runs: list[tuple[int, int]] = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise EmptySpecError(f"empty branch token in {text!r}")
            length_text, _, mult_text = token.partition("^")
            try:
                length = int(length_text)
                mult = int(mult_text) if mult_text else 1
            except ValueError:
                raise ValueError(f"bad branch token {token!r}") from None
            if length < 1:
                raise ValueError(f"branch length must be positive, got {length}")
            if mult < 1:
                raise ValueError(f"branch multiplicity must be positive, got {mult}")
            runs.append((length, mult))
        _check_order(1 + sum(length * mult for length, mult in runs))
        return cls(tuple(chain.from_iterable(repeat(length, mult) for length, mult in runs)))

    @property
    def order(self) -> int:
        return sum(self.branches) + 1


class TreeFamily(NamedTuple):
    """Classification of a tree: the family tag, the hub degree m, and the
    permutation taking input labels to canonical labels (None for OTHER)."""

    tag: FamilyTag
    m: int
    relabeling: tuple[int, ...] | None


class FamilyRow(NamedTuple):
    order_offset: int  # n - m
    min_m: int  # the smallest m with a canonical tree
    verify_min_m: int  # the smallest m >= 1 whose canonical tree classifies as this family
    long_branches: tuple[int, ...] | None  # sorted starlike branches > 1; None: not starlike
    tails: Callable[[int], list[Edge]]  # m -> the canonical edges besides the spokes
    removed: Callable[[int], list[Edge] | None]  # m -> what the closure leaves out of K_n


def _cycles(*cycles) -> list[Edge]:
    return [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]


# The one family table, in classification precedence.  Below verify_min_m
# families coincide (P_5 is the s3 tree with m = 2 but classifies as s22),
# so `verify` starts each family there.  ``removed`` gives canonical pairs
# that avoid the tree: a perfect matching for s2 with m even, two cycles
# for the order m+3 families, and None where those cycles degenerate.
FAMILIES = {
    FamilyTag.STAR: FamilyRow(1, 0, 1, (), lambda m: [], lambda m: []),
    FamilyTag.S2: FamilyRow(
        2, 2, 2, (2,), lambda m: [(1, m + 1)],
        lambda m: [] if m % 2 else [(0, m + 1), *((i, i + 1) for i in range(1, m, 2))]),
    FamilyTag.S22: FamilyRow(
        3, 2, 2, (2, 2), lambda m: [(1, m + 1), (2, m + 2)],
        lambda m: _cycles(range(1, m + 1), [0, m + 1, m + 2]) if m >= 3 else None),
    FamilyTag.S3: FamilyRow(
        3, 2, 3, (3,), lambda m: [(1, m + 1), (m + 1, m + 2)],
        lambda m: _cycles(range(3, m + 1), [0, m + 1, 2, 1, m + 2]) if m >= 5 else None),
    FamilyTag.BROOM: FamilyRow(
        3, 3, 3, None, lambda m: [(1, m + 1), (1, m + 2)],
        lambda m: _cycles(range(1, m + 1), [0, m + 1, m + 2]) if m >= 3 else None),
}


def canonical_family_tree(tag: FamilyTag, m: int) -> Graph:
    """The canonically labeled tree of a recognized family."""
    if tag not in FAMILIES:
        raise UnsupportedFamilyError(f"{tag.value} has no canonical tree")
    row = FAMILIES[tag]
    if m < row.min_m:
        raise ParameterTooSmallError(f"{tag.value} needs m >= {row.min_m}, got {m}")
    # lazy, so that from_edge_list refuses an order above MAX_VERTICES first
    spokes = ((0, i) for i in range(1, m + 1))
    return from_edge_list(m + row.order_offset, chain(spokes, row.tails(m)))


def starlike(spec: StarlikeSpec) -> Graph:
    """Build the starlike tree with the given branch lengths.

    When the branch multiset matches one of the named families the canonical
    labeling above is used; otherwise branch j occupies the consecutive
    indices after branch j-1.
    """
    branches = spec.branches
    if not branches:
        raise EmptySpecError("no branches given")
    if any(length < 1 for length in branches):
        raise ValueError("branch lengths must be positive")
    _check_order(spec.order)  # before the edge list below is built
    long = tuple(sorted(length for length in branches if length > 1))
    for tag, row in FAMILIES.items():
        if row.long_branches == long and len(branches) >= row.min_m:
            return canonical_family_tree(tag, len(branches))
    edges = []
    nxt = 1
    for length in branches:
        edges.append((0, nxt))
        for i in range(nxt, nxt + length - 1):
            edges.append((i, i + 1))
        nxt += length
    return from_edge_list(spec.order, edges)


def broom(m: int) -> Graph:
    """Star on hub 0 with spokes 1..m plus two pendants on spoke 1.

    Requires m >= 3: the m=2 graph is the s2 tree with m=3 under relabeling
    and is rejected (by the family table) to keep the families disjoint.
    """
    return canonical_family_tree(FamilyTag.BROOM, m)


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and is_connected(g)


def _signature(t: Graph, hub: int,
               outside: list[int]) -> tuple[FamilyTag, list[int], list[int]]:
    """The family of a tree seen from ``hub``, a vertex of degree m >= n-3,
    with its carriers (the hub neighbours on the long branches, in canonical
    order 1, 2) and its tails (canonical m+1, m+2).

    ``outside`` lists, ascending, the n-1-m <= 2 vertices off the hub's
    closed neighbourhood.  The n-1-m tree edges that miss the hub attach
    them, which leaves these five shapes and nothing else to check.
    """
    def carrier(v: int) -> int:
        return (t.adj[v] & t.adj[hub]).bit_length() - 1

    if not outside:
        return FamilyTag.STAR, [], []
    if len(outside) == 1:
        return FamilyTag.S2, [carrier(outside[0])], outside
    a, b = outside
    if t.adj[a] >> b & 1:  # the branch hub - carrier - mid - tip
        mid, tip = (a, b) if t.adj[a] & t.adj[hub] else (b, a)
        return FamilyTag.S3, [carrier(mid)], [mid, tip]
    if carrier(a) == carrier(b):
        return FamilyTag.BROOM, [carrier(a)], outside
    (c1, v1), (c2, v2) = sorted([(carrier(a), a), (carrier(b), b)])
    return FamilyTag.S22, [c1, c2], [v1, v2]


_PRECEDENCE = {tag: rank for rank, tag in enumerate(FAMILIES)}


def classify_tree(t: Graph) -> TreeFamily:
    """Identify the family of a tree and the relabeling to canonical form.

    m is the maximum degree.  Trees with m below n-3 classify as OTHER.
    Otherwise every vertex of degree m sees one of the families from its
    closed neighbourhood.  The family that comes first in precedence order
    wins, and its smallest-index vertex is the hub.  The hub's other
    neighbours take the lowest free spoke slots in ascending input order.
    """
    return _classified(t)[0]


def _classified(t: Graph) -> tuple[TreeFamily, list[int]]:
    """``classify_tree`` and the vertex-0 BFS levels that proved ``t`` a tree."""
    levels = _levels(t.adj, 0) if t.edge_count == t.n - 1 else []
    if sum(map(int.bit_count, levels)) != t.n:
        raise NotATreeError("input is not a tree (connected with n-1 edges)")
    degs = t.degrees()
    m = max(degs)
    if m < t.n - 3:
        return TreeFamily(FamilyTag.OTHER, m, None), levels
    everyone = (1 << t.n) - 1
    found = []
    for hub in range(t.n):
        if degs[hub] == m:
            outside = list(_bits(everyone & ~t.adj[hub] & ~(1 << hub)))
            found.append((hub, *_signature(t, hub, outside)))
    # precedence settles the overlaps of small orders, then the smallest hub
    hub, tag, carriers, tails = min(found, key=lambda f: _PRECEDENCE[f[1]])
    spokes = (v for v in _bits(t.adj[hub]) if v not in carriers)
    order = [hub, *carriers, *spokes, *tails]  # the vertex of label 0, 1, ...
    perm = sorted(range(t.n), key=order.__getitem__)  # the inverse: label of vertex v
    return TreeFamily(tag, m, tuple(perm)), levels
