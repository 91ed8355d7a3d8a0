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

Canonical labels: hub 0; hub neighbors 1..m with the long/loaded spoke at
index 1 (and the second loaded spoke, for s22, at index 2); tail vertices
m+1 and m+2, where a length-3 branch runs 0-1-(m+1)-(m+2).

Small orders make families coincide (P_4 is s2 with m=2; P_5 is both s22
and s3 with m=2; the m=2 broom equals s2 with m=3).  Classification
resolves overlaps with the fixed precedence star > s2 > s22 > s3 > broom.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (
    EmptySpecError,
    NotATreeError,
    ParameterTooSmallError,
    UnsupportedFamilyError,
)
from .graph import Graph, from_edge_list, is_connected


class FamilyTag(str, Enum):
    STAR = "star"
    S2 = "s2"
    S22 = "s22"
    S3 = "s3"
    BROOM = "broom"
    DOMINANT = "dominant"  # connected non-tree with a degree n-1 vertex
    OTHER = "other"


@dataclass(frozen=True)
class StarlikeSpec:
    """Branch lengths of a starlike tree, e.g. (3, 1, 1)."""

    branches: tuple[int, ...]

    @classmethod
    def from_text(cls, text: str) -> "StarlikeSpec":
        """Parse "3,1^4" style syntax: comma-separated lengths, optional ^multiplicity."""
        branches: list[int] = []
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
            branches.extend([length] * mult)
        if not branches:
            raise EmptySpecError("no branches given")
        return cls(tuple(branches))

    @property
    def order(self) -> int:
        return sum(self.branches) + 1


@dataclass(frozen=True)
class TreeFamily:
    """Classification of a tree: the family tag, the hub degree m, and the
    permutation taking input labels to canonical labels (None for OTHER)."""

    tag: FamilyTag
    m: int
    relabeling: tuple[int, ...] | None


class FamilyRow(NamedTuple):
    order_offset: int  # n - m
    min_m: int  # the smallest m with a canonical tree
    verify_min_m: int  # the smallest m >= 1 whose canonical tree classifies as this family


# The one family table, in classification precedence.  Below verify_min_m
# families coincide (P_5 is the s3 tree with m = 2 but classifies as s22),
# so `verify` starts each family there.
FAMILIES = {
    FamilyTag.STAR: FamilyRow(1, 0, 1),
    FamilyTag.S2: FamilyRow(2, 2, 2),
    FamilyTag.S22: FamilyRow(3, 2, 2),
    FamilyTag.S3: FamilyRow(3, 2, 3),
    FamilyTag.BROOM: FamilyRow(3, 3, 3),
}


def canonical_family_tree(tag: FamilyTag, m: int) -> Graph:
    """The canonically labeled tree of a recognized family."""
    if tag not in FAMILIES:
        raise UnsupportedFamilyError(f"{tag.value} has no canonical tree")
    if m < FAMILIES[tag].min_m:
        raise ParameterTooSmallError(f"{tag.value} needs m >= {FAMILIES[tag].min_m}, got {m}")
    spokes = [(0, i) for i in range(1, m + 1)]
    if tag is FamilyTag.STAR:
        return from_edge_list(m + 1, spokes)
    if tag is FamilyTag.S2:
        return from_edge_list(m + 2, spokes + [(1, m + 1)])
    if tag is FamilyTag.S22:
        return from_edge_list(m + 3, spokes + [(1, m + 1), (2, m + 2)])
    if tag is FamilyTag.S3:
        return from_edge_list(m + 3, spokes + [(1, m + 1), (m + 1, m + 2)])
    return from_edge_list(m + 3, spokes + [(1, m + 1), (1, m + 2)])


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
    counts = Counter(branches)
    m = len(branches)
    named = None
    if set(counts) == {1}:
        named = FamilyTag.STAR
    elif set(counts) <= {1, 2} and counts[2] == 1:
        named = FamilyTag.S2
    elif set(counts) <= {1, 2} and counts[2] == 2:
        named = FamilyTag.S22
    elif set(counts) <= {1, 3} and counts[3] == 1:
        named = FamilyTag.S3
    if named is not None and m >= FAMILIES[named].min_m:
        return canonical_family_tree(named, m)
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
    and is rejected to keep the families disjoint.
    """
    if m < 3:
        raise ParameterTooSmallError(f"broom needs m >= 3, got {m}")
    return canonical_family_tree(FamilyTag.BROOM, m)


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and is_connected(g)


def _finish_perm(t: Graph, hub: int, m: int, special: dict[int, int]) -> tuple[int, ...]:
    """Permutation sending hub to 0, pre-assigned vertices per ``special``,
    and the remaining hub neighbors to the lowest free spoke slots in
    ascending input order."""
    perm = [-1] * t.n
    perm[hub] = 0
    for vertex, label in special.items():
        perm[vertex] = label
    free = iter(sorted(set(range(1, m + 1)) - set(special.values())))
    for v in sorted(t.neighbors(hub)):
        if perm[v] == -1:
            perm[v] = next(free)
    return tuple(perm)


def _match_star(t: Graph, hub: int, m: int) -> tuple[int, ...] | None:
    # order m+1 with hub degree m: everything else is a leaf on the hub
    return _finish_perm(t, hub, m, {})


def _match_s2(t: Graph, hub: int, m: int) -> tuple[int, ...] | None:
    hub_adj = t.adj[hub]
    outside = [v for v in range(t.n) if v != hub and not hub_adj >> v & 1]
    if len(outside) != 1:
        return None
    tail = outside[0]
    if t.degree(tail) != 1:
        return None
    carrier = next(t.neighbors(tail))
    if not hub_adj >> carrier & 1 or t.degree(carrier) != 2:
        return None
    return _finish_perm(t, hub, m, {carrier: 1, tail: m + 1})


def _match_s22(t: Graph, hub: int, m: int) -> tuple[int, ...] | None:
    hub_adj = t.adj[hub]
    outside = [v for v in range(t.n) if v != hub and not hub_adj >> v & 1]
    if len(outside) != 2 or any(t.degree(v) != 1 for v in outside):
        return None
    carriers = [next(t.neighbors(v)) for v in outside]
    if carriers[0] == carriers[1]:
        return None
    if any(not hub_adj >> c & 1 or t.degree(c) != 2 for c in carriers):
        return None
    pairs = sorted(zip(carriers, outside))
    return _finish_perm(t, hub, m, {
        pairs[0][0]: 1, pairs[1][0]: 2,
        pairs[0][1]: m + 1, pairs[1][1]: m + 2,
    })


def _match_s3(t: Graph, hub: int, m: int) -> tuple[int, ...] | None:
    hub_adj = t.adj[hub]
    outside = [v for v in range(t.n) if v != hub and not hub_adj >> v & 1]
    if len(outside) != 2:
        return None
    by_degree = sorted(outside, key=t.degree)
    tip, mid = by_degree
    if t.degree(tip) != 1 or t.degree(mid) != 2:
        return None
    mid_nbrs = set(t.neighbors(mid))
    if tip not in mid_nbrs:
        return None
    carrier = (mid_nbrs - {tip}).pop()
    if not hub_adj >> carrier & 1 or t.degree(carrier) != 2:
        return None
    return _finish_perm(t, hub, m, {carrier: 1, mid: m + 1, tip: m + 2})


def _match_broom(t: Graph, hub: int, m: int) -> tuple[int, ...] | None:
    hub_adj = t.adj[hub]
    outside = [v for v in range(t.n) if v != hub and not hub_adj >> v & 1]
    if len(outside) != 2 or any(t.degree(v) != 1 for v in outside):
        return None
    carriers = {next(t.neighbors(v)) for v in outside}
    if len(carriers) != 1:
        return None
    carrier = carriers.pop()
    if not hub_adj >> carrier & 1 or t.degree(carrier) != 3:
        return None
    a, b = sorted(outside)
    return _finish_perm(t, hub, m, {carrier: 1, a: m + 1, b: m + 2})


_MATCHERS = {
    FamilyTag.STAR: _match_star,
    FamilyTag.S2: _match_s2,
    FamilyTag.S22: _match_s22,
    FamilyTag.S3: _match_s3,
    FamilyTag.BROOM: _match_broom,
}


def classify_tree(t: Graph) -> TreeFamily:
    """Identify the family of a tree and the relabeling to canonical form.

    m is the maximum degree.  Families are tried in precedence order; the
    hub is the smallest-index maximum-degree vertex that matches the family
    pattern.  Trees with maximum degree below n-3 classify as OTHER.
    """
    if not is_tree(t):
        raise NotATreeError("input is not a tree (connected with n-1 edges)")
    if t.n == 1:
        return TreeFamily(FamilyTag.STAR, 0, (0,))
    degs = t.degrees()
    m = max(degs)
    if m < t.n - 3:
        return TreeFamily(FamilyTag.OTHER, m, None)
    hubs = [v for v in range(t.n) if degs[v] == m]
    for tag, row in FAMILIES.items():  # precedence for overlapping small orders
        if t.n != m + row.order_offset or m < row.min_m:
            continue
        for hub in hubs:
            perm = _MATCHERS[tag](t, hub, m)
            if perm is not None:
                return TreeFamily(tag, m, perm)
    return TreeFamily(FamilyTag.OTHER, m, None)
