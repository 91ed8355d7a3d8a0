"""Closed-form closures, their formulas, and certificates."""

import random

import pytest

import helpers
from distbalance import (
    DisconnectedGraphError,
    FamilyTag,
    GraphError,
    NotATreeError,
    SizeMismatchError,
    TreeFamily,
    UnsupportedFamilyError,
    broom,
    canonical_family_tree,
    classify_tree,
    complete_graph,
    construct_closure,
    cycle_graph,
    from_edge_list,
    minimum_additions_formula,
    path_graph,
    relabel,
    verify_closure,
)
from distbalance.graph import _bits
from distbalance.trees import FAMILIES as FAMILY_TABLE

FAMILIES = [FamilyTag.STAR, FamilyTag.S2, FamilyTag.S22, FamilyTag.S3, FamilyTag.BROOM]


def fam(tag, m):
    return TreeFamily(tag, m, None)


class TestFormula:
    @pytest.mark.parametrize("m,expected", [(3, 3), (4, 6), (5, 10)])
    def test_star(self, m, expected):
        assert minimum_additions_formula(fam(FamilyTag.STAR, m)) == expected

    @pytest.mark.parametrize("m,expected", [(2, 1), (3, 6), (4, 7), (5, 15), (6, 17)])
    def test_s2(self, m, expected):
        assert minimum_additions_formula(fam(FamilyTag.S2, m)) == expected

    @pytest.mark.parametrize("tag", [FamilyTag.S22, FamilyTag.S3, FamilyTag.BROOM])
    @pytest.mark.parametrize("m,expected", [(3, 4), (4, 8), (5, 13), (6, 19)])
    def test_order_plus3_families(self, tag, m, expected):
        assert minimum_additions_formula(fam(tag, m)) == expected

    @pytest.mark.parametrize("m", range(2, 101))
    def test_formula_matches_regular_edge_count(self, m):
        # an m-regular graph on m+3 vertices has m(m+3)/2 edges; the tree has m+2
        assert minimum_additions_formula(fam(FamilyTag.S22, m)) == \
            m * (m + 3) // 2 - (m + 2)

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            minimum_additions_formula(fam(FamilyTag.OTHER, 3))
        with pytest.raises(UnsupportedFamilyError):
            minimum_additions_formula(fam(FamilyTag.DOMINANT, 5))


class TestConstruct:
    def test_star_closes_to_complete(self):
        res = construct_closure(canonical_family_tree(FamilyTag.STAR, 3))
        assert res.closure == complete_graph(4)
        assert res.min_additions == 3
        assert res.certificate.ok
        assert not res.via_search

    def test_s22_m3_is_k33(self):
        res = construct_closure(canonical_family_tree(FamilyTag.S22, 3))
        assert res.min_additions == 4
        expected = helpers.complete_minus(6, [(1, 2), (2, 3), (1, 3), (0, 4), (0, 5), (4, 5)])
        assert res.closure == expected
        assert helpers.are_isomorphic(res.closure, helpers.complete_bipartite(3, 3))
        assert res.certificate.regular_degree == 3
        assert res.certificate.diameter == 2

    def test_s2_even_matching_choice(self):
        res = construct_closure(canonical_family_tree(FamilyTag.S2, 4))
        assert res.min_additions == 7
        assert res.closure == helpers.complete_minus(6, [(0, 5), (1, 2), (3, 4)])
        assert res.certificate.regular_degree == 4
        assert res.certificate.diameter == 2

    def test_s2_odd_closes_to_complete(self):
        res = construct_closure(canonical_family_tree(FamilyTag.S2, 3))
        assert res.closure == complete_graph(5)
        assert res.min_additions == 6

    def test_s3_small_m_falls_back_to_search(self):
        res = construct_closure(canonical_family_tree(FamilyTag.S3, 3))
        assert res.via_search
        assert res.min_additions == 4
        assert res.certificate.regular_degree == 3
        assert helpers.are_isomorphic(res.closure, helpers.prism_graph())

    def test_s3_m4_fallback(self):
        res = construct_closure(canonical_family_tree(FamilyTag.S3, 4))
        assert res.via_search
        assert res.min_additions == 8
        assert res.certificate.ok

    def test_fallback_disagreeing_with_formula_raises(self, monkeypatch):
        """The regular walk's balance test is the degenerate route's check:
        no balanced completion of the formula's degree, or an unbalanced
        one tested before the first balanced one, raises GraphError."""
        import distbalance.closure as closure
        import distbalance.search as search

        tree = canonical_family_tree(FamilyTag.S3, 3)  # 4 completions, r = 3
        with monkeypatch.context() as patch:
            patch.setattr(closure, "_regular_level", lambda adj, comp, r, deadline, every:
                          ([], 0, False))
            with pytest.raises(GraphError, match="no 3-regular completion avoids the input"):
                construct_closure(tree)

        real, calls = search._transmission_regular, []

        def first_fails(rows):
            calls.append(rows)
            return len(calls) > 1 and real(rows)

        monkeypatch.setattr(search, "_transmission_regular", first_fails)
        with pytest.raises(GraphError,
                           match="3-regular completion with k=4 added edges not balanced"):
            construct_closure(tree)

    def test_p5_fallback_gives_five_cycle(self):
        res = construct_closure(path_graph(5))
        assert res.via_search
        assert res.family.tag is FamilyTag.S22 and res.family.m == 2
        assert res.min_additions == 1
        assert res.closure == cycle_graph(5)

    def test_broom_same_closure_as_s22(self):
        res = construct_closure(broom(3))
        assert res.min_additions == 4
        assert helpers.are_isomorphic(res.closure, helpers.complete_bipartite(3, 3))

    def test_relabeled_input_round_trips(self):
        rng = random.Random(311)
        for tag in FAMILIES:
            canonical = canonical_family_tree(tag, 4)
            perm = list(range(canonical.n))
            rng.shuffle(perm)
            shuffled = relabel(canonical, perm)
            res = construct_closure(shuffled)
            assert res.certificate.contains_input
            assert res.certificate.ok
            assert res.min_additions == minimum_additions_formula(
                classify_tree(shuffled))
            assert set(res.closure.edges()) == \
                set(shuffled.edges()) | set(res.added_edges)

    def test_dominant_vertex_non_tree(self):
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        res = construct_closure(g)
        assert res.family.tag is FamilyTag.DOMINANT
        assert res.closure == complete_graph(5)
        assert res.min_additions == 5
        assert res.certificate.ok

    def test_unsupported_inputs(self):
        with pytest.raises(UnsupportedFamilyError):
            construct_closure(path_graph(7))  # tree with max degree < n-3
        with pytest.raises(UnsupportedFamilyError):
            construct_closure(cycle_graph(6))  # non-tree without dominant vertex
        with pytest.raises(DisconnectedGraphError):
            construct_closure(from_edge_list(4, [(0, 1), (2, 3)]))
        # n - 1 edges: the classifier's tree test is the connectivity test
        with pytest.raises(NotATreeError):
            construct_closure(from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))

    @pytest.mark.parametrize("tag", FAMILIES)
    @pytest.mark.parametrize("m", range(3, 13))
    def test_certificates_all_families(self, tag, m):
        tree = canonical_family_tree(tag, m)
        res = construct_closure(tree)
        cert = res.certificate
        assert cert.contains_input
        assert cert.distance_balanced
        assert cert.diameter <= 2
        assert cert.matches_formula
        assert res.min_additions == minimum_additions_formula(fam(tag, m))
        # the closure degree is pinned by the order and the formula
        if tag is FamilyTag.STAR:
            assert cert.regular_degree == m
        elif tag is FamilyTag.S2:
            assert cert.regular_degree == (m if m % 2 == 0 else m + 1)
        else:
            assert cert.regular_degree == m

    @pytest.mark.parametrize("tag", FAMILIES)
    @pytest.mark.parametrize("m", range(3, 13))
    def test_removed_edges_never_touch_the_tree(self, tag, m):
        tree = canonical_family_tree(tag, m)
        res = construct_closure(tree)
        removed = set(complete_graph(tree.n).edges()) - set(res.closure.edges())
        assert removed & set(tree.edges()) == set()


class TestVerifyClosure:
    def test_star_to_complete(self):
        cert = verify_closure(canonical_family_tree(FamilyTag.STAR, 3),
                              complete_graph(4), 3)
        assert cert.contains_input and cert.distance_balanced
        assert cert.matches_formula

    def test_identity_candidate(self):
        cert = verify_closure(path_graph(3), path_graph(3))
        assert cert.contains_input
        assert not cert.distance_balanced
        assert cert.matches_formula is None

    def test_s2_m4_explicit_candidate(self):
        tree = canonical_family_tree(FamilyTag.S2, 4)
        candidate = helpers.complete_minus(6, [(0, 5), (1, 2), (3, 4)])
        cert = verify_closure(tree, candidate, 7)
        assert cert.contains_input and cert.distance_balanced
        assert cert.matches_formula
        assert cert.regular_degree == 4
        assert cert.diameter == 2

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            verify_closure(path_graph(3), complete_graph(4))

    def test_wrong_expected_count(self):
        cert = verify_closure(canonical_family_tree(FamilyTag.STAR, 3),
                              complete_graph(4), 2)
        assert cert.matches_formula is False
        assert not cert.ok


def test_dominant_vertex_closure_matches_oracle():
    """The non-tree path is certified by the naive search as well."""
    from distbalance import search_minimum_additions

    g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    res = construct_closure(g)
    found = search_minimum_additions(g)
    assert res.min_additions == found.min_additions == 5


# (tree edges, the added edges of its closure, via_search).  The trees are
# relabelled family trees, so the classifier's hub and spoke order decide
# which edges the closure adds; in the degenerate case, the regular
# search's first witness in the input's labels does.
GOLDEN_CLOSURES = {
    "s2_m4": ([(0, 2), (0, 4), (1, 4), (3, 4), (4, 5)],
              [(0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5)], False),
    "s2_m5": ([(0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)],
              [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (2, 3), (2, 4), (2, 5), (2, 6),
               (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)], False),
    "s22_m3": ([(0, 2), (1, 5), (2, 3), (2, 5), (3, 4)],
               [(0, 1), (0, 4), (1, 3), (4, 5)], False),
    "s3_m5": ([(0, 2), (0, 6), (1, 5), (2, 5), (3, 5), (4, 5), (5, 7)],
              [(0, 3), (0, 4), (0, 7), (1, 3), (1, 4), (1, 6), (1, 7), (2, 3), (2, 4),
               (2, 7), (3, 6), (4, 6), (6, 7)], False),
    "broom_m3": ([(0, 3), (1, 5), (2, 3), (3, 5), (4, 5)],
                 [(0, 1), (0, 4), (1, 2), (2, 4)], False),
    "s3_m4_degenerate": ([(0, 1), (1, 2), (2, 4), (3, 4), (4, 5), (4, 6)],
                         [(0, 2), (0, 3), (0, 5), (1, 3), (1, 5), (2, 6), (3, 6),
                          (5, 6)], True),
    "dominant": ([(0, 3), (0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5)],
                 [(0, 1), (0, 2), (0, 4), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5)], False),
}


@pytest.mark.parametrize("name", GOLDEN_CLOSURES)
def test_added_edges_are_pinned(name):
    """The exact added edges of relabelled inputs, one per construction
    case, so a drift in the hub choice or the spoke order shows."""
    edges, added, via_search = GOLDEN_CLOSURES[name]
    res = construct_closure(from_edge_list(max(map(max, edges)) + 1, edges))
    assert res.added_edges == tuple(added)
    assert res.via_search is via_search
    assert res.certificate.ok


@pytest.mark.parametrize("tag", FAMILIES)
def test_added_edges_match_bits_up_to_m_200(tag):
    """The added pairs and the closure's edge list, both read from near-full
    rows, against a bit-by-bit walk, on relabelled trees up to m = 200."""
    rng = random.Random(200)
    for m in (FAMILY_TABLE[tag].verify_min_m, 9, 64, 200):
        tree = canonical_family_tree(tag, m)
        perm = list(range(tree.n))
        rng.shuffle(perm)
        t = relabel(tree, perm)
        res = construct_closure(t)
        c = res.closure
        assert res.added_edges == tuple(
            (u, v) for u in range(t.n) for v in _bits(c.adj[u] & ~t.adj[u]) if v > u)
        assert c.edges() == [(u, v) for u in range(t.n) for v in _bits(c.adj[u]) if v > u]


def test_free_tree_census_against_the_naive_search():
    """Every tree with n <= 8: the naive search, which uses no theorem,
    gives the closed form at the tree's maximum degree, whatever it is;
    f never exceeds it, and is large enough for Lemma M on the pinned
    counts (``helpers.TREE_CENSUS``; ``slow_checks.py`` runs n = 9)."""
    for n in range(1, 9):
        assert helpers.tree_census(n) == helpers.TREE_CENSUS[n]
