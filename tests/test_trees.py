"""Family generators, the branch-spec syntax, and the classifier."""

import random

import pytest
from hypothesis import given, settings

import helpers
from distbalance import (
    EmptySpecError,
    FamilyTag,
    NotATreeError,
    ParameterTooSmallError,
    StarlikeSpec,
    UnsupportedFamilyError,
    broom,
    canonical_family_tree,
    classify_tree,
    cycle_graph,
    from_edge_list,
    is_tree,
    path_graph,
    relabel,
    starlike,
)

FAMILIES = [FamilyTag.STAR, FamilyTag.S2, FamilyTag.S22, FamilyTag.S3, FamilyTag.BROOM]


class TestSpecParsing:
    def test_exponent_syntax(self):
        assert StarlikeSpec.from_text("3,1^4").branches == (3, 1, 1, 1, 1)
        assert StarlikeSpec.from_text("2,2,1^3").branches == (2, 2, 1, 1, 1)
        assert StarlikeSpec.from_text("1^4").branches == (1, 1, 1, 1)
        assert StarlikeSpec.from_text("5").branches == (5,)

    def test_order(self):
        assert StarlikeSpec.from_text("3,1^2").order == 6

    def test_bad_specs(self):
        with pytest.raises(EmptySpecError):
            StarlikeSpec.from_text("")
        with pytest.raises(ValueError):
            StarlikeSpec.from_text("0,1")
        with pytest.raises(ValueError):
            StarlikeSpec.from_text("2^0")
        with pytest.raises(ValueError):
            StarlikeSpec.from_text("x")


class TestStarlike:
    def test_all_ones_is_star(self):
        assert starlike(StarlikeSpec((1, 1, 1))) == canonical_family_tree(FamilyTag.STAR, 3)

    def test_s2_family_layout(self):
        g = starlike(StarlikeSpec((2, 1, 1, 1)))
        assert g.n == 6
        assert sorted(g.degrees(), reverse=True) == [4, 2, 1, 1, 1, 1]
        assert g == canonical_family_tree(FamilyTag.S2, 4)

    def test_s3_family_layout(self):
        g = starlike(StarlikeSpec((3, 1, 1)))
        assert g.n == 6
        assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)]

    def test_generic_layout_consecutive(self):
        g = starlike(StarlikeSpec((2, 2, 2)))
        assert g.n == 7
        assert g.edges() == [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)]

    def test_generated_graphs_are_trees(self):
        for text in ["1^3", "2,1^4", "2,2,1", "3,1^5", "4,3,2", "2"]:
            g = starlike(StarlikeSpec.from_text(text))
            assert is_tree(g)


class TestBroom:
    def test_m3_degree_sequence(self):
        g = broom(3)
        assert g.n == 6
        assert sorted(g.degrees(), reverse=True) == [3, 3, 1, 1, 1, 1]

    def test_m4_shape(self):
        g = broom(4)
        assert g.n == 7
        assert g.max_degree() == 4 == g.n - 3

    def test_m2_rejected(self):
        with pytest.raises(ParameterTooSmallError):
            broom(2)


class TestCanonicalFamilyTree:
    def test_orders(self):
        assert canonical_family_tree(FamilyTag.STAR, 5).n == 6
        assert canonical_family_tree(FamilyTag.S2, 5).n == 7
        assert canonical_family_tree(FamilyTag.S22, 5).n == 8
        assert canonical_family_tree(FamilyTag.S3, 5).n == 8
        assert canonical_family_tree(FamilyTag.BROOM, 5).n == 8

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            canonical_family_tree(FamilyTag.OTHER, 3)


class TestClassify:
    def test_star(self):
        fam = classify_tree(canonical_family_tree(FamilyTag.STAR, 5))
        assert (fam.tag, fam.m) == (FamilyTag.STAR, 5)

    def test_p4_is_s2(self):
        fam = classify_tree(path_graph(4))
        assert (fam.tag, fam.m) == (FamilyTag.S2, 2)

    def test_p5_is_s22_by_precedence(self):
        fam = classify_tree(path_graph(5))
        assert (fam.tag, fam.m) == (FamilyTag.S22, 2)

    def test_explicit_broom(self):
        g = from_edge_list(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)])
        fam = classify_tree(g)
        assert (fam.tag, fam.m) == (FamilyTag.BROOM, 4)

    def test_low_degree_tree_is_other(self):
        fam = classify_tree(path_graph(7))
        assert fam.tag is FamilyTag.OTHER
        assert fam.relabeling is None

    def test_single_vertex(self):
        fam = classify_tree(from_edge_list(1, []))
        assert (fam.tag, fam.m) == (FamilyTag.STAR, 0)

    def test_non_trees_rejected(self):
        with pytest.raises(NotATreeError):
            classify_tree(cycle_graph(4))
        with pytest.raises(NotATreeError):
            classify_tree(from_edge_list(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("tag", FAMILIES)
    @pytest.mark.parametrize("m", range(3, 13))
    def test_round_trip_generator_classifier(self, tag, m):
        t = canonical_family_tree(tag, m)
        fam = classify_tree(t)
        assert (fam.tag, fam.m) == (tag, m)
        assert relabel(t, fam.relabeling) == t  # canonical input stays put

    @pytest.mark.parametrize("tag", FAMILIES)
    def test_label_invariance(self, tag):
        rng = random.Random(7001)
        # the m=2 instance of s3 is P_5, which classifies as s22 by precedence
        lo = 3 if tag in (FamilyTag.BROOM, FamilyTag.S3) else 2
        for m in range(lo, 9):
            canonical = canonical_family_tree(tag, m)
            for _ in range(100):
                perm = list(range(canonical.n))
                rng.shuffle(perm)
                shuffled = relabel(canonical, perm)
                fam = classify_tree(shuffled)
                assert (fam.tag, fam.m) == (tag, m)
                assert relabel(shuffled, fam.relabeling) == canonical

    def test_m_equals_max_degree_of_input(self, high_degree_trees):
        for t in high_degree_trees:
            fam = classify_tree(t)
            assert fam.tag is not FamilyTag.OTHER
            assert fam.m == t.max_degree()


def test_tree_enumerator_counts():
    for n, expected in helpers.TREE_COUNTS.items():
        assert len(helpers.all_trees(n)) == expected


def test_family_exhaustiveness_up_to_9():
    """A tree has max degree >= n-3 exactly when it lies in one of the
    recognized families; exhaustive over all trees with n <= 9."""
    for n in range(1, 10):
        for t in helpers.all_trees(n):
            fam = classify_tree(t)
            high_degree = t.max_degree() >= t.n - 3
            assert high_degree == (fam.tag is not FamilyTag.OTHER)
            if fam.tag is not FamilyTag.OTHER:
                canonical = canonical_family_tree(fam.tag, fam.m)
                assert relabel(t, fam.relabeling) == canonical


@given(helpers.trees(min_n=2, max_n=12))
@settings(max_examples=150)
def test_classifier_total_on_random_trees(t):
    fam = classify_tree(t)
    if t.max_degree() >= t.n - 3:
        assert fam.tag is not FamilyTag.OTHER
        assert relabel(t, fam.relabeling) == canonical_family_tree(fam.tag, fam.m)
    else:
        assert fam.tag is FamilyTag.OTHER


def test_family_table_verify_start_is_first_self_classifying_m():
    """verify_min_m is the smallest m >= 1 at which the canonical tree
    classifies back to its own family; min_m is the smallest m with a tree."""
    from distbalance.trees import FAMILIES as TABLE

    assert list(TABLE) == FAMILIES
    for tag, row in TABLE.items():
        with pytest.raises(ParameterTooSmallError):
            canonical_family_tree(tag, row.min_m - 1)
        first = next(m for m in range(max(1, row.min_m), 10)
                     if classify_tree(canonical_family_tree(tag, m)).tag is tag)
        assert first == row.verify_min_m, tag
        assert canonical_family_tree(tag, first).n == first + row.order_offset
