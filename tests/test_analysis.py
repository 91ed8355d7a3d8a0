"""Balance predicate, imbalance reports, and the Szeged index."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from distbalance import (
    DisconnectedGraphError,
    complete_graph,
    cycle_graph,
    diameter,
    from_edge_list,
    imbalance_report,
    is_distance_balanced,
    path_graph,
    regular_degree,
    search_minimum_additions,
    szeged_index,
)
from distbalance.analysis import _transmission_regular, report_with_diameter
from distbalance.trees import FAMILIES, FamilyTag, canonical_family_tree


class TestIsDistanceBalanced:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs(self, n):
        assert is_distance_balanced(complete_graph(n))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycles(self, n):
        assert is_distance_balanced(cycle_graph(n))

    def test_star_unbalanced(self):
        assert not is_distance_balanced(canonical_family_tree(FamilyTag.STAR, 3))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            is_distance_balanced(from_edge_list(4, [(0, 1), (2, 3)]))


class TestBalanceKernel:
    """The search's fused balance test against plain queue BFS."""

    @staticmethod
    def transmissions_equal(g):
        edges = g.edges()
        return len({sum(helpers.bfs_distances(g.n, edges, v)) for v in range(g.n)}) == 1

    @given(st.one_of(helpers.connected_graphs(min_n=1, max_n=65),
                     helpers.trees(max_n=65)))
    def test_matches_bfs_oracle(self, g):
        """Orders 1-65 cross the search's 64-vertex cap."""
        assert _transmission_regular(g.adj) == self.transmissions_equal(g)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_balanced_past_one_word(self, n):
        assert _transmission_regular(cycle_graph(n).adj)
        assert _transmission_regular(complete_graph(n).adj)
        assert not _transmission_regular(path_graph(n).adj)

    @pytest.mark.parametrize("check", [is_distance_balanced, search_minimum_additions])
    @pytest.mark.parametrize("edges", [
        [(1, 2), (2, 3), (3, 4), (4, 5)],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],  # each half is balanced
    ], ids=["first-isolated", "last-isolated", "2K3"])
    def test_disconnected_raises(self, check, edges):
        with pytest.raises(DisconnectedGraphError):
            check(from_edge_list(6, edges))


class TestImbalanceReport:
    def test_path3(self):
        rep = imbalance_report(path_graph(3))
        assert [(r.x, r.y, r.closer_to_x, r.closer_to_y) for r in rep.records] == [
            (0, 1, 1, 2), (1, 2, 2, 1)]
        assert not rep.balanced
        assert rep.worst_edge == (0, 1)  # both gaps are 1; lexicographic tie-break

    def test_cycle4(self):
        rep = imbalance_report(cycle_graph(4))
        assert all((r.closer_to_x, r.closer_to_y) == (2, 2) for r in rep.records)
        assert rep.balanced
        assert rep.worst_edge is None

    def test_single_edge(self):
        rep = imbalance_report(path_graph(2))
        assert [(r.x, r.y, r.closer_to_x, r.closer_to_y) for r in rep.records] == [
            (0, 1, 1, 1)]
        assert rep.balanced

    def test_record_count_matches_edges(self):
        g = canonical_family_tree(FamilyTag.BROOM, 4)
        assert len(imbalance_report(g).records) == g.edge_count


class TestSzegedIndex:
    def test_complete4(self):
        assert szeged_index(complete_graph(4)) == 6

    def test_path4(self):
        assert szeged_index(path_graph(4)) == 10

    def test_cycle4(self):
        assert szeged_index(cycle_graph(4)) == 16

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graphs_closed_form(self, n):
        assert szeged_index(complete_graph(n)) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_paths_closed_form(self, n):
        # an edge after position i splits the path into i and n-i vertices
        expected = sum(i * (n - i) for i in range(1, n))
        assert szeged_index(path_graph(n)) == expected


def _wiener_index(g):
    """Half the sum of all queue-BFS distances."""
    edges = g.edges()
    return sum(sum(helpers.bfs_distances(g.n, edges, v)) for v in range(g.n)) // 2


class TestSzegedEqualsWienerOnTrees:
    """Sz(T) = W(T) on a tree: removing an edge xy leaves the n_x vertices
    closer to x and the n_y closer to y, and the path of each of the
    n_x * n_y pairs across runs through xy, so the products count every
    distance once."""

    @given(helpers.trees(max_n=30))
    def test_random_trees(self, t):
        assert szeged_index(t) == _wiener_index(t)

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_family_trees(self, tag):
        for m in (*range(FAMILIES[tag].min_m, 10), 50, 200):
            t = canonical_family_tree(tag, m)
            assert szeged_index(t) == _wiener_index(t), (tag, m)


def _hypercube(d):
    return from_edge_list(1 << d, [(v, v | 1 << b) for v in range(1 << d)
                                   for b in range(d) if not v >> b & 1])


class TestSzegedEdgeBound:
    """Sz(G) <= m n^2 / 4: the closer sets of an edge xy are disjoint, so
    n_x n_y <= ((n_x + n_y) / 2)^2 <= n^2 / 4.  Equality holds exactly when
    n_x = n_y = n / 2 on every edge: no vertex is equidistant from the ends
    of an edge (the graph is bipartite) and every edge is balanced (Ilic,
    Klavzar and Milanovic, Eur. J. Combin. 31 (2010))."""

    @staticmethod
    def _tight(g):
        """Bipartite and distance-balanced, from ``helpers.bfs_distances``
        alone: no edge inside a BFS level, and equal closer counts."""
        edges = g.edges()
        level = helpers.bfs_distances(g.n, edges, 0)
        bipartite = all(level[x] != level[y] for x, y in edges)
        return bipartite and all(cx == cy for _, _, cx, cy in helpers.edge_balance_oracle(g))

    def _check(self, g):
        four_sz, bound = 4 * szeged_index(g), g.edge_count * g.n ** 2
        assert four_sz <= bound
        assert (four_sz == bound) == self._tight(g)
        return four_sz == bound

    @given(helpers.connected_graphs())
    def test_random_graphs(self, g):
        self._check(g)

    @pytest.mark.parametrize("g,tight", [
        (cycle_graph(6), True), (_hypercube(3), True),
        (cycle_graph(5), False), (complete_graph(4), False), (path_graph(4), False),
    ], ids=["C6", "Q3", "C5", "K4", "P4"])
    def test_named_graphs(self, g, tight):
        assert self._check(g) is tight


@given(helpers.connected_graphs())
def test_szeged_at_least_edge_count(g):
    value = szeged_index(g)
    assert value >= g.edge_count
    is_complete = g.edge_count == g.n * (g.n - 1) // 2
    assert (value == g.edge_count) == is_complete


@given(helpers.connected_graphs())
def test_report_agrees_with_predicate(g):
    rep = imbalance_report(g)
    assert rep.balanced == is_distance_balanced(g)
    assert rep.balanced == all(r.closer_to_x == r.closer_to_y for r in rep.records)
    worst = max(rep.records, key=lambda r: r.gap)  # the first with the largest gap
    assert rep.worst_edge == (None if rep.balanced else (worst.x, worst.y))


def _assert_matches_oracle(g):
    expected = helpers.edge_balance_oracle(g)
    records = [(r.x, r.y, r.closer_to_x, r.closer_to_y)
               for r in imbalance_report(g).records]
    assert records == expected
    assert szeged_index(g) == sum(cx * cy for _, _, cx, cy in expected)
    assert is_distance_balanced(g) == all(cx == cy for _, _, cx, cy in expected)


def test_per_edge_counts_match_oracle_exhaustively(small_connected_graphs):
    """Level-mask counts and transmission-regularity against the per-edge
    definition, on every labeled connected graph with n <= 6."""
    for graphs in small_connected_graphs.values():
        for g in graphs:
            _assert_matches_oracle(g)


@given(helpers.connected_graphs())
def test_per_edge_counts_match_oracle(g):
    _assert_matches_oracle(g)


def test_transmission_route_matches_oracle_exhaustively(small_connected_graphs):
    """Plain ``check`` builds no records: its balance, worst edge and diameter
    come from transmissions and eccentricities, on every labeled connected
    graph with n <= 6."""
    for graphs in small_connected_graphs.values():
        for g in graphs:
            worst, diam, rows = report_with_diameter(g, records=False)
            expected = helpers.plain_check_oracle(g)
            assert rows == []
            assert (worst is None, worst, diam) == expected


@given(helpers.connected_graphs())
def test_record_route_diameter_matches_transmission_route(g):
    with_records, diam, _ = report_with_diameter(g)
    without, diam_without, _ = report_with_diameter(g, records=False)
    assert diam == diam_without == diameter(g)
    assert with_records == without


def test_report_agrees_on_random_corpus(random_corpus):
    for g in random_corpus:
        rep = imbalance_report(g)
        assert rep.balanced == all(
            r.closer_to_x == r.closer_to_y for r in rep.records)
        assert rep.balanced == is_distance_balanced(g)


def test_regular_diameter2_graphs_are_balanced_sampled():
    """Regular graphs of diameter at most 2 must be balanced; sampled at
    sizes the exhaustive sweep cannot reach."""
    rng = random.Random(1523)
    checked = 0
    for n, r in [(10, 5), (12, 6), (14, 7), (16, 8), (18, 9), (20, 10), (20, 8)]:
        for _ in range(5):
            g = helpers.random_regular_graph(n, r, rng)
            if g is None or diameter(g) > 2:
                continue
            assert regular_degree(g) == r
            assert is_distance_balanced(g)
            checked += 1
    assert checked >= 20
