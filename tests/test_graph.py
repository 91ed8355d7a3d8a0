"""Graph construction, distances, partitions, and their invariants."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from distbalance import (
    DisconnectedGraphError,
    GraphTooLargeError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
    all_pairs_distances,
    complement_edges,
    complete_graph,
    cycle_graph,
    diameter,
    edge_partition,
    from_edge_list,
    is_connected,
    is_spanning_subgraph,
    path_graph,
    regular_degree,
    relabel,
    remove_edges,
)
from distbalance.graph import MAX_VERTICES, _profiles
from distbalance.trees import FamilyTag, canonical_family_tree


def k6_minus_perfect_matching():
    return remove_edges(complete_graph(6), [(0, 1), (2, 3), (4, 5)])


def k6_minus_two_triangles():
    return remove_edges(complete_graph(6), [(0, 1), (1, 2), (0, 2),
                                            (3, 4), (4, 5), (3, 5)])


class TestFromEdgeList:
    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.edge_count == 1
        assert g.edges() == [(0, 1)]

    def test_duplicates_and_orientations_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            from_edge_list(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(3, [(1, 1)])

    def test_vertex_count_capped(self):
        assert from_edge_list(MAX_VERTICES, []).n == MAX_VERTICES
        with pytest.raises(GraphTooLargeError):
            from_edge_list(MAX_VERTICES + 1, [])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(0, [])

    def test_degrees(self):
        g = canonical_family_tree(FamilyTag.STAR, 3)
        assert g.degrees() == [3, 1, 1, 1]
        assert g.max_degree() == 3
        assert g.min_degree() == 1


class TestDistances:
    def test_path_distances(self):
        dm = all_pairs_distances(path_graph(3))
        assert dm.distance(0, 2) == 2
        assert dm.distance(0, 1) == 1

    def test_complete_graph_distances(self):
        dm = all_pairs_distances(complete_graph(4))
        assert all(dm.distance(u, v) == 1 for u in range(4) for v in range(4) if u != v)

    def test_five_cycle_max_distance(self):
        dm = all_pairs_distances(cycle_graph(5))
        assert max(max(row) for row in dm.rows) == 2

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            all_pairs_distances(g)
        with pytest.raises(DisconnectedGraphError):
            diameter(g)

    def test_single_vertex(self):
        assert diameter(from_edge_list(1, [])) == 0


class TestDiameter:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete(self, n):
        assert diameter(complete_graph(n)) == 1

    def test_path_endpoints(self):
        assert diameter(path_graph(5)) == 4

    def test_k6_minus_matching(self):
        assert diameter(k6_minus_perfect_matching()) == 2

    def test_tree_sweeps_match_all_sources(self):
        """The two-sweep tree route agrees with the largest eccentricity over
        every source, on every tree with n <= 8 under two labelings."""
        rng = random.Random(8)
        for n in range(1, 9):
            for t in helpers.all_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for g in (t, relabel(t, perm)):
                    assert diameter(g) == max(ecc for _, ecc in _profiles(g.adj))

    @given(helpers.trees(max_n=40), st.randoms(use_true_random=False))
    def test_random_tree_sweeps_match_all_sources(self, t, rng):
        perm = list(range(t.n))
        rng.shuffle(perm)
        g = relabel(t, perm)
        assert diameter(g) == max(ecc for _, ecc in _profiles(g.adj))

    @pytest.mark.parametrize("n,edges", [
        (4, [(1, 2), (2, 3), (1, 3)]),          # vertex 0 isolated, a triangle
        (4, [(0, 1), (1, 2), (0, 2)]),          # the triangle holds vertex 0
        (6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),
    ])
    def test_disconnected_with_n_minus_1_edges_raises(self, n, edges):
        g = from_edge_list(n, edges)
        assert g.edge_count == n - 1
        with pytest.raises(DisconnectedGraphError):
            diameter(g)


class TestEdgePartition:
    def test_path3(self):
        part = edge_partition(path_graph(3), 0, 1)
        assert part.closer_to_x == {0}
        assert part.closer_to_y == {1, 2}
        assert part.equidistant == frozenset()

    def test_complete4(self):
        part = edge_partition(complete_graph(4), 1, 2)
        assert part.closer_to_x == {1}
        assert part.closer_to_y == {2}
        assert part.equidistant == {0, 3}

    def test_cycle4(self):
        part = edge_partition(cycle_graph(4), 0, 1)
        assert part.closer_to_x == {0, 3}
        assert part.closer_to_y == {1, 2}
        assert part.equidistant == frozenset()

    def test_non_adjacent_pair_allowed(self):
        part = edge_partition(path_graph(4), 0, 3)
        assert part.closer_to_x == {0, 1}
        assert part.closer_to_y == {2, 3}

    def test_bad_pairs(self):
        g = path_graph(3)
        with pytest.raises(SelfLoopError):
            edge_partition(g, 1, 1)
        with pytest.raises(VertexOutOfRangeError):
            edge_partition(g, 0, 5)


class TestRegularDegree:
    def test_cycle(self):
        assert regular_degree(cycle_graph(5)) == 2

    def test_star(self):
        assert regular_degree(canonical_family_tree(FamilyTag.STAR, 3)) is None

    def test_k6_minus_two_triangles(self):
        assert regular_degree(k6_minus_two_triangles()) == 3


class TestSpanningSubgraph:
    def test_path_in_triangle(self):
        assert is_spanning_subgraph(path_graph(3), cycle_graph(3))

    def test_triangle_not_in_path(self):
        assert not is_spanning_subgraph(cycle_graph(3), path_graph(3))

    def test_s22_in_k6_minus_triangles(self):
        tree = canonical_family_tree(FamilyTag.S22, 3)
        host = remove_edges(complete_graph(6), [(1, 2), (2, 3), (1, 3),
                                                (0, 4), (0, 5), (4, 5)])
        assert is_spanning_subgraph(tree, host)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            is_spanning_subgraph(path_graph(3), path_graph(4))


class TestComplementEdges:
    def test_complete_has_empty_complement(self):
        assert complement_edges(complete_graph(4)) == []

    def test_path3(self):
        assert complement_edges(path_graph(3)) == [(0, 2)]

    def test_star_leaf_pairs(self):
        comp = complement_edges(canonical_family_tree(FamilyTag.STAR, 4))
        assert len(comp) == 6
        assert all(u >= 1 and v >= 1 for u, v in comp)


class TestRelabel:
    def test_round_trip(self):
        g = canonical_family_tree(FamilyTag.S22, 4)
        perm = [3, 0, 5, 1, 6, 2, 4]
        inverse = [perm.index(i) for i in range(7)]
        assert relabel(relabel(g, perm), inverse) == g

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            relabel(path_graph(3), [0, 0, 1])


def test_distance_matrix_invariants_exhaustive(small_connected_graphs):
    """Symmetry, zero diagonal, triangle inequality, d=1 iff adjacency,
    over every connected graph on at most 6 vertices."""
    for n, graphs in small_connected_graphs.items():
        for g in graphs:
            rows = all_pairs_distances(g).rows
            for u in range(n):
                assert rows[u][u] == 0
                for v in range(u + 1, n):
                    assert rows[u][v] == rows[v][u]
                    assert (rows[u][v] == 1) == g.has_edge(u, v)
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert rows[u][w] <= rows[u][v] + rows[v][w]


@given(helpers.connected_graphs())
def test_partition_is_a_partition(g):
    for x, y in g.edges():
        part = edge_partition(g, x, y)
        assert x in part.closer_to_x and y in part.closer_to_y
        assert part.closer_to_x | part.closer_to_y | part.equidistant == set(range(g.n))
        assert len(part.closer_to_x) + len(part.closer_to_y) + len(part.equidistant) == g.n


@given(helpers.connected_graphs())
def test_neighborhood_exclusion_properties(g):
    """For any pair: nothing besides x itself can be closer to x while
    adjacent to y, and neighbors of y not closer to y lie in N[x]."""
    pairs = g.edges() + complement_edges(g)
    for x, y in pairs:
        part = edge_partition(g, x, y)
        ny = set(g.neighbors(y))
        assert (part.closer_to_x - {x}) & ny == set()
        assert ny - part.closer_to_y <= set(g.neighbors(x)) | {x}


@given(helpers.connected_graphs())
def test_complement_partitions_pairs(g):
    from itertools import combinations
    comp = complement_edges(g)
    edges = g.edges()
    assert set(comp) & set(edges) == set()
    assert sorted(comp + edges) == list(combinations(range(g.n), 2))
    assert len(comp) == g.n * (g.n - 1) // 2 - g.edge_count


def test_is_connected_small_cases():
    assert is_connected(from_edge_list(1, []))
    assert not is_connected(from_edge_list(2, []))
    assert is_connected(cycle_graph(5))


def test_distances_from_single_source():
    from distbalance import distances_from

    assert distances_from(path_graph(4), 0) == [0, 1, 2, 3]
    assert distances_from(cycle_graph(5), 2) == [2, 1, 0, 1, 2]
    with pytest.raises(DisconnectedGraphError):
        distances_from(from_edge_list(3, [(0, 1)]), 0)
