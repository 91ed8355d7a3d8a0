"""Graph construction, distances, partitions, and their invariants."""

import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from distbalance import (
    DisconnectedGraphError,
    GraphTooLargeError,
    ParameterTooSmallError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
    complement_edges,
    complete_graph,
    cycle_graph,
    diameter,
    from_edge_list,
    is_connected,
    is_spanning_subgraph,
    path_graph,
    regular_degree,
    relabel,
)
from distbalance.graph import MAX_VERTICES, _ball_sweep, _bits, _levels, _members
from distbalance.trees import FamilyTag, canonical_family_tree


def k6_minus_perfect_matching():
    return helpers.complete_minus(6, [(0, 1), (2, 3), (4, 5)])


def k6_minus_two_triangles():
    return helpers.complete_minus(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def _distances_from(g, source):
    """The distance row of ``source``, read off the engine's BFS level masks."""
    row = [0] * g.n
    for d, mask in enumerate(_levels(g.adj, source)):
        for v in _bits(mask):
            row[v] = d
    return row


def _distance_rows(g):
    return [_distances_from(g, v) for v in range(g.n)]


def _closer_counts(g, x, y):
    """(|closer to x|, |closer to y|) of the edge xy, from the ball sweep."""
    return tuple(_ball_sweep(g.adj, [(x, y), (y, x)])[2])


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
        assert [g.degree(v) for v in range(g.n)] == g.degrees()
        assert g.max_degree() == 3
        assert g.min_degree() == 1

    def test_repr_lists_the_edges(self):
        assert repr(path_graph(3)) == "Graph(n=3, edges=[(0, 1), (1, 2)])"

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cycle_needs_three_vertices(self, n):
        with pytest.raises(ParameterTooSmallError):
            cycle_graph(n)


class TestDistances:
    def test_path_distances(self):
        rows = _distance_rows(path_graph(3))
        assert rows[0][2] == 2
        assert rows[0][1] == 1

    def test_complete_graph_distances(self):
        rows = _distance_rows(complete_graph(4))
        assert all(rows[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_five_cycle_max_distance(self):
        assert max(max(row) for row in _distance_rows(cycle_graph(5))) == 2

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            _ball_sweep(g.adj)
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

    @staticmethod
    def _largest_eccentricity(g):
        return max(max(helpers.bfs_distances(g.n, g.edges(), v)) for v in range(g.n))

    def test_tree_sweeps_match_all_sources(self):
        """``diameter``, the height pass of ``_tree_sweep`` through
        ``_ball_sweep``, agrees with the largest eccentricity over every
        source, from ``bfs_distances``, on every tree with n <= 8 under two
        labelings."""
        rng = random.Random(8)
        for n in range(1, 9):
            for t in helpers.all_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for g in (t, relabel(t, perm)):
                    assert diameter(g) == _ball_sweep(g.adj)[1] == \
                        self._largest_eccentricity(g), g

    @given(helpers.trees(max_n=40), st.randoms(use_true_random=False))
    def test_random_tree_sweeps_match_all_sources(self, t, rng):
        perm = list(range(t.n))
        rng.shuffle(perm)
        g = relabel(t, perm)
        assert diameter(g) == _ball_sweep(g.adj)[1] == self._largest_eccentricity(g)

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
    """The closer-set sizes of one edge, both ways round, from the ball sweep;
    the rest of the vertices are equidistant."""

    def test_path3(self):
        assert _closer_counts(path_graph(3), 0, 1) == (1, 2)  # {0} and {1, 2}

    def test_complete4(self):
        assert _closer_counts(complete_graph(4), 1, 2) == (1, 1)  # {0, 3} equidistant

    def test_cycle4(self):
        assert _closer_counts(cycle_graph(4), 0, 1) == (2, 2)  # {0, 3} and {1, 2}


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
        host = helpers.complete_minus(6, [(1, 2), (2, 3), (1, 3), (0, 4), (0, 5), (4, 5)])
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
            rows = _distance_rows(g)
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
    """For every edge xy, the closer sets built from ``helpers.bfs_distances``
    hold x and y, cover the vertices with the equidistant ones, and have the
    sizes of the ball sweep's per-edge counts."""
    for x, y in g.edges():
        near_x, near_y, equal = helpers.partition(g, x, y)
        assert x in near_x and y in near_y
        assert near_x | near_y | equal == set(range(g.n))
        assert len(near_x) + len(near_y) + len(equal) == g.n
        assert _closer_counts(g, x, y) == (len(near_x), len(near_y))


@given(helpers.connected_graphs())
def test_neighborhood_exclusion_properties(g):
    """For any pair: nothing besides x itself can be closer to x while
    adjacent to y, and neighbors of y not closer to y lie in N[x]."""
    pairs = g.edges() + complement_edges(g)
    for x, y in pairs:
        near_x, near_y, _ = helpers.partition(g, x, y)
        ny = set(g.neighbors(y))
        assert (near_x - {x}) & ny == set()
        assert ny - near_y <= set(g.neighbors(x)) | {x}


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
    assert _distances_from(path_graph(4), 0) == [0, 1, 2, 3]
    assert _distances_from(cycle_graph(5), 2) == [2, 1, 0, 1, 2]
    with pytest.raises(DisconnectedGraphError):
        _ball_sweep(from_edge_list(3, [(0, 1)]).adj)


@st.composite
def _ranged_masks(draw):
    """(mask, lo, hi): an empty or full span lo..hi-1 with some bits flipped,
    so masks fall on both sides of the dense threshold."""
    lo = draw(st.integers(0, 70))
    hi = lo + draw(st.integers(0, 140))
    span = (1 << hi) - (1 << lo)
    flips = draw(st.sets(st.integers(lo, hi - 1), max_size=hi - lo)) if hi > lo else set()
    return draw(st.sampled_from([0, span])) ^ sum(1 << b for b in flips), lo, hi


@given(_ranged_masks())
def test_members_match_bits(case):
    mask, lo, hi = case
    assert list(_members(mask, lo, hi)) == list(_bits(mask))


@pytest.mark.parametrize("lo", [0, 3, 64])
@pytest.mark.parametrize("width", [1, 2, 7, 8, 64, 65, 130])
def test_members_at_the_dense_threshold(lo, width):
    """Popcounts around width / 2, and the empty and full masks; a mask with
    at least half its span set takes the ranges between its clear bits."""
    rng = random.Random(width * 100 + lo)
    for k in sorted({0, width // 2 - 1, width // 2, (width + 1) // 2, width // 2 + 1,
                     width} & set(range(width + 1))):
        for _ in range(5):
            mask = sum(1 << b for b in rng.sample(range(lo, lo + width), k))
            members = _members(mask, lo, lo + width)
            assert isinstance(members, chain) == (2 * k >= width)
            assert list(members) == list(_bits(mask))


def _edges_by_bits(g):
    return [(u, v) for u in range(g.n) for v in _bits(g.adj[u]) if v > u]


def _random_graph(n, p, rng):
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < p])


@given(helpers.connected_graphs(min_n=1, max_n=14))
def test_edges_match_bits_on_small_graphs(g):
    assert g.edges() == _edges_by_bits(g)


def test_edges_match_bits_on_sparse_and_dense_graphs():
    rng = random.Random(2010)
    graphs = [_random_graph(n, p, rng) for n in (1, 2, 65, 150)
              for p in (0.0, 0.05, 0.5, 0.95, 1.0)]
    graphs += [complete_graph(130), k6_minus_two_triangles(), cycle_graph(129)]
    for g in graphs:
        assert g.edges() == _edges_by_bits(g)
