"""The exhaustive search oracle: witnesses, pruning, budgets, determinism."""

import hashlib
import random
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from distbalance import (
    DisconnectedGraphError,
    FamilyTag,
    GraphError,
    GraphTooLargeError,
    PruneModeUnjustifiedError,
    SearchBudgetError,
    SearchConfig,
    TreeFamily,
    add_edges,
    canonical_family_tree,
    complement_edges,
    complete_graph,
    construct_closure,
    cycle_graph,
    diameter,
    from_edge_list,
    is_distance_balanced,
    minimum_additions_formula,
    path_graph,
    regular_degree,
    relabel,
    search_minimum_additions,
)
from distbalance import graph, search
from distbalance.analysis import _transmission_regular
from distbalance.trees import FAMILIES


class TestBasics:
    def test_already_balanced(self):
        res = search_minimum_additions(cycle_graph(4))
        assert res.min_additions == 0
        assert res.witnesses == ((),)
        assert res.explored == 1

    def test_star3(self):
        res = search_minimum_additions(canonical_family_tree(FamilyTag.STAR, 3))
        assert res.min_additions == 3
        assert res.witnesses[0] == ((1, 2), (1, 3), (2, 3))

    def test_p5_first_witness_and_explored(self):
        res = search_minimum_additions(path_graph(5))
        assert res.min_additions == 1
        assert res.witnesses[0] == ((0, 4),)
        # k=0 has one candidate; (0,2) and (0,3) fail before (0,4) succeeds
        assert res.explored == 4

    def test_single_vertex(self):
        res = search_minimum_additions(from_edge_list(1, []))
        assert res.min_additions == 0

    def test_witness_yields_balanced_graph(self, high_degree_trees):
        for t in high_degree_trees:
            if t.n > 6:
                continue
            res = search_minimum_additions(t)
            for w in res.witnesses:
                assert len(w) == res.min_additions
                assert is_distance_balanced(add_edges(t, w))


class TestErrors:
    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            search_minimum_additions(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_too_large(self):
        with pytest.raises(GraphTooLargeError):
            search_minimum_additions(path_graph(65))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            search_minimum_additions(path_graph(3), SearchConfig(prune_mode="fast"))

    @pytest.mark.parametrize("field,value", [
        ("max_k", -1), ("time_budget", 0.0), ("time_budget", -1.0)])
    def test_out_of_range_config_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            search_minimum_additions(path_graph(5), SearchConfig(**{field: value}))

    def test_regular_mode_refused_off_domain(self):
        # P_6: diameter 5 and max degree 2 < n-3 = 3
        with pytest.raises(PruneModeUnjustifiedError):
            search_minimum_additions(path_graph(6), SearchConfig(prune_mode="regular"))

    def test_regular_mode_refused_on_petersen(self):
        """Diameter 2 with max degree 3 < n-3 = 7: outside the theorem's
        domain the regular mode is refused, and the naive mode still answers."""
        petersen = helpers.petersen_graph()
        with pytest.raises(PruneModeUnjustifiedError,
                           match=r"^regular pruning needs max degree >= n-3$"):
            search_minimum_additions(petersen, SearchConfig(prune_mode="regular"))
        res = search_minimum_additions(petersen)
        assert (res.min_additions, res.witnesses) == (0, ((),))

    def test_regular_mode_allowed_on_diameter2_non_tree(self):
        res = search_minimum_additions(cycle_graph(5),
                                       SearchConfig(prune_mode="regular"))
        assert res.min_additions == 0
        assert res.mode_used == "regular"


class TestBudgets:
    def test_max_k_exhaustion_certifies_lower_bound(self):
        with pytest.raises(SearchBudgetError) as exc_info:
            search_minimum_additions(path_graph(5), SearchConfig(max_k=0))
        exc = exc_info.value
        assert exc.exhausted_k == 0
        assert exc.lower_bound == 1
        assert exc.explored == 1

    def test_time_budget(self):
        star6 = canonical_family_tree(FamilyTag.STAR, 6)
        with pytest.raises(SearchBudgetError) as exc_info:
            search_minimum_additions(star6, SearchConfig(time_budget=1e-9))
        exc = exc_info.value
        assert exc.lower_bound >= 1
        assert exc.explored >= 1


def _degree_feasible(g, r, every=True):
    """Index sets of the k-subsets of the complement of ``g`` that raise
    every degree to r, in lex order (only the first unless ``every``): the
    regular mode's walk over the removed pairs, with a balance test that
    accepts every completion, so that its hits are the completions it
    tests.  The search never asks for r >= n."""
    if r >= g.n:
        return []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_transmission_regular", lambda rows: True)
        hits, tested, timed_out = search._regular_level(
            g.adj, complement_edges(g), r, None, every)
    assert (tested, timed_out) == (len(hits), False)
    return hits


def _regular_supergraphs(g, r, every=True):
    """The r-regular supergraphs of ``g`` in lex order of the added-edge
    sets (only the first unless ``every``), from the regular mode's walk."""
    comp = complement_edges(g)
    return [add_edges(g, (comp[i] for i in added)) for added in _degree_feasible(g, r, every)]


class TestRegularEnumeration:
    def test_cycle_is_its_own_supergraph(self):
        graphs = list(_regular_supergraphs(cycle_graph(4), 2))
        assert graphs == [cycle_graph(4)]

    def test_infeasible_degree(self):
        """An infeasible degree has no completion: a vertex lacks free
        partners, or n*s is odd and the last one finds none."""
        for g, r in [(canonical_family_tree(FamilyTag.STAR, 3), 2),  # r < max degree
                     (path_graph(3), 1),  # n*r odd
                     (path_graph(3), 3),  # r > n-1
                     (path_graph(5), 3)]:  # n*r odd, r in range
            assert list(_regular_supergraphs(g, r)) == [], (g, r)

    def test_s3_canonical_has_balanced_3_regular_supergraph(self):
        tree = canonical_family_tree(FamilyTag.S3, 3)
        graphs = list(_regular_supergraphs(tree, 3))
        assert graphs
        assert all(regular_degree(g) == 3 for g in graphs)
        assert any(is_distance_balanced(g) for g in graphs)

    @pytest.mark.parametrize("tag,m,r", [
        (FamilyTag.S3, 3, 3), (FamilyTag.S22, 3, 3), (FamilyTag.S2, 4, 4),
        (FamilyTag.STAR, 3, 3), (FamilyTag.BROOM, 3, 4),
    ])
    def test_matches_brute_force_filter(self, tag, m, r):
        """Independent cross-check: filter every k-subset of the complement
        for r-regularity and compare with the backtracking enumeration."""
        g = canonical_family_tree(tag, m)
        k = (g.n * r) // 2 - g.edge_count
        comp = complement_edges(g)
        expected = [add_edges(g, added) for added in combinations(comp, k)
                    if regular_degree(add_edges(g, added)) == r]
        assert list(_regular_supergraphs(g, r)) == expected

    def test_walk_on_every_small_graph_is_pinned_and_matches_brute_force(self):
        """Every labelled connected graph with n <= 5 and every r from its
        max degree to n - 1 with n * r even: the walk yields the brute-force
        filter of the k-subsets, and its sequences are pinned by a sha256."""
        digest = hashlib.sha256()
        for n in range(1, 6):
            for g in helpers.all_connected_graphs(n):
                comp = complement_edges(g)
                degrees = g.degrees()
                for r in range(g.max_degree(), n):
                    if n * r % 2:
                        continue
                    k = n * r // 2 - g.edge_count
                    walked = _degree_feasible(g, r)
                    digest.update(repr((g.edges(), r, walked)).encode())
                    expected = []
                    for added in combinations(range(len(comp)), k):
                        deg = degrees.copy()
                        for i in added:
                            deg[comp[i][0]] += 1
                            deg[comp[i][1]] += 1
                        if deg == [r] * n:
                            expected.append(added)
                    assert walked == expected, (g.edges(), r)
        assert digest.hexdigest() == (
            "90e4c052b9f822c8850ee69149b84749042b5d5a2b3829a9eed30df10e802d7d")

    def test_walk_steps_are_pinned(self, monkeypatch):
        """The forced pairs and the free-partner prune, pinned by the walk's
        exact node count: with the clock read at every node, the walks to
        the first hit of each feasible r on the family trees with m <= 8,
        under two labelings, visit 319 nodes (the walk over the added pairs
        with a degree bound visited 12,199)."""
        reads = []
        monkeypatch.setattr(search, "_DEADLINE_STRIDE", 1)
        monkeypatch.setattr(search.time, "monotonic", lambda: reads.append(0) or 0.0)
        for tag, row in FAMILIES.items():
            for m in range(row.min_m, 9):
                for g in _two_labelings(canonical_family_tree(tag, m)):
                    comp = complement_edges(g)
                    for r in range(g.max_degree(), g.n):
                        if g.n * r % 2 == 0:
                            search._regular_level(g.adj, comp, r, 1.0, False)
        assert len(reads) == 319


class TestCountBalancedAdditions:
    """How many k-subsets balance the input, from the scan of
    ``all_witnesses`` without the automorphisms."""

    @staticmethod
    def _every_witness(g, max_k=None):
        return search_minimum_additions(g, SearchConfig(max_k=max_k, all_witnesses=True))

    def test_cycle_at_zero(self):
        assert self._every_witness(cycle_graph(4), 0).witnesses == ((),)

    def test_p5_unique_single_addition(self):
        assert self._every_witness(path_graph(5)).witnesses == (((0, 4),),)

    def test_star3_no_two_edge_fix(self):
        with pytest.raises(SearchBudgetError) as exc_info:
            self._every_witness(canonical_family_tree(FamilyTag.STAR, 3), 2)
        assert exc_info.value.exhausted_k == 2

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            self._every_witness(from_edge_list(4, [(0, 1), (2, 3)]), 1)


class TestAllWitnesses:
    def test_s2_m4_has_exactly_three_closures(self):
        """Every minimal closure of the m=4 family tree is K_6 minus a
        perfect matching through (0,5); the other two matching edges pair
        up the spokes 1..4, giving exactly three witnesses."""
        tree = canonical_family_tree(FamilyTag.S2, 4)
        comp = set(complement_edges(tree))
        expected = set()
        for matching in ([(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]):
            removed = {(0, 5), *matching}
            expected.add(tuple(sorted(comp - removed)))
        res = search_minimum_additions(tree, SearchConfig(all_witnesses=True))
        assert res.min_additions == 7
        assert set(res.witnesses) == expected
        assert res.witnesses[0] == min(expected)

    @pytest.mark.parametrize("mode", ["naive", "regular"])
    def test_only_the_witness_level_is_rescanned_unpruned(self, monkeypatch, mode):
        """The levels below the minimum hold no witness to lose, so they are
        walked with the generators' tables; the witness level is walked
        with them too and then rescanned with empty tables for every hit.
        The regular mode walks the removed pairs and never calls _level."""
        levels = []
        real = search._level

        def spy(adj, comp, k, tables, deadline, all_witnesses):
            levels.append((k, tables.ones != 0, all_witnesses))
            return real(adj, comp, k, tables, deadline, all_witnesses)

        monkeypatch.setattr(search, "_level", spy)
        tree = canonical_family_tree(FamilyTag.S2, 4)
        res = search_minimum_additions(
            tree, SearchConfig(prune_mode=mode, all_witnesses=True))
        assert (res.min_additions, len(res.witnesses)) == (7, 3)
        if mode == "naive":
            assert levels == [(k, True, False) for k in range(8)] + [(7, False, True)]
        else:
            assert levels == []

    def test_balanced_input_single_empty_witness(self):
        res = search_minimum_additions(cycle_graph(5),
                                       SearchConfig(all_witnesses=True))
        assert res.witnesses == ((),)


class TestDeterminismAndThreads:
    def test_repeat_runs_identical(self):
        t = canonical_family_tree(FamilyTag.S22, 3)
        first = search_minimum_additions(t)
        second = search_minimum_additions(t)
        assert first == second


def _spy_levels(monkeypatch) -> list[tuple[int, int]]:
    """Record (k, lex count) of every level the search walks; the list
    grows with k before the walk starts."""
    levels = []
    real = search._level

    def spy(adj, comp, k, *args):
        levels.append((k, 0))
        out = real(adj, comp, k, *args)
        levels[-1] = (k, out[1])
        return out

    monkeypatch.setattr(search, "_level", spy)
    return levels


def _dominated_vertices(g, added=()) -> set[int]:
    """The vertices x of ``g`` plus the edges ``added`` that have a
    neighbour y with N[x] a proper subset of N[y], from neighbour sets."""
    closed = [{v} for v in range(g.n)]
    for u, v in [*g.edges(), *added]:
        closed[u].add(v)
        closed[v].add(u)
    return {x for x in range(g.n) if any(closed[x] < closed[y] for y in closed[x])}


def _without_cut(monkeypatch):
    """Patch the domination cut out of the walk: no vertex is dominated."""
    monkeypatch.setattr(search, "_dominated", lambda rows, among, by: 0)


def _without_floor(monkeypatch):
    """Patch the transmission floor out of the walk: no vertex is below it."""
    monkeypatch.setattr(search, "_below_floor", lambda rows, left: 0)


class TestProgress:
    def test_progress_is_updated(self, monkeypatch):
        levels = _spy_levels(monkeypatch)
        res = search_minimum_additions(path_graph(5))
        assert levels[-1][0] == res.min_additions
        assert sum(counted for _, counted in levels) == res.explored


class TestModeAgreement:
    def test_naive_equals_regular_on_small_trees(self, high_degree_trees):
        for t in high_degree_trees:
            if t.n > 6:
                continue  # n=7 runs in the acceptance suite
            naive = search_minimum_additions(t, SearchConfig(prune_mode="naive"))
            regular = search_minimum_additions(t, SearchConfig(prune_mode="regular"))
            assert naive.min_additions == regular.min_additions
            assert regular.witnesses[0] in set(
                search_minimum_additions(
                    t, SearchConfig(prune_mode="naive", all_witnesses=True)).witnesses)


class TestRegularCheck:
    """On the regular mode's domain every degree-feasible candidate is
    balanced, so one that fails the balance test raises GraphError."""

    @pytest.mark.parametrize("tag,m,all_witnesses,k", [
        (FamilyTag.STAR, 3, False, 3), (FamilyTag.S2, 4, True, 7)])
    def test_an_unbalanced_candidate_raises(self, monkeypatch, tag, m, all_witnesses, k):
        calls = []
        real = search._transmission_regular

        def reject_the_first(rows):
            calls.append(rows)
            return len(calls) > 1 and real(rows)

        monkeypatch.setattr(search, "_transmission_regular", reject_the_first)
        with pytest.raises(GraphError, match=f"k={k} added edges not balanced"):
            search_minimum_additions(canonical_family_tree(tag, m), SearchConfig(
                prune_mode="regular", all_witnesses=all_witnesses))
        assert calls


@pytest.mark.parametrize("tag", [FamilyTag.S2, FamilyTag.S22, FamilyTag.S3, FamilyTag.BROOM])
def test_regular_mode_under_shuffled_labels(tag):
    """The regular walk runs over the at most n removed pairs, so its time
    does not hang on the labelling: each of four seeded shuffles of the
    trees with m = 40, 50 and 60 finds the closed form as its first test,
    inside a 2 s budget.  The walk over the added pairs ran past 20 s on
    17 of these 48 searches."""
    for m in (40, 50, 60):
        tree = canonical_family_tree(tag, m)
        expected = minimum_additions_formula(TreeFamily(tag, m, None))
        for seed in range(4):
            perm = list(range(tree.n))
            random.Random(seed).shuffle(perm)
            res = search_minimum_additions(relabel(tree, perm), SearchConfig(
                prune_mode="regular", time_budget=2))
            assert (res.min_additions, res.explored) == (expected, 1), (m, seed)


def _regular_legal_inputs():
    """Every labelled connected graph with n <= 5 that the regular mode
    accepts, and the family trees with m <= 8 under two labelings."""
    graphs = [g for n in range(1, 6) for g in helpers.all_connected_graphs(n)
              if diameter(g) <= 2 or (g.edge_count == g.n - 1 and g.max_degree() >= g.n - 3)]
    return graphs + [t for tag, row in FAMILIES.items() for m in range(row.min_m, 9)
                     for t in _two_labelings(canonical_family_tree(tag, m))]


class TestRegularFirstCandidate:
    """On the regular mode's domain every regular supergraph is balanced, so
    the first one the enumeration yields is the witness."""

    def test_witness_is_the_first_regular_supergraph(self):
        graphs = _regular_legal_inputs()
        assert len(graphs) == 532 + 2 * 36
        for g in graphs:
            res = search_minimum_additions(g, SearchConfig(prune_mode="regular"))
            assert res.explored == 1, g
            first = next(s for r in range(g.max_degree(), g.n)
                         for s in _regular_supergraphs(g, r, every=False))
            assert add_edges(g, res.witnesses[0]) == first, g

    @pytest.mark.parametrize("all_witnesses", [False, True])
    def test_builds_no_orbit_tables(self, monkeypatch, all_witnesses):
        """A regular search builds no generators or tables.  The naive mode
        builds the generators' tables once per search, and the scan of every
        witness adds empty tables for the witness level."""
        calls = []

        def spy(name):
            real = getattr(search, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_generators", "_image_tables"):
            monkeypatch.setattr(search, name, spy(name))
        per_search = ["_generators", "_image_tables"] + ["_image_tables"] * all_witnesses
        for tag, m in [(FamilyTag.STAR, 5), (FamilyTag.S22, 4), (FamilyTag.S2, 4)]:
            search_minimum_additions(canonical_family_tree(tag, m), SearchConfig(
                prune_mode="regular", all_witnesses=all_witnesses))
        assert calls == []
        search_minimum_additions(canonical_family_tree(FamilyTag.STAR, 3),
                                 SearchConfig(all_witnesses=all_witnesses))
        assert calls == per_search


class TestRegularOnMaxDegree:
    """The paper's theorem makes the regular mode legal on any input with
    max degree >= n - 3: every balanced supergraph of it is regular, and so
    every minimal witness is one the regular mode finds."""

    @pytest.mark.parametrize("all_witnesses", [False, True])
    def test_equals_naive_on_non_trees_of_diameter_3(self, all_witnesses):
        graphs = [g for n in range(1, 6) for g in helpers.all_connected_graphs(n)
                  if g.edge_count >= g.n and g.max_degree() >= g.n - 3
                  and diameter(g) >= 3]
        assert len(graphs) == 240
        for g in graphs:
            regular = search_minimum_additions(g, SearchConfig(
                prune_mode="regular", all_witnesses=all_witnesses))
            naive = search_minimum_additions(g, SearchConfig(all_witnesses=all_witnesses))
            assert (regular.min_additions, regular.witnesses) == (
                naive.min_additions, naive.witnesses), g.edges()
            assert regular.explored == 1 or all_witnesses


class TestBalancedNonRegular:
    """The three-diamond graph: balanced, not regular and of diameter 3, so
    the regular mode, sound only where balance forces regularity, refuses it."""

    def test_balanced_by_bfs_transmissions(self):
        g = helpers.three_diamonds()
        rows = [helpers.bfs_distances(g.n, g.edges(), v) for v in range(g.n)]
        assert [sum(row) for row in rows] == [14] * 9
        assert max(map(max, rows)) == 3
        assert is_distance_balanced(g)
        assert regular_degree(g) is None
        assert diameter(g) == 3

    def test_naive_finds_it_balanced_and_regular_refuses_it(self):
        g = helpers.three_diamonds()
        res = search_minimum_additions(g)
        assert (res.min_additions, res.witnesses, res.explored) == (0, ((),), 1)
        with pytest.raises(PruneModeUnjustifiedError):
            search_minimum_additions(g, SearchConfig(prune_mode="regular"))


def test_minimality_spot_check_on_acceptance_instances():
    """Independent spot check one level below the answer: the walk without
    orbit pruning, as ``all_witnesses`` rescans a witness level, finds no
    (b-1)-subset of complement edges that balances a closed-form family
    instance.  A search would walk that level pruned, since it holds no
    witness."""
    from test_acceptance import CLOSED_FORM_INSTANCES

    for tag, m, expected in CLOSED_FORM_INSTANCES:
        tree = canonical_family_tree(tag, m)
        comp = complement_edges(tree)
        hits, counted, _, timed_out = search._level(
            tree.adj, search._setup(tree.adj, comp), expected - 1,
            search._image_tables([], comp), None, True)
        assert (hits, counted, timed_out) == ([], comb(len(comp), expected - 1), False), (tag, m)


def test_all_witness_sets_agree_between_modes(high_degree_trees):
    """On its legal domain the regular prune may not lose any witness:
    every minimal balancing addition set is regular there."""
    for t in high_degree_trees:
        if t.n > 6:
            continue
        naive = search_minimum_additions(
            t, SearchConfig(prune_mode="naive", all_witnesses=True))
        regular = search_minimum_additions(
            t, SearchConfig(prune_mode="regular", all_witnesses=True))
        assert naive.witnesses == regular.witnesses


def test_oracle_matches_formula_small_range():
    """Search equals the closed form at every order up to 8, by the naive
    mode, which does not assume the paper's theorem, and by the regular
    mode as a second route."""
    cases = ([(FamilyTag.STAR, m) for m in range(1, 8)]
             + [(FamilyTag.S2, m) for m in range(2, 7)]
             + [(FamilyTag.S22, m) for m in range(2, 6)]
             + [(FamilyTag.S3, m) for m in range(3, 6)]
             + [(FamilyTag.BROOM, m) for m in range(3, 6)])
    for tag, m in cases:
        tree = canonical_family_tree(tag, m)
        for mode in ("naive", "regular"):
            res = search_minimum_additions(tree, SearchConfig(prune_mode=mode))
            assert res.min_additions == minimum_additions_formula(
                TreeFamily(tag, m, None)), (tag, m, mode)


class TestTheorem:
    """The paper's theorem: a distance-balanced graph with maximum degree at
    least n - 3 is regular.  Such a graph has a vertex adjacent to all but
    c <= 2 of the others; relabelled with that vertex as 0 and its
    neighbours as 1..n-1-c, it is one of the graphs enumerated below."""

    # connected balanced graphs per (n, c); every other (n, c) has none
    BALANCED = {(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1, (4, 1): 1, (5, 0): 1,
                (5, 2): 2, (6, 0): 1, (6, 1): 3, (6, 2): 7, (7, 0): 1, (7, 2): 31}

    def test_balanced_graphs_of_max_degree_at_least_n_minus_3_are_regular(self):
        counts = {}
        for n in range(1, 8):
            pairs = list(combinations(range(1, n), 2))
            for c in range(min(3, n)):
                hub = (1 << n - c) - 2  # vertex 0 joined to 1..n-1-c
                base = [hub] + [1 if v < n - c else 0 for v in range(1, n)]
                counts[n, c] = 0
                for mask in range(1 << len(pairs)):
                    rows = base.copy()
                    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                    for u, v in edges:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                    try:
                        if not _transmission_regular(rows):
                            continue
                    except DisconnectedGraphError:
                        continue
                    counts[n, c] += 1
                    assert len({row.bit_count() for row in rows}) == 1, rows
                    edges += [(0, v) for v in range(1, n - c)]
                    assert len({sum(helpers.bfs_distances(n, edges, v))
                                for v in range(n)}) == 1, rows
        assert {key: count for key, count in counts.items() if count} == self.BALANCED


@pytest.mark.parametrize("run,passes", [
    (lambda: construct_closure(_two_labelings(canonical_family_tree(FamilyTag.S3, 40))[1]), 2),
    (lambda: construct_closure(_two_labelings(canonical_family_tree(FamilyTag.S3, 4))[1]), 3),
    (lambda: search_minimum_additions(
        _two_labelings(canonical_family_tree(FamilyTag.STAR, 9))[1],
        SearchConfig(prune_mode="regular")), 1),
    (lambda: search_minimum_additions(
        canonical_family_tree(FamilyTag.S22, 2), SearchConfig(prune_mode="regular")), 1),
    (lambda: search_minimum_additions(
        from_edge_list(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)]),
        SearchConfig(prune_mode="regular")), 1),
], ids=["closure_s3_40", "degenerate_s3_4", "regular_star_9", "regular_s22_2",
        "regular_bull_5"])
def test_bfs_passes(monkeypatch, run, passes):
    """Connectivity is tested once per layer: a connected graph with n - 1
    edges is a tree without a second BFS, and the regular mode takes an
    input as legal from its degrees alone.  A closure takes one pass in the
    classifier, which is its connectivity test, and one in the certificate's
    ball sweep; a degenerate one adds the search's.  The regular mode builds
    no branch swaps, so it takes no sweeps to find a tree's centre."""
    calls = []

    def counted(adj, source, levels=graph._levels):
        calls.append(source)
        return levels(adj, source)

    monkeypatch.setattr(graph, "_levels", counted)
    monkeypatch.setattr(search, "_levels", counted)
    run()
    assert len(calls) == passes


def test_regular_recursion_reads_the_clock(monkeypatch):
    """The s22 tree with m = 5 skips every regular level below k = 13, whose
    recursion then finds the answer without the candidate loop reading the
    clock; a clock already past the deadline must stop it inside the level."""
    reads = iter([0.0])  # the deadline is set at 0.0 + budget; later reads are late
    monkeypatch.setattr(search.time, "monotonic", lambda: next(reads, 2.0))
    tree = canonical_family_tree(FamilyTag.S22, 5)
    with pytest.raises(SearchBudgetError, match="inside level k=13") as exc_info:
        search_minimum_additions(
            tree, SearchConfig(prune_mode="regular", time_budget=1.0))
    assert exc_info.value.exhausted_k == 12
    assert exc_info.value.explored == 0


def _non_family_graphs():
    """Order-7 trees outside the families, where only the naive mode is legal."""
    return [from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
            from_edge_list(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])]


def test_explored_is_the_lex_count():
    """explored = the earlier levels' sizes + the first hit's rank + 1."""
    for t in _non_family_graphs() + [canonical_family_tree(FamilyTag.S22, 3)]:
        comp = complement_edges(t)
        res = search_minimum_additions(t)
        before = sum(comb(len(comp), j) for j in range(res.min_additions))
        level = combinations(comp, res.min_additions)
        rank = next(i for i, cand in enumerate(level) if cand == res.witnesses[0])
        assert res.explored == before + rank + 1


# graphs outside the families with twins: true twins (K4_tail: 0, 1, 2;
# diamond_tail: 0, 2) and false twins (C4_two_pendants: 1, 3; double_broom:
# 1, 2 and 5, 6)
TWIN_GRAPHS = {
    "K4_tail": from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                  (3, 4), (4, 5)]),
    "diamond_tail": from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2),
                                       (1, 4), (4, 5)]),
    "C4_two_pendants": from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4),
                                          (2, 5)]),
    "double_broom": from_edge_list(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5),
                                       (4, 6)]),
}


def _two_labelings(g):
    """``g`` and a seeded relabeling of it."""
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    return [g, relabel(g, perm)]


def _family_trees(order):
    """The five family trees of this order, each under two labelings."""
    return [t for tag, row in FAMILIES.items()
            for t in _two_labelings(canonical_family_tree(tag, order - row.order_offset))]


def _assert_matches_plain_scan(g):
    res = search_minimum_additions(g)
    assert (res.min_additions, res.witnesses[0], res.explored) == \
        helpers.naive_search_oracle(g), g


class TestTwinPruning:
    """The twin rule changes no witness, no minimum and no ``explored``."""

    def test_every_connected_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            for g in helpers.all_connected_graphs(n):
                _assert_matches_plain_scan(g)

    @pytest.mark.parametrize("order", [6, 7])
    def test_family_trees_under_two_labelings(self, order):
        for t in _family_trees(order):
            _assert_matches_plain_scan(t)

    @pytest.mark.parametrize("name", list(TWIN_GRAPHS))
    def test_graphs_with_twins(self, name):
        for g in _two_labelings(TWIN_GRAPHS[name]):
            _assert_matches_plain_scan(g)

    def test_all_witnesses_equal_the_unfiltered_scan(self):
        cases = [(t, mode) for t in _family_trees(6) for mode in ("naive", "regular")]
        cases += [(g, "naive") for name, g in TWIN_GRAPHS.items() if g.n <= 6]
        cases += [(g, "naive") for n in range(1, 6) for g in helpers.all_connected_graphs(n)]
        for g, mode in cases:
            res = search_minimum_additions(
                g, SearchConfig(prune_mode=mode, all_witnesses=True))
            unfiltered = tuple(
                added for added in combinations(complement_edges(g), res.min_additions)
                if is_distance_balanced(add_edges(g, added)))
            assert res.witnesses == unfiltered, (g, mode)

    def test_twin_swaps_of_named_graphs(self):
        assert search._twin_swaps(canonical_family_tree(FamilyTag.STAR, 6).adj) == [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        assert search._twin_swaps(canonical_family_tree(FamilyTag.BROOM, 4).adj) == [
            (2, 3), (3, 4), (5, 6)]
        assert search._twin_swaps(TWIN_GRAPHS["K4_tail"].adj) == [(0, 1), (1, 2)]
        assert search._twin_swaps(TWIN_GRAPHS["diamond_tail"].adj) == [(0, 2)]
        assert search._twin_swaps(TWIN_GRAPHS["C4_two_pendants"].adj) == [(1, 3)]
        assert search._twin_swaps(TWIN_GRAPHS["double_broom"].adj) == [(1, 2), (5, 6)]
        spider = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert search._twin_swaps(spider.adj) == []

    @given(helpers.connected_graphs(max_n=9))
    def test_every_swap_is_an_automorphism(self, g):
        for a, b in search._twin_swaps(g.adj):
            perm = list(range(g.n))
            perm[a], perm[b] = b, a
            assert relabel(g, perm) == g

    def test_star_balance_tests_only_twin_minimal_candidates(self, monkeypatch):
        """The m = 6 star enumerates all 2^15 candidates; its spokes are one
        twin class, and with the domination cut patched out a candidate
        reaches the BFS only when no swap of two label-adjacent spokes makes
        it smaller: 325 of them, against 156 orbits under all permutations
        of the spokes.  With the cut and the transmission floor patched out,
        every spoke stays dominated until an added edge touches it, and 2
        candidates are left.  With the floor too, the same 2: the centre's
        transmission, 6, puts every spoke 5 below the floor of 6, which no
        level below 15 can lift, so levels 1 to 14 are skipped before their
        first node."""
        calls = []
        check = search._transmission_regular
        monkeypatch.setattr(search, "_transmission_regular",
                            lambda rows: calls.append(1) or check(rows))
        star = canonical_family_tree(FamilyTag.STAR, 6)
        results, tests = [], []
        for patch_out in None, _without_floor, _without_cut:
            if patch_out:
                patch_out(monkeypatch)
            calls.clear()
            results.append(search_minimum_additions(star))
            tests.append(len(calls))
        assert results == [results[0]] * 3
        assert results[0].explored == 2 ** 15
        assert tests == [2, 2, 325]
        comp, perms = complement_edges(star), search._generators(star)
        assert all(_walk(star, comp, k, perms) == [] for k in range(1, 15))


# the order-7 spider with three legs of length 2: no twins, and its two
# generators swap the legs 1-2 with 3-4 and 3-4 with 5-6
SPIDER = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
SPIDER_SWAPS = [(0, 3, 4, 1, 2, 5, 6), (0, 1, 2, 5, 6, 3, 4)]


def _automorphism_count(g):
    """|Aut(g)| by trying every permutation."""
    edges = set(g.edges())
    return sum(all(tuple(sorted((p[u], p[v]))) in edges for u, v in edges)
               for p in permutations(range(g.n)))


def _generated_group(perms, n):
    """Every product of ``perms``, by closing the identity under them."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    for p in frontier:
        for s in perms:
            q = tuple(s[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def _dropped(comp, prefix, perms):
    """Whether a permutation maps the edges ``prefix`` indexes to a
    lex-smaller sorted edge list."""
    edges = [comp[i] for i in prefix]
    return any(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges) < edges
               for p in perms)


def _short_of_floor(g, added, left):
    """The vertices of ``g`` plus the edges ``added`` whose degree is below
    the transmission floor 2(n-1) - D(u), u the first vertex of maximum
    degree, from ``bfs_distances``; None when ``left`` more edges cannot
    lift them all to it."""
    edges = [*g.edges(), *added]
    degree = [0] * g.n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    floor = 2 * (g.n - 1) - sum(helpers.bfs_distances(g.n, edges, degree.index(max(degree))))
    gaps = {v: floor - d for v, d in enumerate(degree) if d < floor}
    if any(gap > left for gap in gaps.values()) or sum(gaps.values()) > 2 * left:
        return None
    return set(gaps)


def _walk(g, comp, k, perms, cut=True, floor=True):
    """The nodes of level k >= 1 in the order the depth-first walk visits
    them, each with the number of k-subsets before its lex subtree: every
    prefix of a k-subset, taken in lex order, whose shorter prefixes
    survive.  A prefix survives when no permutation maps it lex-smaller
    and, with a cut, when its graph has at most twice as many vertices to
    touch as edges left to pick and, with the floor, when the floor does not
    rule it out.  The vertices to touch are, with the domination cut, the
    dominated ones, with the floor those below it, and those of the shorter
    prefix that the last edge misses.  With a cut, a prefix is visited only
    when its last edge touches every vertex the shorter prefix must touch
    (a whole k-subset) or comes no later than the last edge that touches
    each of them (a shorter prefix), and a level whose input has more than
    2k vertices to touch, or that the floor rules out, visits nothing."""
    last_touch = [max((j for j, e in enumerate(comp) if x in e), default=-1)
                  for x in range(g.n)]
    musts = {}

    def must(prefix):  # None when the floor rules the prefix out
        if prefix not in musts:
            added = [comp[j] for j in prefix]
            out = _dominated_vertices(g, added) if cut else set()
            if prefix:
                out |= must(prefix[:-1]) - set(comp[prefix[-1]])
            short = _short_of_floor(g, added, k - len(prefix)) if floor else set()
            musts[prefix] = None if short is None else out | short
        return musts[prefix]

    def dead(prefix):
        return must(prefix) is None or len(must(prefix)) > 2 * (k - len(prefix))

    if (cut or floor) and dead(()):
        return []
    seen, nodes = set(), []
    for rank, cand in enumerate(combinations(range(len(comp)), k)):
        for depth in range(1, k + 1):
            prefix = cand[:depth]
            if cut or floor:
                before, pick = must(prefix[:-1]), prefix[-1]
                if depth == k and not before <= set(comp[pick]):
                    break
                if depth < k and any(pick > last_touch[x] for x in before):
                    break
            if prefix not in seen:
                seen.add(prefix)
                nodes.append((prefix, rank))
            if _dropped(comp, prefix, perms):
                break
            if (cut or floor) and depth < k and dead(prefix):
                break
    return nodes


class TestSubtreePruning:
    """Branch swaps of trees, and the depth-first walk that drops whole
    lex subtrees: the same witnesses, minimum and ``explored``."""

    @given(helpers.trees(max_n=12), st.randoms(use_true_random=False))
    def test_every_tree_generator_is_an_automorphism(self, tree, rnd):
        perm = list(range(tree.n))
        rnd.shuffle(perm)
        g = relabel(tree, perm)
        for p in search._generators(g):
            assert relabel(g, p) == g

    @given(helpers.connected_graphs(max_n=9))
    def test_every_graph_generator_is_an_automorphism(self, g):
        for p in search._generators(g):
            assert relabel(g, p) == g

    def test_generators_of_named_trees(self):
        assert search._generators(SPIDER) == SPIDER_SWAPS
        # bicentral with equal halves: centres 0 and 1, two leaves each
        double_star = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert search._generators(double_star) == [
            (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4), (1, 0, 4, 5, 2, 3)]
        assert search._generators(path_graph(4)) == [(3, 2, 1, 0)]
        star = canonical_family_tree(FamilyTag.STAR, 6)
        assert search._generators(star) == [
            tuple(b if v == a else a if v == b else v for v in range(7))
            for a, b in search._twin_swaps(star.adj)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_branch_swaps_generate_the_automorphism_group(self, n):
        for t in helpers.all_trees(n):
            group = _generated_group(search._generators(t), n)
            assert len(group) == _automorphism_count(t), t

    def test_generators_of_every_tree_are_pinned(self):
        """The generators decide which candidates reach the balance test.
        Their digest covers every tree with n <= 10, as enumerated and under
        two seeded relabelings: a change to the centre, the codes or the
        order of the swaps shows here."""
        rnd, graphs = random.Random(10), []
        for n in range(1, 11):
            for t in helpers.all_trees(n):
                graphs.append(t)
                for _ in range(2):
                    perm = list(range(n))
                    rnd.shuffle(perm)
                    graphs.append(relabel(t, perm))
        assert len(graphs) == 603
        digest = hashlib.sha256(repr([search._generators(g) for g in graphs]).encode())
        assert digest.hexdigest() == \
            "f43e83e6ddbad3eb12a708388e54074b6ffe18ee2d343689dec468cf5b40ba57"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_tree_under_two_labelings(self, n):
        for t in helpers.all_trees(n):
            for g in _two_labelings(t):
                _assert_matches_plain_scan(g)

    def test_image_tables_keep_the_permutations_that_fit_their_bound(self):
        """The m = 63 star has 62 leaf swaps and 1953 missing edges; each
        packed permutation takes 2 * 1954^2 bits, so only the first few fit
        _MAX_TABLE_BITS, and the search still finds its one witness."""
        star = canonical_family_tree(FamilyTag.STAR, 63)
        comp = complement_edges(star)
        perms = search._generators(star)
        tables = search._image_tables(perms, comp)
        per_perm = 2 * (len(comp) + 1) ** 2
        kept = tables.ones.bit_count()
        assert 0 < kept < len(perms) == 62
        assert kept * per_perm <= search._MAX_TABLE_BITS < (kept + 1) * per_perm
        setup = search._setup(star.adj, comp)
        assert search._level(star.adj, setup, len(comp), tables, None, False)[0] \
            == [tuple(range(len(comp)))]

    def test_spider_balance_tests_only_subtree_survivors(self, monkeypatch):
        """The spider has no twins, so the twin rule tests every one of its
        19,274 candidates up to the first witness; with the domination cut
        and the transmission floor patched out its leg swaps leave 3,999,
        with the cut alone 389, and with the cut and the floor 8."""
        calls = []
        check = search._transmission_regular
        monkeypatch.setattr(search, "_transmission_regular",
                            lambda rows: calls.append(1) or check(rows))
        results, tests = [], []
        for patch_out in None, _without_floor, _without_cut:
            if patch_out:
                patch_out(monkeypatch)
            calls.clear()
            results.append(search_minimum_additions(SPIDER))
            tests.append(len(calls))
        assert results == [results[0]] * 3
        assert results[0].explored == 19274
        assert tests == [8, 389, 3999]

    @pytest.mark.parametrize("late_read", [2, 3])
    def test_budget_holds_while_subtrees_are_dropped(self, monkeypatch, late_read):
        """The clock is read before every _DEADLINE_STRIDE-th node the walk
        visits, dropped ones included.  Level 5 of the spider, the first
        level the walk enters, visits 71 nodes, which a stride of 16 reads at
        five of them.  With the transmission floor patched out it is the
        first level of more than one stride: it visits 294, which a stride
        of 128 reads at three of them, and with the domination cut patched
        out too 1,065.  A clock that turns late at a later read inside it
        stops the search at the node that read comes before, and
        ``explored`` counts the subsets before that node's lex subtree."""
        level = 5
        comp = complement_edges(SPIDER)
        levels = _spy_levels(monkeypatch)
        for cut, floor, stride, count in ((True, True, 16, 71), (True, False, 128, 294),
                                          (False, False, search._DEADLINE_STRIDE, 1065)):
            if not floor:
                _without_floor(monkeypatch)
            if not cut:
                _without_cut(monkeypatch)
            monkeypatch.setattr(search, "_DEADLINE_STRIDE", stride)
            levels.clear()
            reads = []

            def clock():
                if not levels or levels[-1][0] != level:
                    return 0.0
                reads.append(1)
                return 2.0 if len(reads) >= late_read else 0.0

            monkeypatch.setattr(search.time, "monotonic", clock)
            with pytest.raises(SearchBudgetError, match=f"inside level k={level}") as exc_info:
                search_minimum_additions(SPIDER, SearchConfig(time_budget=1.0))
            nodes = _walk(SPIDER, comp, level, SPIDER_SWAPS, cut, floor)
            late = (late_read - 1) * stride
            assert len(nodes) == count
            assert exc_info.value.exhausted_k == level - 1
            assert exc_info.value.explored == sum(comb(len(comp), j) for j in range(level)) \
                + nodes[late][1]

    def test_budget_holds_at_every_node_of_a_level(self, monkeypatch):
        """With the clock read at every node, a clock that turns late at any
        node of a level below the witness level (so pruned by the
        automorphisms even with every witness wanted) stops the search at
        that node, a leaf in the leaf loop or a prefix before it, dropped or
        not.  Level 5 of the spider has 71 nodes, 6 of them leaves.  Level 3
        of the m = 4 star has none: its spokes are 3 below the floor of 4.
        With the transmission floor patched out it has 5, none a leaf, as
        the centre dominates every spoke that is not joined to all the
        others; with the domination cut patched out too, 12.  ``explored``
        counts the k-subsets before the first one that starts with the
        node's edges, the lex rank of a leaf."""
        star = canonical_family_tree(FamilyTag.STAR, 4)
        assert _walk(star, complement_edges(star), 3, search._generators(star)) == []
        monkeypatch.setattr(search, "_DEADLINE_STRIDE", 1)
        levels = _spy_levels(monkeypatch)
        cases = [(SPIDER, 5, True, True, 71, 6), (star, 3, True, False, 5, 0),
                 (star, 3, False, False, 12, 4)]
        for g, level, cut, floor, count, leaves in cases:
            if not floor:
                _without_floor(monkeypatch)
            if not cut:
                _without_cut(monkeypatch)
            comp = complement_edges(g)
            subsets = list(combinations(range(len(comp)), level))
            nodes = [prefix for prefix, _ in
                     _walk(g, comp, level, search._generators(g), cut, floor)]
            assert (len(nodes), sum(len(p) == level for p in nodes)) == (count, leaves)
            for late_read, prefix in enumerate(nodes, 1):
                levels.clear()
                reads = []

                def clock():
                    if levels and levels[-1][0] == level:
                        reads.append(1)
                    return 2.0 if len(reads) >= late_read else 0.0

                monkeypatch.setattr(search.time, "monotonic", clock)
                with pytest.raises(SearchBudgetError, match=f"inside level k={level}") as exc_info:
                    search_minimum_additions(
                        g, SearchConfig(all_witnesses=True, time_budget=1.0))
                rank = next(r for r, s in enumerate(subsets) if s[:len(prefix)] == prefix)
                assert exc_info.value.exhausted_k == level - 1
                assert exc_info.value.explored == \
                    sum(comb(len(comp), j) for j in range(level)) + rank, (g, cut, floor, prefix)


class TestDominationCut:
    """A vertex x with a neighbour y such that N[x] is a proper subset of
    N[y] has only itself closer to x than to y, so no balanced graph has
    one; the walk cuts every lex subtree whose completions keep one."""

    def test_dominated_matches_its_definition(self, small_connected_graphs):
        for graphs in small_connected_graphs.values():
            for g in graphs:
                everyone = (1 << g.n) - 1
                assert search._dominated(list(g.adj), everyone, everyone) == \
                    sum(1 << x for x in _dominated_vertices(g)), g

    def test_a_dominated_vertex_is_closer_only_to_itself(self, small_connected_graphs):
        """The lemma's proof on every connected graph with n <= 5: for each
        edge xy with N[x] a proper subset of N[y], every w other than x is
        at least as close to y as to x, and y and the vertices N[y] has
        beyond N[x] are closer to y."""
        for n in range(1, 6):
            for g in small_connected_graphs[n]:
                closed = [{v} | {w for w in range(n) if g.adj[v] >> w & 1} for v in range(n)]
                for x in _dominated_vertices(g):
                    for y in closed[x]:
                        if closed[x] < closed[y]:
                            near_x, near_y, _ = helpers.partition(g, x, y)
                            assert near_x == {x}, (g, x, y)
                            assert near_y >= closed[y] - closed[x] | {y}, (g, x, y)

    def test_balanced_graphs_have_no_dominated_vertex(self, small_connected_graphs):
        balanced = [g for graphs in small_connected_graphs.values() for g in graphs
                    if is_distance_balanced(g)] + [helpers.three_diamonds()]
        assert len(balanced) > 100
        for g in balanced:
            assert not _dominated_vertices(g), g

    def test_walk_visits_the_model_nodes(self, monkeypatch, small_connected_graphs):
        """With the clock read at every node, the walk of every level of
        every connected graph with n <= 5 reads it once per node of
        ``_walk``'s model, and balance-tests exactly its leaves that no
        permutation maps lex-smaller; with the transmission floor and with
        it patched out."""
        reads = []
        monkeypatch.setattr(search, "_DEADLINE_STRIDE", 1)
        monkeypatch.setattr(search.time, "monotonic", lambda: reads.append(1) or 0.0)
        for floor in True, False:
            if not floor:
                _without_floor(monkeypatch)
            for n in range(1, 6):
                for g in small_connected_graphs[n]:
                    comp = complement_edges(g)
                    setup = search._setup(g.adj, comp)
                    perms = search._generators(g)
                    tables = search._image_tables(perms, comp)
                    for k in range(1, len(comp) + 1):
                        reads.clear()
                        _, lex, tested, timed_out = search._level(
                            g.adj, setup, k, tables, 1.0, True)
                        nodes = [prefix for prefix, _ in _walk(g, comp, k, perms, floor=floor)]
                        leaves = [p for p in nodes
                                  if len(p) == k and not _dropped(comp, p, perms)]
                        assert (len(reads), tested, lex, timed_out) == \
                            (len(nodes), len(leaves), comb(len(comp), k), False), (g, k, floor)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cut_changes_no_search_result(self, monkeypatch, small_connected_graphs,
                                          uncut_runs, n):
        """On every labelled connected graph with n <= 6, the search with the
        cut and with it patched out, the transmission floor patched out in
        both, returns the same result, with every witness wanted and with
        the first (``_level_runs``)."""
        _without_floor(monkeypatch)
        assert _level_runs(monkeypatch, small_connected_graphs[n]) == uncut_runs(n)


def _level_runs(monkeypatch, graphs):
    """Per graph, its search with every witness wanted and the outputs of
    the level walks it makes, all but the balance tests.  A walk of each
    level up to the first witness's, pruned, is the whole walk of a
    first-witness search, so these outputs also decide the result of one."""
    calls = []
    real = search._level

    def spy(*args):
        out = real(*args)
        calls.append((out[0], out[1], out[3]))
        return out

    monkeypatch.setattr(search, "_level", spy)
    runs = []
    for g in graphs:
        calls.clear()
        res = search_minimum_additions(g, SearchConfig(all_witnesses=True))
        runs.append((res, calls.copy()))
    return runs


@pytest.fixture(scope="session")
def uncut_runs(small_connected_graphs):
    """``_level_runs`` of every labelled connected graph with n vertices,
    n <= 6, with the domination cut and the transmission floor patched out:
    the baseline each cut is compared against, taken once per n."""
    runs = {}

    def of_order(n):
        if n not in runs:
            with pytest.MonkeyPatch.context() as patch:
                _without_cut(patch)
                _without_floor(patch)
                runs[n] = _level_runs(patch, small_connected_graphs[n])
        return runs[n]

    return of_order


class TestTransmissionFloor:
    """Lemma F: a balanced graph that contains a connected graph H on the
    same vertices has no degree below 2(n-1) - D_H(u), for any u.  The walk
    drops every lex subtree whose completions cannot lift each vertex to
    that floor."""

    def test_lemma_on_every_small_graph(self, small_connected_graphs):
        """For every connected graph H with n <= 6 and each balanced graph
        on its vertices that contains it, the least degree of the balanced
        graph is at least 2(n-1) - D_H(u) for the u of least transmission,
        and so for every u; transmissions from ``bfs_distances``."""
        pairs_checked = 0
        for n, graphs in small_connected_graphs.items():
            index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
            least = {}  # edge mask -> the least transmission
            balanced = []  # (edge mask, least degree)
            for g in graphs:
                edges = g.edges()
                mask = sum(1 << index[e] for e in edges)
                trans = [sum(helpers.bfs_distances(n, edges, u)) for u in range(n)]
                least[mask] = min(trans)
                if len(set(trans)) == 1:
                    balanced.append((mask, min(g.degree(v) for v in range(n))))
            for big, low in balanced:
                sub = big
                while sub:  # every edge set inside ``big``
                    if sub in least:
                        assert low >= 2 * (n - 1) - least[sub], (n, big, sub)
                        pairs_checked += 1
                    sub = (sub - 1) & big
        assert pairs_checked == 81752

    @pytest.mark.parametrize("n", range(1, 7))
    def test_floor_changes_no_search_result(self, monkeypatch, small_connected_graphs,
                                            uncut_runs, n):
        """On every labelled connected graph with n <= 6, the search with
        the floor and the domination cut returns the same result as with
        both patched out, with every witness wanted and with the first;
        with ``test_cut_changes_no_search_result``, the floor changes no
        result of the search with the cut."""
        assert _level_runs(monkeypatch, small_connected_graphs[n]) == uncut_runs(n)
