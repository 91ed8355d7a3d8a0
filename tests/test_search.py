"""The exhaustive search oracle: witnesses, pruning, budgets, determinism."""

from itertools import combinations

import pytest

from distbalance import (
    DisconnectedGraphError,
    FamilyTag,
    GraphTooLargeError,
    InfeasibleDegreeError,
    PruneModeUnjustifiedError,
    SearchBudgetError,
    SearchConfig,
    SearchProgress,
    add_edges,
    canonical_family_tree,
    complement_edges,
    complete_graph,
    count_balanced_additions,
    cycle_graph,
    enumerate_regular_supergraphs,
    from_edge_list,
    is_distance_balanced,
    path_graph,
    regular_degree,
    search_minimum_additions,
)


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
        ("threads", 0), ("threads", -2), ("max_k", -1),
        ("time_budget", 0.0), ("time_budget", -1.0)])
    def test_out_of_range_config_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            search_minimum_additions(path_graph(5), SearchConfig(**{field: value}))

    def test_regular_mode_refused_off_domain(self):
        # P_6: diameter 5 and max degree 2 < n-3 = 3
        with pytest.raises(PruneModeUnjustifiedError):
            search_minimum_additions(path_graph(6), SearchConfig(prune_mode="regular"))

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


class TestRegularEnumeration:
    def test_cycle_is_its_own_supergraph(self):
        graphs = list(enumerate_regular_supergraphs(cycle_graph(4), 2))
        assert graphs == [cycle_graph(4)]

    def test_infeasible_degree(self):
        with pytest.raises(InfeasibleDegreeError):
            enumerate_regular_supergraphs(canonical_family_tree(FamilyTag.STAR, 3), 2)
        with pytest.raises(InfeasibleDegreeError):
            enumerate_regular_supergraphs(path_graph(3), 1)  # n*r odd
        with pytest.raises(InfeasibleDegreeError):
            enumerate_regular_supergraphs(path_graph(3), 3)  # r > n-1

    def test_s3_canonical_has_balanced_3_regular_supergraph(self):
        tree = canonical_family_tree(FamilyTag.S3, 3)
        graphs = list(enumerate_regular_supergraphs(tree, 3))
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
        assert list(enumerate_regular_supergraphs(g, r)) == expected


class TestCountBalancedAdditions:
    def test_cycle_at_zero(self):
        assert count_balanced_additions(cycle_graph(4), 0) == 1

    def test_p5_unique_single_addition(self):
        assert count_balanced_additions(path_graph(5), 1) == 1

    def test_star3_no_two_edge_fix(self):
        assert count_balanced_additions(canonical_family_tree(FamilyTag.STAR, 3), 2) == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            count_balanced_additions(cycle_graph(4), 5)


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

    def test_balanced_input_single_empty_witness(self):
        res = search_minimum_additions(cycle_graph(5),
                                       SearchConfig(all_witnesses=True))
        assert res.witnesses == ((),)


class TestDeterminismAndThreads:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_matches_serial(self, threads):
        for t in [path_graph(5), canonical_family_tree(FamilyTag.STAR, 4),
                  canonical_family_tree(FamilyTag.S22, 3)]:
            serial = search_minimum_additions(t)
            threaded = search_minimum_additions(t, SearchConfig(threads=threads))
            assert threaded.min_additions == serial.min_additions
            assert threaded.witnesses[0] == serial.witnesses[0]

    def test_threaded_all_witnesses(self):
        tree = canonical_family_tree(FamilyTag.S2, 4)
        serial = search_minimum_additions(tree, SearchConfig(all_witnesses=True))
        threaded = search_minimum_additions(
            tree, SearchConfig(all_witnesses=True, threads=4))
        assert threaded.witnesses == serial.witnesses

    def test_repeat_runs_identical(self):
        t = canonical_family_tree(FamilyTag.S22, 3)
        first = search_minimum_additions(t)
        second = search_minimum_additions(t)
        assert first == second


class TestProgress:
    def test_progress_is_updated(self):
        progress = SearchProgress()
        res = search_minimum_additions(path_graph(5), progress=progress)
        assert progress.current_k == res.min_additions
        assert progress.explored == res.explored


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


def test_minimality_spot_check_on_acceptance_instances():
    """Independent spot check one level below the answer: no (b-1)-subset
    of complement edges balances any closed-form family instance."""
    from test_acceptance import CLOSED_FORM_INSTANCES

    for tag, m, expected in CLOSED_FORM_INSTANCES:
        tree = canonical_family_tree(tag, m)
        assert count_balanced_additions(tree, expected - 1) == 0, (tag, m)


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
    """Search equals the closed form across the whole small range."""
    from distbalance import FamilyTag, TreeFamily, minimum_additions_formula

    cases = ([(FamilyTag.STAR, m) for m in range(1, 7)]
             + [(FamilyTag.S2, m) for m in range(2, 7)]
             + [(FamilyTag.S22, m) for m in range(2, 6)]
             + [(FamilyTag.S3, m) for m in range(3, 6)]
             + [(FamilyTag.BROOM, m) for m in range(3, 6)])
    for tag, m in cases:
        tree = canonical_family_tree(tag, m)
        mode = "naive" if tree.n <= 7 else "regular"
        res = search_minimum_additions(tree, SearchConfig(prune_mode=mode))
        assert res.min_additions == minimum_additions_formula(
            TreeFamily(tag, m, None)), (tag, m)
