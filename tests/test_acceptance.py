"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
"""

import random
import time

import helpers
from distbalance import (
    FamilyTag,
    SearchConfig,
    canonical_family_tree,
    complement_edges,
    complete_graph,
    construct_closure,
    cycle_graph,
    imbalance_report,
    is_distance_balanced,
    minimum_additions_formula,
    path_graph,
    regular_degree,
    search_minimum_additions,
    szeged_index,
    TreeFamily,
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_balance_regularity_equivalence(small_connected_graphs):
    """Among all connected graphs on n <= 6 with diameter at most 2, being
    distance-balanced is equivalent to being regular."""
    started = time.perf_counter()
    checked = 0
    counterexamples = []
    for n, graphs in small_connected_graphs.items():
        for g in graphs:
            edges = g.edges()
            if any(max(helpers.bfs_distances(n, edges, v)) > 2 for v in range(n)):
                continue
            checked += 1
            balanced = is_distance_balanced(g)
            regular = regular_degree(g) is not None
            if balanced != regular:
                counterexamples.append(g)
    elapsed = time.perf_counter() - started
    ok = not counterexamples and elapsed <= 30.0
    _verdict(1, ok, f"{checked} diameter<=2 graphs checked, "
                    f"{len(counterexamples)} counterexamples, {elapsed:.1f}s")
    assert not counterexamples, counterexamples[:3]
    assert elapsed <= 30.0


# (family, m, expected additions); the oracle runs naive, and at n = 8 the
# regular prune as well
CLOSED_FORM_INSTANCES = [
    (FamilyTag.STAR, 3, 3), (FamilyTag.STAR, 4, 6), (FamilyTag.STAR, 5, 10),
    (FamilyTag.S2, 3, 6), (FamilyTag.S2, 4, 7), (FamilyTag.S2, 5, 15),
    (FamilyTag.S2, 6, 17),
    (FamilyTag.S22, 3, 4), (FamilyTag.S22, 4, 8), (FamilyTag.S22, 5, 13),
    (FamilyTag.S3, 3, 4), (FamilyTag.S3, 4, 8), (FamilyTag.S3, 5, 13),
    (FamilyTag.BROOM, 3, 4), (FamilyTag.BROOM, 4, 8), (FamilyTag.BROOM, 5, 13),
]


def test_criterion_2_closed_forms_certified_by_oracle():
    """Every closed-form value equals the independent exhaustive search:
    naive enumeration at every order, and at n = 8 also the degree prune."""
    started = time.perf_counter()
    failures = []
    for tag, m, expected in CLOSED_FORM_INSTANCES:
        tree = canonical_family_tree(tag, m)
        assert minimum_additions_formula(TreeFamily(tag, m, None)) == expected
        for mode in ("naive", "regular") if tree.n == 8 else ("naive",):
            result = search_minimum_additions(tree, SearchConfig(prune_mode=mode))
            if result.min_additions != expected:
                failures.append((tag.value, m, mode, result.min_additions, expected))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed <= 120.0
    _verdict(2, ok, f"{len(CLOSED_FORM_INSTANCES)} instances certified, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed <= 120.0


def test_criterion_3_construction_certificates():
    """For every family and 3 <= m <= 12 the constructed closure contains
    the tree, is distance-balanced, is regular with diameter <= 2, and adds
    exactly the closed-form number of edges, within 1 s per instance."""
    failures = []
    slowest = 0.0
    count = 0
    for tag in (FamilyTag.STAR, FamilyTag.S2, FamilyTag.S22,
                FamilyTag.S3, FamilyTag.BROOM):
        for m in range(3, 13):
            count += 1
            tree = canonical_family_tree(tag, m)
            t0 = time.perf_counter()
            res = construct_closure(tree)
            slowest = max(slowest, time.perf_counter() - t0)
            cert = res.certificate
            checks = (cert.contains_input and cert.distance_balanced
                      and cert.regular_degree is not None and cert.diameter <= 2
                      and cert.matches_formula
                      and res.min_additions == minimum_additions_formula(res.family))
            if not checks:
                failures.append((tag.value, m, cert))
    ok = not failures and slowest <= 1.0
    _verdict(3, ok, f"{count} constructions certified, slowest {slowest * 1000:.0f}ms")
    assert not failures, failures
    assert slowest <= 1.0


def test_criterion_4_structural_identities():
    """The m=3 two-long-branch closure is K_{3,3}; the m=4 one-long-branch
    closure is K_6 minus a perfect matching through (0,5); the m=3
    length-3-branch tree closes to the triangular prism with 4 additions."""
    problems = []

    s22 = construct_closure(canonical_family_tree(FamilyTag.S22, 3))
    if not helpers.are_isomorphic(s22.closure, helpers.complete_bipartite(3, 3)):
        problems.append("s22 m=3 closure is not K_{3,3}")

    s2 = construct_closure(canonical_family_tree(FamilyTag.S2, 4))
    removed = set(complete_graph(6).edges()) - set(s2.closure.edges())
    matched = sorted(v for e in removed for v in e)
    if not (len(removed) == 3 and (0, 5) in removed and matched == list(range(6))):
        problems.append("s2 m=4 closure is not K_6 minus a matching through (0,5)")
    if s2.certificate.regular_degree != 4 or s2.certificate.diameter != 2:
        problems.append("s2 m=4 closure is not 4-regular with diameter 2")

    s3 = construct_closure(canonical_family_tree(FamilyTag.S3, 3))
    if not (s3.via_search and s3.min_additions == 4):
        problems.append("s3 m=3 did not reach 4 additions via the search fallback")
    if s3.certificate.regular_degree != 3:
        problems.append("s3 m=3 closure is not 3-regular")
    if not helpers.are_isomorphic(s3.closure, helpers.prism_graph()):
        problems.append("s3 m=3 closure is not the triangular prism")

    _verdict(4, not problems, "K_{3,3}, matching, and prism identities"
             + ("" if not problems else f" -> {problems}"))
    assert not problems, problems


def test_criterion_5_partition_and_neighborhood_properties(random_corpus):
    """On 1000 seeded random connected graphs: for every edge and up to 100
    random non-adjacent pairs, the three closer-sets built from
    ``helpers.bfs_distances`` partition the vertex set, nothing besides x
    itself is both closer to x and adjacent to y, and neighbors of y that
    are not closer to y lie in N[x]; for every edge, the product's per-edge
    counts (the ``imbalance_report`` records) are the closer-sets' sizes."""
    rng = random.Random(991)
    violations = 0
    pairs_checked = 0
    for g in random_corpus:
        non_edges = complement_edges(g)
        if len(non_edges) > 100:
            non_edges = rng.sample(non_edges, 100)
        counts = {(r.x, r.y): (r.closer_to_x, r.closer_to_y)
                  for r in imbalance_report(g).records}
        for x, y in g.edges() + non_edges:
            pairs_checked += 1
            near_x, near_y, equal = helpers.partition(g, x, y)
            ny = set(g.neighbors(y))
            nx = set(g.neighbors(x))
            if near_x | near_y | equal != set(range(g.n)) or \
                    len(near_x) + len(near_y) + len(equal) != g.n:
                violations += 1
            elif (near_x - {x}) & ny:
                violations += 1
            elif not ny - near_y <= nx | {x}:
                violations += 1
            elif (x, y) in counts and counts[x, y] != (len(near_x), len(near_y)):
                violations += 1
    ok = violations == 0
    _verdict(5, ok, f"{pairs_checked} pairs on {len(random_corpus)} graphs, "
                    f"{violations} violations")
    assert violations == 0


def test_criterion_6_oracle_self_consistency(high_degree_trees):
    """Naive and regular-pruned searches agree on every tree with maximum
    degree >= n-3 and n <= 7, and a repeat run gives the same first
    witness."""
    mismatches = []
    for t in high_degree_trees:
        naive = search_minimum_additions(t, SearchConfig(prune_mode="naive"))
        regular = search_minimum_additions(t, SearchConfig(prune_mode="regular"))
        if naive.min_additions != regular.min_additions:
            mismatches.append(("b", t))
            continue
        naive_again = search_minimum_additions(t, SearchConfig(prune_mode="naive"))
        regular_again = search_minimum_additions(t, SearchConfig(prune_mode="regular"))
        if naive_again.witnesses[0] != naive.witnesses[0]:
            mismatches.append(("naive witness", t))
        if regular_again.witnesses[0] != regular.witnesses[0]:
            mismatches.append(("regular witness", t))
    ok = not mismatches
    _verdict(6, ok, f"{len(high_degree_trees)} trees, modes and repeat runs agree")
    assert not mismatches, mismatches


def test_criterion_7_szeged_checks():
    """Szeged index closed forms: complete graphs, paths, and the 4-cycle."""
    problems = []
    for n in range(1, 9):
        if szeged_index(complete_graph(n)) != n * (n - 1) // 2:
            problems.append(f"K_{n}")
    for n in range(1, 11):
        expected = sum(i * (n - i) for i in range(1, n))
        if szeged_index(path_graph(n)) != expected:
            problems.append(f"P_{n}")
    if szeged_index(cycle_graph(4)) != 16:
        problems.append("C_4")
    _verdict(7, not problems, "complete graphs n<=8, paths n<=10, C_4")
    assert not problems, problems
