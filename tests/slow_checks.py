"""The checks on inputs larger than tier-1's, against the closed form and
the naive search, which rests on no theorem.  Run them with

    python -m pytest -q tests/slow_checks.py --durations=0

(about 15 s on one CPU).  Tier-1 does not collect this file, whose name does
not match ``test_*.py``; the CI workflow runs it by path."""

import random

import pytest

import helpers
from helpers import run_cli, run_json
from distbalance import FamilyTag, canonical_family_tree, relabel, write_edge_list
from distbalance.closure import _additions


@pytest.mark.parametrize("spec", helpers.FAMILY_TREES[13], ids=lambda spec: spec[2])
def test_family_tree_searches_at_order_13(tmp_path, spec):
    """s3 with m = 10, whose hub has eccentricity 3, is the slowest naive
    search of the five (about 0.05 s on one CPU)."""
    helpers.check_family_tree_search(tmp_path / "tree.el", *spec)


def _shuffled(tree, seed):
    perm = list(range(tree.n))
    random.Random(seed).shuffle(perm)
    return relabel(tree, perm)


@pytest.mark.parametrize("tree", [
    canonical_family_tree(FamilyTag.S3, 12),
    _shuffled(canonical_family_tree(FamilyTag.S22, 12), 2),
], ids=["s3", "s22_shuffled"])
def test_naive_search_at_order_15_keeps_a_short_budget(tmp_path, tree):
    """The naive minimum of canonical s3 and of an s22 relabelled at random,
    both with m = 12, is the closed form r n / 2 - (n - 1) = 90 - 14 = 76,
    inside a 5 s budget.  Each takes well under a second; a walk that cuts
    each vertex's range only at its last complement edge took more than
    60 s and about 25 s."""
    path = tmp_path / "tree.el"
    write_edge_list(tree, path)
    code, report = run_json(["closure", str(path), "--mode", "search", "--budget", "5",
                             "--json"])
    assert code == 0
    assert report["result"]["min_added_edges"] == _additions(15, 12, 14) == 76


# the seven trees of order 9 with maximum degree n - 4 = 5, which no family
# row covers: hub 0 with spokes 1..5, and 6, 7, 8 attached by these edges
DELTA_5_TREES = {
    "path": [(1, 6), (6, 7), (7, 8)],
    "cherry": [(1, 6), (6, 7), (6, 8)],
    "fork": [(1, 6), (1, 7), (6, 8)],
    "claw": [(1, 6), (1, 7), (1, 8)],
    "path_and_leg": [(1, 6), (6, 7), (2, 8)],
    "pair_and_leg": [(1, 6), (1, 7), (2, 8)],
    "legs": [(1, 6), (2, 7), (3, 8)],
}


@pytest.mark.parametrize("shape", DELTA_5_TREES)
def test_order_9_trees_with_max_degree_5(tmp_path, shape):
    """The naive minimum is the closed form r n / 2 - (n - 1) = 27 - 8 = 19
    with r = 6."""
    path = tmp_path / "tree.el"
    edges = [(0, v) for v in range(1, 6)] + DELTA_5_TREES[shape]
    path.write_text("9\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, report = run_json(["closure", str(path), "--mode", "search",
                             "--prune", "naive", "--budget", "120", "--json"])
    assert code == 0 and report["result"]["min_added_edges"] == 19


@pytest.mark.parametrize("kind,param,count", [
    ("starlike", "3,1^7", 55_783),
    ("broom", "8", 51_786),
])
def test_all_witnesses_at_order_11(tmp_path, kind, param, count):
    """Every minimal witness of s3 and broom with m = 8 (n = 11): the pruned
    walk's hits closed under the automorphisms it pruned by.  The counts are
    those of the walk without automorphisms, which took 45-69 s a search."""
    path = str(tmp_path / "tree.el")
    assert run_cli(["gen", kind, param, "--out", path])[0] == 0
    code, report = run_json(["closure", path, "--mode", "search",
                             "--all-witnesses", "--budget", "60", "--json"])
    assert code == 0 and report["result"]["min_added_edges"] == 34
    assert len(report["result"]["witnesses"]) == count


def test_free_tree_census_at_order_9():
    """``helpers.tree_census`` on the 47 trees of order 9: 30 close with the
    closed form; the other 17 have maximum degree 3 or 4 and close with 7
    added edges, not 10, to a balanced graph that is not regular.  Lemma M
    applies to 14 of the 47."""
    assert helpers.tree_census(9) == helpers.TREE_CENSUS[9]
