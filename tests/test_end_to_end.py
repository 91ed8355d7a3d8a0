"""The CLI end to end, run in-process as ``distbalance <argv>``: the README's
examples, the family survey, the Szeged index on each route of the distance
report, and the naive search on the family trees of order 11.  The checks
that take over a second each are in ``slow_checks.py``, which the CI
workflow runs and tier-1 does not collect."""

import re
from pathlib import Path

import pytest

import helpers
from helpers import run_cli, run_json

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) of each ``$ distbalance`` command in the README's
    "Examples:" block; a trailing ``# comment`` is not part of the argv."""
    block = README.read_text().split("\nExamples:\n\n```\n", 1)[1].split("\n```\n", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ distbalance "):
            examples.append((re.sub(r" +#.*", "", line).split()[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


def test_readme_examples(tmp_path, monkeypatch):
    """Each command of the README's examples, run in a fresh directory,
    prints exactly the lines the README shows under it, and the five exit
    with 0, 2, 0, 0 and 0."""
    monkeypatch.chdir(tmp_path)
    examples = _examples()
    runs = [run_cli(argv) for argv, _ in examples]
    assert [code for code, _ in runs] == [0, 2, 0, 0, 0]
    assert [out.splitlines() for _, out in runs] == [lines for _, lines in examples]
    printed = [line for _, out in runs for line in out.splitlines()]
    for line in ("family: s22 (m=3)", "min added edges: 4", "all rows pass: true"):
        assert line in printed


def test_family_survey_against_the_naive_search():
    """The README's survey, ``verify --family all --m 3..12 --oracle``: each of
    its 50 rows, n <= 15, carries the naive search's minimum, which rests on
    no theorem, and every row passes."""
    code, report = run_json(["verify", "--family", "all", "--m", "3..12", "--oracle", "--json"])
    assert code == 0 and report["result"]["all_pass"] is True
    assert sum(row["oracle"] is not None for row in report["result"]["rows"]) == 50


def _szeged(path: str, balance_code: int) -> tuple[int, dict]:
    """``szeged``'s value on ``path``, which must equal the sum over ``check
    --report``'s rows, and that report; check must exit ``balance_code``."""
    code, szeged = run_json(["szeged", path, "--json"])
    assert code == 0
    code, report = run_json(["check", path, "--report", "--json"])
    assert code == balance_code
    value = szeged["result"]["szeged_index"]
    assert value == sum(cx * cy for _, _, cx, cy in report["result"]["records"])
    return value, report


@pytest.mark.parametrize("kind,n,value,balance_code", [
    ("path", "3000", 4_499_999_500, 2),  # a tree
    ("cycle", "1000", 250_000_000, 0),  # bipartite
    ("cycle", "1001", 250_250_000, 0),  # neither
])
def test_szeged_closed_forms(tmp_path, kind, n, value, balance_code):
    """One generated graph per route of the distance report: ``szeged`` gives
    the closed form, and ``check --report`` the same sum over its rows and
    the exit code of its balance."""
    path = str(tmp_path / "g.el")
    assert run_cli(["gen", kind, n, "--out", path])[0] == 0
    assert _szeged(path, balance_code)[0] == value


def test_szeged_on_the_degree_route(tmp_path):
    """The degree route (2 delta >= n - 1): the s3 tree with m = 398 plus its
    closure's added pairs.  The closure names the family s3 and the tree's
    diameter 4 (from the classifier's BFS levels).  Its added pairs have
    u < v, run in strict lex order, number min_added_edges and miss the tree;
    the edge-list reader collapses a repeated pair, so only this check sees
    one.  The closed graph is balanced with diameter 2, and its Szeged index
    is the sum over its rows."""
    tree_path, path = str(tmp_path / "t.el"), str(tmp_path / "g.el")
    assert run_cli(["gen", "starlike", "3,1^397", "--out", tree_path])[0] == 0
    code, closure = run_json(["closure", tree_path, "--json"])
    assert code == 0
    result = closure["result"]
    added = [tuple(pair) for pair in result["added_edges"]]
    assert result["family"] == "s3" and closure["input"]["diameter"] == 4
    assert all(u < v for u, v in added) and all(a < b for a, b in zip(added, added[1:]))
    assert len(added) == result["min_added_edges"]
    words = Path(tree_path).read_text().split()
    tree = [tuple(map(int, words[i:i + 2])) for i in range(1, len(words), 2)]
    assert not {tuple(sorted(pair)) for pair in tree} & set(added)
    Path(path).write_text(words[0] + "\n" + "".join(f"{u} {v}\n" for u, v in tree + added))
    _, report = _szeged(path, 0)
    assert report["input"]["diameter"] == 2 and report["result"]["balanced"] is True


@pytest.mark.parametrize("spec", helpers.FAMILY_TREES[11], ids=lambda spec: spec[2])
def test_family_tree_searches_at_order_11(tmp_path, spec):
    helpers.check_family_tree_search(tmp_path / "tree.el", *spec)
