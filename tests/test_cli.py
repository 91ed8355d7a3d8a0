"""CLI integration: exit codes, JSON schema, round trips."""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given

import helpers
from helpers import run_json
from distbalance import cli, graph, search, trees
from distbalance import (
    broom,
    canonical_family_tree,
    complete_graph,
    cycle_graph,
    diameter,
    from_edge_list,
    parse_edge_list,
    path_graph,
    read_edge_list,
    relabel,
    starlike,
    write_edge_list,
    FamilyTag,
    StarlikeSpec,
)
from distbalance.cli import main
from distbalance.graph import Graph


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.el"
    write_edge_list(cycle_graph(4), path)
    return str(path)


@pytest.fixture
def star3_file(tmp_path):
    path = tmp_path / "star3.el"
    write_edge_list(canonical_family_tree(FamilyTag.STAR, 3), path)
    return str(path)


class TestCheck:
    def test_balanced_exit_zero(self, capsys, c4_file):
        assert main(["check", c4_file]) == 0
        assert "true" in capsys.readouterr().out

    def test_unbalanced_exit_two(self, capsys, star3_file):
        assert main(["check", star3_file]) == 2
        assert "false" in capsys.readouterr().out

    def test_report_table(self, capsys, star3_file):
        main(["check", star3_file, "--report"])
        out = capsys.readouterr().out
        assert "(0, 1)  3  1" in out
        assert "worst edge: (0, 1)" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.el"]) == 1

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("not a number\n")
        assert main(["check", str(bad)]) == 1

    def test_disconnected_file(self, capsys, tmp_path):
        path = tmp_path / "disc.el"
        path.write_text("4\n0 1\n2 3\n")
        assert main(["check", str(path)]) == 1

    def test_vertex_count_over_cap(self, capsys, tmp_path):
        path = tmp_path / "huge.el"
        path.write_text("1000000000000\n0 1\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_json_report(self, star3_file):
        code, report = run_json(["check", star3_file, "--report", "--json"])
        assert code == 2
        assert set(report) == {"command", "input", "result", "timing", "version"}
        assert report["result"]["balanced"] is False
        assert report["result"]["records"] == [[0, 1, 3, 1], [0, 2, 3, 1], [0, 3, 3, 1]]


@given(helpers.connected_graphs())
def test_plain_check_matches_oracle(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.el"
        write_edge_list(g, path)
        code, report = run_json(["check", str(path), "--json"])
    balanced, worst, diam = helpers.plain_check_oracle(g)
    assert code == (0 if balanced else 2)
    assert report["result"] == {"balanced": balanced,
                                "worst_edge": list(worst) if worst else None}
    assert report["input"]["diameter"] == diam


@pytest.mark.parametrize("command", [["check"], ["check", "--report"], ["szeged"]])
@pytest.mark.parametrize("g", [cycle_graph(9), complete_graph(6), broom(4), cycle_graph(8)],
                         ids=["C9", "K6", "broom4", "C8"])
def test_one_bfs_pass_per_report(monkeypatch, capsys, tmp_path, command, g):
    """Each report takes one ball sweep or, for a tree, two passes over a BFS
    tree; their connectivity gate is the one single-source BFS, which also
    picks the route, and the input's diameter is read off the same route.
    K6 takes none: its degrees alone put it on the diameter <= 2 route."""
    expected_diameter = diameter(g)
    calls = []

    def counted(adj, source, levels=graph._levels):
        calls.append(source)
        return levels(adj, source)

    monkeypatch.setattr(graph, "_levels", counted)
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    main([command[0], str(path), *command[1:], "--json"])
    assert json.loads(capsys.readouterr().out)["input"]["diameter"] == expected_diameter
    assert len(calls) == (0 if g == complete_graph(6) else 1)


def _shuffled(g):
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    return relabel(g, perm)


@pytest.mark.parametrize("g,passes", [
    (_shuffled(canonical_family_tree(FamilyTag.S3, 40)), 1),
    (_shuffled(canonical_family_tree(FamilyTag.S3, 4)), 1),
    (from_edge_list(7, [(0, v) for v in range(1, 7)] + [(1, 2)]), 0),
], ids=["s3_40", "degenerate_s3_4", "dominant"])
def test_one_bfs_pass_per_closure(monkeypatch, capsys, tmp_path, g, passes):
    """``closure --json`` takes one BFS on a family tree, the classifier's,
    whose levels also give the input's diameter, and none on a dominant-vertex
    input, whose diameter comes from its degrees like every certificate."""
    calls = []

    def counted(adj, source, levels=graph._levels):
        calls.append(source)
        return levels(adj, source)

    for module in (graph, trees, search):
        monkeypatch.setattr(module, "_levels", counted)
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    assert main(["closure", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["diameter"] == \
        helpers.plain_check_oracle(g)[2]
    assert len(calls) == passes


@pytest.mark.parametrize("g", [
    _shuffled(canonical_family_tree(FamilyTag.S3, 40)),
    _shuffled(canonical_family_tree(FamilyTag.S3, 4)),
    from_edge_list(7, [(0, v) for v in range(1, 7)] + [(1, 2)]),
], ids=["s3_40", "degenerate_s3_4", "dominant"])
def test_one_degree_list_per_closure_input(monkeypatch, capsys, tmp_path, g):
    """``closure --json`` builds the input's degree list once, in the
    classifier or in the dominant-vertex test, and its input summary takes
    ``max_degree`` from the classifier's m; the closure's own degree list
    is the certificate's."""
    built = []
    degrees = Graph.degrees
    monkeypatch.setattr(Graph, "degrees", lambda h: built.append(h.adj) or degrees(h))
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    assert main(["closure", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["max_degree"] == max(degrees(g))
    assert built.count(g.adj) == 1
    assert len(built) == 2


class TestSzeged:
    @pytest.mark.parametrize("graph,expected", [
        (complete_graph(4), 6), (path_graph(4), 10), (cycle_graph(4), 16)])
    def test_values(self, capsys, tmp_path, graph, expected):
        path = tmp_path / "g.el"
        write_edge_list(graph, path)
        assert main(["szeged", str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(expected)

    def test_json(self, c4_file):
        code, report = run_json(["szeged", c4_file, "--json"])
        assert code == 0
        assert report["result"]["szeged_index"] == 16


class TestGen:
    @pytest.mark.parametrize("argv,builder", [
        (["gen", "star", "4"], lambda: canonical_family_tree(FamilyTag.STAR, 4)),
        (["gen", "starlike", "3,1^2"],
         lambda: starlike(StarlikeSpec.from_text("3,1^2"))),
        (["gen", "broom", "3"], lambda: broom(3)),
        (["gen", "path", "7"], lambda: path_graph(7)),
        (["gen", "cycle", "9"], lambda: cycle_graph(9)),
        (["gen", "complete", "5"], lambda: complete_graph(5)),
    ])
    def test_round_trip(self, tmp_path, argv, builder):
        out = tmp_path / "g.el"
        assert main(argv + ["--out", str(out)]) == 0
        assert read_edge_list(out) == builder()

    def test_stdout_mode(self, capsys):
        assert main(["gen", "path", "3"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == path_graph(3)

    def test_star_zero_rejected(self, capsys):
        assert main(["gen", "star", "0"]) == 1

    def test_broom_two_rejected(self, capsys):
        assert main(["gen", "broom", "2"]) == 1

    def test_bad_starlike_spec(self, capsys):
        assert main(["gen", "starlike", "0,1"]) == 1

    @pytest.mark.parametrize("kind,param", [
        ("star", "300000000"), ("broom", "300000000"), ("path", "300000000"),
        ("cycle", "300000000"), ("complete", "300000000"),
        ("starlike", "300000000"), ("starlike", "1^10000000000"),
    ])
    def test_oversized_refused_before_allocating(self, kind, param):
        """An order above graph.MAX_VERTICES exits 1 at once.  The child has
        1 GiB of address space, where a build that makes its edge or branch
        list before the check dies with a MemoryError traceback instead."""
        import resource

        def limit():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        child = ("import sys, time; sys.path.insert(0, sys.argv[1])\n"
                 "from distbalance.cli import main\n"
                 "start = time.perf_counter(); code = main(sys.argv[2:])\n"
                 "print(time.perf_counter() - start); sys.exit(code)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-I", "-c", child, src, "gen", kind, param],
                              capture_output=True, text=True, preexec_fn=limit, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert f"at most {graph.MAX_VERTICES} vertices" in proc.stderr
        assert float(proc.stdout) < 0.5

    def test_complete_bounded_by_the_pairs_cap(self, capsys, monkeypatch, tmp_path):
        """`gen complete N` writes C(N, 2) lines, so an N with more than
        cli._VERIFY_MAX_PAIRS pairs exits 1 before complete_graph runs; an
        N below 1 keeps the vertex-count message."""
        monkeypatch.setattr(cli, "_VERIFY_MAX_PAIRS", 15)
        assert main(["gen", "complete", "6", "--out", str(tmp_path / "k6.el")]) == 0
        assert read_edge_list(tmp_path / "k6.el") == complete_graph(6)
        capsys.readouterr()

        def no_build(n):
            raise AssertionError(f"built K_{n}")
        monkeypatch.setattr(cli, "complete_graph", no_build)
        assert main(["gen", "complete", "7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "complete 7 has 21 vertex pairs; at most 15 are supported" in err
        monkeypatch.undo()
        assert main(["gen", "complete", "0"]) == 1
        assert "vertex count must be at least 1, got 0" in capsys.readouterr().err

    def test_complete_past_the_pairs_cap_refused_at_once(self, capsys):
        """C(1415, 2) = 1,000,405 is the first count past the cap."""
        start = time.perf_counter()
        assert main(["gen", "complete", "1415"]) == 1
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000405 vertex pairs; at most 1000000 are supported" in captured.err


class TestClosure:
    def test_construct_star(self, star3_file):
        code, report = run_json(["closure", star3_file, "--json"])
        assert code == 0
        result = report["result"]
        assert result["min_added_edges"] == 3
        assert result["family"] == "star"
        assert result["certificate"]["distance_balanced"] is True
        assert result["certificate"]["matches_formula"] is True

    @pytest.mark.parametrize("text,message", [
        ("5\n0 1\n1 2\n0 2\n3 4\n", "input is not a tree (connected with n-1 edges)"),
        ("6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n",
         "closure construction requires a connected graph"),
    ], ids=["n_minus_1_edges", "two_triangles"])
    def test_construct_disconnected(self, capsys, tmp_path, text, message):
        """A disconnected input exits 1.  With n - 1 edges the classifier
        refuses it as not a tree; otherwise the closure's own BFS, which
        runs only for a non-tree without a dominant vertex, does."""
        path = tmp_path / "g.el"
        path.write_text(text)
        assert main(["closure", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_construct_unsupported_family(self, capsys, tmp_path):
        path = tmp_path / "p7.el"
        write_edge_list(path_graph(7), path)
        assert main(["closure", str(path)]) == 3

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["plain", "json"])
    def test_construct_exits_one_on_a_failed_certificate(self, capsys, monkeypatch,
                                                         tmp_path, form):
        """A closure whose certificate fails is still printed, then exits 1
        with the failed fields on stderr: a family row that removes no pair
        closes s22 with m = 3 to K_6, 6 edges more than the closed form."""
        row = trees.FAMILIES[FamilyTag.S22]
        monkeypatch.setitem(trees.FAMILIES, FamilyTag.S22, row._replace(removed=lambda m: []))
        path = tmp_path / "s22.el"
        write_edge_list(canonical_family_tree(FamilyTag.S22, 3), path)
        assert main(["closure", str(path), *form]) == 1
        out, err = capsys.readouterr()
        if form:
            certificate = json.loads(out)["result"]["certificate"]
            assert (certificate["distance_balanced"], certificate["matches_formula"]) == \
                (True, False)
        else:
            assert out.endswith(" regular_degree=5 matches_formula=False\n")
        assert err == "error: certificate failed: matches_formula\n"

    def test_search_p5(self, tmp_path):
        path = tmp_path / "p5.el"
        write_edge_list(path_graph(5), path)
        code, report = run_json(["closure", str(path), "--mode", "search", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 1
        assert report["result"]["witnesses"] == [[[0, 4]]]

    def test_search_prune_regular(self, tmp_path):
        path = tmp_path / "s22.el"
        write_edge_list(canonical_family_tree(FamilyTag.S22, 3), path)
        code, report = run_json([
            "closure", str(path), "--mode", "search", "--prune", "regular", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 4
        assert report["result"]["prune"] == "regular"

    def test_search_prune_regular_refused_on_balanced_non_regular(self, capsys, tmp_path):
        path = tmp_path / "diamonds.el"
        write_edge_list(helpers.three_diamonds(), path)
        assert main(["closure", str(path), "--mode", "search", "--prune", "regular"]) == 1
        assert capsys.readouterr().err.startswith("error: regular pruning needs")
        code, report = run_json(["closure", str(path), "--mode", "search", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 0

    def test_search_prune_regular_refused_on_petersen(self, capsys, tmp_path):
        """Diameter 2 but max degree 3 < n - 3: outside the theorem's domain
        the regular mode exits 1, and the naive mode still answers."""
        path = tmp_path / "petersen.el"
        write_edge_list(helpers.petersen_graph(), path)
        assert main(["closure", str(path), "--mode", "search", "--prune", "regular"]) == 1
        assert capsys.readouterr().err == "error: regular pruning needs max degree >= n-3\n"
        code, report = run_json(["closure", str(path), "--mode", "search", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 0

    def test_search_prune_regular_unbalanced_candidate_exits_one(
            self, capsys, monkeypatch, star3_file):
        """A degree-feasible candidate that fails the balance test is an
        error of the theorem or the search, not a skipped candidate."""
        from distbalance import search

        monkeypatch.setattr(search, "_transmission_regular", lambda rows: False)
        assert main(["closure", star3_file, "--mode", "search", "--prune", "regular"]) == 1
        assert capsys.readouterr().err.startswith("error: regular mode: 3-regular completion")

    def test_search_prune_regular_on_a_non_tree_of_diameter_3(self, capsys, tmp_path):
        """The bull, a triangle 0-1-2 with pendants 4 at 0 and 3 at 1, has
        diameter 3 and no tree's edge count, but max degree 3 >= n - 3, so
        the regular mode is legal and agrees with the naive one."""
        path = tmp_path / "bull.el"
        path.write_text("5\n0 1\n0 2\n0 4\n1 2\n1 3\n")
        answers = []
        for prune in ("regular", "naive"):
            assert main(["closure", str(path), "--mode", "search", "--prune", prune]) == 0
            answers.append(capsys.readouterr().out.splitlines()[:2])
        assert answers == 2 * [["min added edges: 5",
                                "witness: (0,3) (1,4) (2,3) (2,4) (3,4)"]]

    def test_search_budget_exceeded(self, capsys, tmp_path):
        path = tmp_path / "p5.el"
        write_edge_list(path_graph(5), path)
        assert main(["closure", str(path), "--mode", "search", "--max-k", "0"]) == 4
        err = capsys.readouterr().err
        assert ">= 1" in err

    def test_search_all_witnesses(self, tmp_path):
        path = tmp_path / "s2m4.el"
        write_edge_list(canonical_family_tree(FamilyTag.S2, 4), path)
        code, report = run_json([
            "closure", str(path), "--mode", "search", "--all-witnesses", "--json"])
        assert code == 0
        assert len(report["result"]["witnesses"]) == 3

    @pytest.mark.parametrize("flag,value", [
        ("--max-k", "-1"), ("--budget", "0"), ("--threads", "0")])
    def test_search_flag_out_of_range(self, capsys, star3_file, flag, value):
        with pytest.raises(SystemExit) as exc_info:
            main(["closure", star3_file, "--mode", "search", flag, value])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}" in err

    @pytest.mark.parametrize("flags", [
        ["--prune", "naive"], ["--prune", "regular"], ["--max-k", "0"], ["--all-witnesses"],
        ["--budget", "0.001"]])
    def test_construct_refuses_search_flags(self, capsys, star3_file, flags):
        """Construct mode exits 1 on a search-only flag instead of ignoring it."""
        assert main(["closure", star3_file, *flags]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {flags[0]}: need --mode search\n")

    def test_construct_names_every_search_flag_given(self, capsys, star3_file):
        assert main(["closure", star3_file, "--all-witnesses", "--budget", "0.001",
                     "--threads", "2", "--json"]) == 1
        assert capsys.readouterr().err == "error: --all-witnesses, --budget: need --mode search\n"

    def test_construct_accepts_threads(self, star3_file):
        code, report = run_json(["closure", star3_file, "--threads", "2", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 3

    def test_threads_flag(self, tmp_path):
        path = tmp_path / "p5.el"
        write_edge_list(path_graph(5), path)
        code, report = run_json([
            "closure", str(path), "--mode", "search", "--threads", "4", "--json"])
        assert code == 0
        assert report["result"]["witnesses"][0] == [[0, 4]]

    @pytest.fixture
    def star63_file(self, tmp_path):
        path = tmp_path / "star63.el"
        write_edge_list(canonical_family_tree(FamilyTag.STAR, 63), path)
        return str(path)

    def test_search_regular_on_the_largest_star(self, star63_file):
        """n = 64 is the search's vertex cap; the regular enumeration picks
        all C(63, 2) = 1953 missing edges, one per step, without recursing."""
        code, report = run_json([
            "closure", star63_file, "--mode", "search", "--prune", "regular", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 1953
        assert report["result"]["explored"] == 1

    def test_search_naive_on_the_largest_star_keeps_its_budget(self, capsys, monkeypatch,
                                                               star63_file):
        """With the transmission floor, the naive search skips every level
        below the full one, where the spokes first reach the floor of 63,
        and finds the star's one witness; with the floor patched out it
        walks the small levels until the budget runs out."""
        code, report = run_json([
            "closure", star63_file, "--mode", "search", "--budget", "60", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 1953
        monkeypatch.setattr(search, "_floor_profile",
                            lambda rows, touch: (0, 0, 0, len(rows) ** 2))
        assert main(["closure", star63_file, "--mode", "search",
                     "--budget", "0.5"]) == 4
        assert capsys.readouterr().err.startswith("budget exceeded: min added edges >= ")


class TestVerify:
    def test_s22_range(self):
        code, report = run_json(["verify", "--family", "s22",
                                 "--m", "3..6", "--json"])
        assert code == 0
        rows = report["result"]["rows"]
        assert [row["min_added_edges"] for row in rows] == [4, 8, 13, 19]
        assert all(row["pass"] for row in rows)

    @pytest.mark.parametrize("family,first_m", [
        ("star", 1), ("s2", 2), ("s22", 2), ("s3", 3), ("broom", 3)])
    def test_rows_are_the_closure_report(self, tmp_path, family, first_m):
        """Each row is ``closure --json``'s result on the canonical tree,
        without its mode and pairs, plus n and the verdicts: one vocabulary,
        the degenerate rows' ``via_search`` included."""
        code, report = run_json(["verify", "--family", family,
                                 "--m", f"{first_m}..6", "--json"])
        assert code == 0
        rows = report["result"]["rows"]
        assert [row["m"] for row in rows] == list(range(first_m, 7))
        path = tmp_path / "tree.el"
        for row in rows:
            tree = canonical_family_tree(FamilyTag(family), row["m"])
            write_edge_list(tree, path)
            code, closure = run_json(["closure", str(path), "--json"])
            assert code == 0
            result = closure["result"]
            del result["mode"], result["added_edges"]
            assert row == {**result, "n": tree.n, "oracle": None, "pass": True}
        assert {row["m"] for row in rows if row["via_search"]} == \
            {"s22": {2}, "s3": {3, 4}}.get(family, set())

    def test_s3_fallback_marker(self, capsys):
        assert main(["verify", "--family", "s3", "--m", "3..3"]) == 0
        assert "fallback search" in capsys.readouterr().out

    def test_s2_with_oracle(self):
        code, report = run_json(["verify", "--family", "s2",
                                 "--m", "4..4", "--oracle", "--json"])
        assert code == 0
        row = report["result"]["rows"][0]
        assert row["min_added_edges"] == 7
        assert row["oracle"] == 7

    def test_oracle_is_the_naive_search_up_to_order_20(self, monkeypatch):
        """``verify --oracle`` checks every row with n <= 20 by the naive
        search, which does not rest on the paper's theorem, and leaves
        larger rows without an oracle."""
        searched = []
        real = cli.search_minimum_additions

        def spy(g, config):
            searched.append((g.n, config.prune_mode))
            return real(g, config)

        monkeypatch.setattr(cli, "search_minimum_additions", spy)
        rows = []
        for m_range in "4..9", "17..18":
            code, report = run_json(["verify", "--family", "broom", "--m", m_range,
                                     "--oracle", "--json"])
            assert code == 0
            rows += report["result"]["rows"]
        assert [(row["n"], row["oracle"]) for row in rows] == [
            (7, 8), (8, 13), (9, 19), (10, 26), (11, 34), (12, 43), (20, 151), (21, None)]
        assert all(row["oracle"] in (None, row["min_added_edges"]) for row in rows)
        assert searched == [(n, "naive") for n in (*range(7, 13), 20)]

    def test_single_m(self):
        code, report = run_json(["verify", "--family", "star", "--m", "5", "--json"])
        assert code == 0
        assert report["input"]["m_range"] == [5, 5]
        assert [row["m"] for row in report["result"]["rows"]] == [5]

    def test_bad_range(self, capsys):
        assert main(["verify", "--family", "broom", "--m", "2..5"]) == 1
        assert main(["verify", "--family", "star", "--m", "5..3"]) == 1
        assert main(["verify", "--family", "star", "--m", "x"]) == 1

    @pytest.mark.parametrize("family,first_m", [
        ("star", 1), ("s2", 2), ("s22", 2), ("s3", 3), ("broom", 3)])
    def test_range_start_per_family(self, capsys, family, first_m):
        """Each family's range may start at first_m and at no smaller m."""
        assert main(["verify", "--family", family, "--m", f"{first_m}..{first_m}"]) == 0
        capsys.readouterr()
        assert main(["verify", "--family", family,
                     "--m", f"{first_m - 1}..{first_m}"]) == 1
        assert f"needs m >= {first_m}" in capsys.readouterr().err

    def test_all_families_start_at_the_latest_first_m(self, capsys):
        assert main(["verify", "--family", "all", "--m", "3..3"]) == 0
        capsys.readouterr()
        assert main(["verify", "--family", "all", "--m", "2..3"]) == 1
        assert "family s3 needs m >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("family,m_range", [
        ("all", "3..70000"), ("s22", "3..65534"), ("star", "65536..65536")])
    def test_range_beyond_the_vertex_cap_refused_before_any_row(
            self, capsys, monkeypatch, family, m_range):
        """A range whose largest tree has more than graph.MAX_VERTICES
        vertices (s22 with m = 65534 has 65537) exits 1 before any closure
        of the range is built."""
        def no_closure(tree):
            raise AssertionError(f"built a row for n = {tree.n}")
        monkeypatch.setattr("distbalance.cli._certified_closure", no_closure)
        assert main(["verify", "--family", family, "--m", m_range]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"at most {graph.MAX_VERTICES}" in err

    def test_range_of_too_many_vertex_pairs_refused_before_any_row(
            self, capsys, monkeypatch):
        """Every row builds a near-complete closure, so a range whose trees
        have more than cli._VERIFY_MAX_PAIRS vertex pairs in all exits 1
        before the first row: star m = 3..65535 passes the vertex cap."""
        def no_closure(tree):
            raise AssertionError(f"built a row for n = {tree.n}")
        with monkeypatch.context() as patch:
            patch.setattr("distbalance.cli._certified_closure", no_closure)
            assert main(["verify", "--family", "star", "--m", "3..65535"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"at most {cli._VERIFY_MAX_PAIRS} are supported" in err
        # star m = 3..5 has C(4, 2) + C(5, 2) + C(6, 2) = 31 pairs
        monkeypatch.setattr(cli, "_VERIFY_MAX_PAIRS", 31)
        assert main(["verify", "--family", "star", "--m", "3..5"]) == 0
        monkeypatch.setattr(cli, "_VERIFY_MAX_PAIRS", 30)
        assert main(["verify", "--family", "star", "--m", "3..5"]) == 1
        assert "have 31 vertex pairs in all" in capsys.readouterr().err


class TestReportContract:
    def test_required_keys_every_command(self, capsys, c4_file, tmp_path):
        out = tmp_path / "g.el"
        for argv in (["check", c4_file, "--json"],
                     ["szeged", c4_file, "--json"],
                     ["gen", "path", "4", "--out", str(out), "--json"],
                     ["closure", c4_file, "--mode", "search", "--json"],
                     ["verify", "--family", "star", "--m", "3..4", "--json"]):
            main(argv)
            report = json.loads(capsys.readouterr().out)
            assert {"command", "input", "result", "version"} <= set(report)

    def test_deterministic_apart_from_timing(self, capsys, star3_file):
        def snapshot():
            main(["closure", star3_file, "--json"])
            report = json.loads(capsys.readouterr().out)
            report.pop("timing")
            return report
        assert snapshot() == snapshot()

    def test_json_is_one_line_every_command(self, capsys, c4_file, star3_file,
                                            tmp_path):
        out = tmp_path / "g.el"
        for argv in (["check", star3_file, "--report", "--json"],
                     ["szeged", c4_file, "--json"],
                     ["gen", "cycle", "5", "--json"],
                     ["gen", "path", "4", "--out", str(out), "--json"],
                     ["closure", star3_file, "--json"],
                     ["closure", c4_file, "--mode", "search", "--json"],
                     ["verify", "--family", "star", "--m", "3..4", "--json"]):
            main(argv)
            text = capsys.readouterr().out
            assert text.endswith("\n") and text.count("\n") == 1, argv
            assert isinstance(json.loads(text), dict)

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["closure"])  # missing path
        assert exc_info.value.code == 1


def test_module_entry_point(tmp_path):
    path = tmp_path / "c4.el"
    write_edge_list(cycle_graph(4), path)
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-m", "distbalance", "check", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "true" in proc.stdout
