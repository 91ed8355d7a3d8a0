"""CLI integration: exit codes, JSON schema, round trips."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given

import helpers
from distbalance import analysis, graph
from distbalance import (
    broom,
    canonical_family_tree,
    complete_graph,
    cycle_graph,
    diameter,
    parse_edge_list,
    path_graph,
    read_edge_list,
    starlike,
    write_edge_list,
    FamilyTag,
    StarlikeSpec,
)
from distbalance.cli import main


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


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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

    def test_json_report(self, capsys, star3_file):
        code, report = run_json(capsys, ["check", star3_file, "--report", "--json"])
        assert code == 2
        assert set(report) == {"command", "input", "result", "timing", "version"}
        assert report["result"]["balanced"] is False
        assert report["result"]["records"] == [[0, 1, 3, 1], [0, 2, 3, 1], [0, 3, 3, 1]]


@given(helpers.connected_graphs())
def test_plain_check_matches_oracle(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.el"
        write_edge_list(g, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", str(path), "--json"])
    report = json.loads(out.getvalue())
    balanced, worst, diam = helpers.plain_check_oracle(g)
    assert code == (0 if balanced else 2)
    assert report["result"] == {"balanced": balanced,
                                "worst_edge": list(worst) if worst else None}
    assert report["input"]["diameter"] == diam


@pytest.mark.parametrize("command", [["check"], ["check", "--report"], ["szeged"]])
@pytest.mark.parametrize("g", [cycle_graph(9), complete_graph(6), broom(4)],
                         ids=["C9", "K6", "broom4"])
def test_one_bfs_pass_per_report(monkeypatch, capsys, tmp_path, command, g):
    """One BFS per source plus the BFS-order sweep of the per-edge route;
    the input's diameter is read off the same pass."""
    expected_diameter = diameter(g)
    calls = []

    def counted(adj, source, levels=graph._levels):
        calls.append(source)
        return levels(adj, source)

    monkeypatch.setattr(graph, "_levels", counted)
    monkeypatch.setattr(analysis, "_levels", counted)
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    main([command[0], str(path), *command[1:], "--json"])
    assert json.loads(capsys.readouterr().out)["input"]["diameter"] == expected_diameter
    assert 0 < len(calls) <= g.n + 1


class TestSzeged:
    @pytest.mark.parametrize("graph,expected", [
        (complete_graph(4), 6), (path_graph(4), 10), (cycle_graph(4), 16)])
    def test_values(self, capsys, tmp_path, graph, expected):
        path = tmp_path / "g.el"
        write_edge_list(graph, path)
        assert main(["szeged", str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(expected)

    def test_json(self, capsys, c4_file):
        code, report = run_json(capsys, ["szeged", c4_file, "--json"])
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


class TestClosure:
    def test_construct_star(self, capsys, star3_file):
        code, report = run_json(capsys, ["closure", star3_file, "--json"])
        assert code == 0
        result = report["result"]
        assert result["min_added_edges"] == 3
        assert result["family"] == "star"
        assert result["certificate"]["distance_balanced"] is True
        assert result["certificate"]["matches_formula"] is True

    def test_construct_unsupported_family(self, capsys, tmp_path):
        path = tmp_path / "p7.el"
        write_edge_list(path_graph(7), path)
        assert main(["closure", str(path)]) == 3

    def test_search_p5(self, capsys, tmp_path):
        path = tmp_path / "p5.el"
        write_edge_list(path_graph(5), path)
        code, report = run_json(capsys, ["closure", str(path), "--mode", "search", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 1
        assert report["result"]["witnesses"] == [[[0, 4]]]

    def test_search_prune_regular(self, capsys, tmp_path):
        path = tmp_path / "s22.el"
        write_edge_list(canonical_family_tree(FamilyTag.S22, 3), path)
        code, report = run_json(capsys, [
            "closure", str(path), "--mode", "search", "--prune", "regular", "--json"])
        assert code == 0
        assert report["result"]["min_added_edges"] == 4
        assert report["result"]["prune"] == "regular"

    def test_search_budget_exceeded(self, capsys, tmp_path):
        path = tmp_path / "p5.el"
        write_edge_list(path_graph(5), path)
        assert main(["closure", str(path), "--mode", "search", "--max-k", "0"]) == 4
        err = capsys.readouterr().err
        assert ">= 1" in err

    def test_search_all_witnesses(self, capsys, tmp_path):
        path = tmp_path / "s2m4.el"
        write_edge_list(canonical_family_tree(FamilyTag.S2, 4), path)
        code, report = run_json(capsys, [
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

    def test_threads_flag(self, capsys, tmp_path):
        path = tmp_path / "p5.el"
        write_edge_list(path_graph(5), path)
        code, report = run_json(capsys, [
            "closure", str(path), "--mode", "search", "--threads", "4", "--json"])
        assert code == 0
        assert report["result"]["witnesses"][0] == [[0, 4]]


class TestVerify:
    def test_s22_range(self, capsys):
        code, report = run_json(capsys, ["verify", "--family", "s22",
                                         "--m", "3..6", "--json"])
        assert code == 0
        rows = report["result"]["rows"]
        assert [row["min_added_edges"] for row in rows] == [4, 8, 13, 19]
        assert all(row["pass"] for row in rows)

    def test_s3_fallback_marker(self, capsys):
        assert main(["verify", "--family", "s3", "--m", "3..3"]) == 0
        assert "fallback search" in capsys.readouterr().out

    def test_s2_with_oracle(self, capsys):
        code, report = run_json(capsys, ["verify", "--family", "s2",
                                         "--m", "4..4", "--oracle", "--json"])
        assert code == 0
        row = report["result"]["rows"][0]
        assert row["min_added_edges"] == 7
        assert row["oracle"] == 7

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
    proc = subprocess.run([sys.executable, "-m", "distbalance", "check", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "true" in proc.stdout
