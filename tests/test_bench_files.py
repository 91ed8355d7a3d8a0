"""Each benchmark record ``BENCH_<n>.json`` at the top of the repository,
from n = 20 on, keeps the schema of README's "Performance trajectory"."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}
KEYS = {"pr", "change", "parent_commit", "change_commit", "claim", "harness", "host",
        "units", "quartiles", "workloads"}
FILES = sorted((int(match.group(1)), path) for path in ROOT.glob("BENCH_*.json")
               if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
               and int(match.group(1)) >= 20)


def test_the_records_are_found():
    assert len(FILES) >= 16


@pytest.mark.parametrize("n,path", FILES, ids=[path.name for _, path in FILES])
def test_record_keeps_the_readme_schema(n, path):
    """The README's keys, with ``pr`` = n; one entry per workload of
    BENCHMARK.json whose two sides hold the same number of runs, at least
    3, every one correct and carrying every end-to-end metric, and whose
    ``ops_per_s_change_wins`` reads "k of N" over those N runs; a claimed
    gain has at least 10 pairs and a held-out seed block."""
    record = json.loads(path.read_text())
    assert KEYS <= record.keys()
    assert record["pr"] == n
    assert record["workloads"].keys() == WORKLOADS
    for name, workload in record["workloads"].items():
        runs = len(workload["parent"]["runs"])
        assert len(workload["change"]["runs"]) == runs >= 3, name
        for side in workload["parent"], workload["change"]:
            assert {"provenance", "runs", "quartiles"} <= side.keys(), name
            for run in side["runs"]:
                assert run["correct"] is True, (name, run)
                assert METRICS <= run.keys(), (name, run)
        wins = re.fullmatch(rf"(\d+) of {runs}( pairs)?", workload["ops_per_s_change_wins"])
        assert wins and int(wins.group(1)) <= runs, (name, workload["ops_per_s_change_wins"])
    if record["claim"] is not None:
        assert len(record["workloads"][record["claim"]["workload"]]["parent"]["runs"]) >= 10
        assert "held_out_seed_4099" in record
