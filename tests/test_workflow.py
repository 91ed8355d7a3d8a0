"""The CI workflow's shell steps parse: each ``run: |`` block under
``bash -n``, cut out by indentation with no YAML parser.  Its checks are
pytest tests, so it holds no heredoc; the slow module it runs must import."""

import importlib
import re
import subprocess
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _run_blocks(text: str) -> list[tuple[str, str]]:
    """(step name, dedented script) of each ``run: |`` block: the lines after
    the key that are blank or indented deeper than it."""
    lines, name, blocks = text.splitlines(), None, []
    for i, line in enumerate(lines):
        step = re.fullmatch(r" *- name: (.*)", line)
        if step:
            name = step.group(1)
        key = re.fullmatch(r"( *(?:- )?)run: \|", line)
        if key is None:
            continue
        body = []
        for row in lines[i + 1:]:
            if row.strip() and len(row) - len(row.lstrip()) <= len(key.group(1)):
                break
            body.append(row)
        width = min(len(row) - len(row.lstrip()) for row in body if row.strip())
        blocks.append((name, "".join(row[width:] + "\n" for row in body)))
    return blocks


BLOCKS = _run_blocks(WORKFLOW.read_text())


def _check(name: str, script: str) -> None:
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, f"{name}: {proc.stderr}"


@pytest.mark.parametrize("name,script", BLOCKS, ids=[name for name, _ in BLOCKS])
def test_run_block_parses(name, script):
    _check(name, script)


def test_every_block_and_heredoc_is_cut_out():
    """Every block is cut out, and no heredoc is left to cut."""
    text = WORKFLOW.read_text()
    assert len(BLOCKS) == text.count("run: |") >= 1
    assert "<<" not in text


def test_the_slow_checks_import_and_the_workflow_runs_them():
    """Tier-1 never collects ``slow_checks.py``, so it catches a broken one
    here: the module imports, with its tests, and a step names it."""
    module = importlib.import_module("slow_checks")
    assert any(name.startswith("test_") for name in vars(module))
    assert "pytest -q tests/slow_checks.py" in WORKFLOW.read_text()


@pytest.mark.parametrize("body,error", [
    ("        if true; then\n          echo open\n", AssertionError),  # no fi
])
def test_a_broken_block_fails(body, error):
    [(name, script)] = _run_blocks(f"    - name: broken\n      run: |\n{body}    - name: next\n")
    assert name == "broken"
    with pytest.raises(error):
        _check(name, script)
