"""The CI workflow's shell steps parse: each ``run: |`` block under
``bash -n``, and each Python heredoc it feeds to ``python -`` under
``compile()``.  The blocks are cut out by indentation, with no YAML parser."""

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


def _heredocs(script: str) -> list[str]:
    """The bodies of the script's ``python - ... <<'EOF'`` heredocs."""
    lines = script.splitlines()
    return ["".join(row + "\n" for row in lines[i + 1:lines.index("EOF", i + 1)])
            for i, line in enumerate(lines)
            if re.fullmatch(r"\s*python3? - .*<<'EOF'", line)]


BLOCKS = _run_blocks(WORKFLOW.read_text())


def _check(name: str, script: str) -> None:
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, f"{name}: {proc.stderr}"
    for body in _heredocs(script):
        compile(body, f"{WORKFLOW.name}, step {name!r}", "exec")


@pytest.mark.parametrize("name,script", BLOCKS, ids=[name for name, _ in BLOCKS])
def test_run_block_parses(name, script):
    _check(name, script)


def test_every_block_and_heredoc_is_cut_out():
    text = WORKFLOW.read_text()
    assert len(BLOCKS) == text.count("run: |") >= 5
    assert sum(len(_heredocs(script)) for _, script in BLOCKS) == text.count("<<'EOF'") >= 4


@pytest.mark.parametrize("body,error", [
    ("        if true; then\n          echo open\n", AssertionError),  # no fi
    ("        python - <<'EOF'\n        print(1\n        EOF\n", SyntaxError),
])
def test_a_broken_block_fails(body, error):
    [(name, script)] = _run_blocks(f"    - name: broken\n      run: |\n{body}    - name: next\n")
    assert name == "broken"
    with pytest.raises(error):
        _check(name, script)
