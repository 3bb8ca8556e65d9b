"""Smoke tests: every example script runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert "distributed_storage.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    if script.name == "model_checking.py":
        # One blank-line-separated block per result: a search that hit its
        # budget says so, and only such a search does.
        blocks = [b for b in result.stdout.split("\n\n") if "truncated=" in b]
        assert len(blocks) == 5
        for block in blocks:
            assert ("budget reached: not exhaustive" in block) == (
                "truncated=True" in block
            ), block


def test_quickstart_reports_paper_counts():
    script = next(p for p in EXAMPLES if p.name == "quickstart.py")
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert "initial states: 512" in result.stdout
    assert "after merging: 33" in result.stdout
    assert "finished: True" in result.stdout
