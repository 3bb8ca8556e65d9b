"""Tests for scripts/e2e_pairs.py: the protocol's commands, in order."""

import importlib.util
import json
import pathlib
import shlex

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "e2e_pairs.py"
_spec = importlib.util.spec_from_file_location("e2e_pairs", _SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

REPO = str(_SCRIPT.parent.parent)


def dry_run(capsys, monkeypatch, arguments: str) -> list:
    """``(cwd, argv)`` of every command ``--dry-run`` prints, in order."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"--dry-run ran {args}")

    monkeypatch.setattr(pairs.subprocess, "run", refuse)
    assert pairs.main([*arguments.split(), "--dry-run"]) == 0
    commands = []
    for line in capsys.readouterr().out.splitlines():
        cwd, _, command = line.removeprefix("(cd ").removesuffix(")").partition(" && ")
        commands.append((cwd, shlex.split(command)))
    return commands


def check_block(block, tree, workload, seed, pairs_run=4) -> list:
    """One (workload, seed) block: alternating runs, then one compare.py;
    returns the block's output files."""
    side_of = {tree: "parent", REPO: "change"}
    *runs, (compare_cwd, compare) = block
    assert [side_of[cwd] for cwd, _ in runs] == (
        ["parent", "change", "change", "parent"] * (pairs_run // 2)
    )
    outputs = {"parent": [], "change": []}
    for cwd, (_, script, *options) in runs:
        assert script == "benchmarks/e2e/run.py"
        assert options[:-1] == (
            f"--workload {workload} --seed {seed} --seconds 3 --json".split()
        )
        outputs[side_of[cwd]].append(options[-1])
    assert compare_cwd == REPO
    assert compare[1:] == [
        "benchmarks/e2e/compare.py",
        ",".join(outputs["parent"]),
        ",".join(outputs["change"]),
    ]
    return outputs["parent"] + outputs["change"]


def test_dry_run_prints_the_protocol_and_runs_nothing(capsys, monkeypatch):
    arguments = "--parent abc123 --workload gen-deploy --pairs 4 --seeds 1,7"
    commands = dry_run(capsys, monkeypatch, f"{arguments} --seconds 3")
    (archive_cwd, archive), (unpack_cwd, unpack), *body = commands
    tarball, tree = archive[-2], unpack[-1]
    assert archive == ["git", "archive", "--output", tarball, "abc123"]
    assert unpack == ["tar", "-xf", tarball, "-C", tree]
    assert archive_cwd == unpack_cwd == REPO and tree != REPO

    per_seed = len(body) // 2
    for seed, block in zip((1, 7), (body[:per_seed], body[per_seed:])):
        assert len(set(check_block(block, tree, "gen-deploy", seed))) == 8


def test_a_comma_list_runs_each_workload_with_the_same_pairs_and_seeds(
    capsys, monkeypatch
):
    arguments = "--parent abc123 --workload bulk-uniform,bulk-hotkey --pairs 4"
    commands = dry_run(capsys, monkeypatch, f"{arguments} --seeds 1,7 --seconds 3")
    (_, archive), (_, unpack), *body = commands
    assert archive[-1] == "abc123" and len(body) == 4 * 9
    outputs = []
    blocks = [body[start : start + 9] for start in range(0, len(body), 9)]
    order = [(w, s) for w in ("bulk-uniform", "bulk-hotkey") for s in (1, 7)]
    for block, (workload, seed) in zip(blocks, order):
        outputs += check_block(block, unpack[-1], workload, seed)
    assert len(set(outputs)) == 32


def test_a_regressed_workload_fails_the_command(monkeypatch):
    # The second workload's compare.py exits 1; the first's exits 0.
    compares = []

    def fake(argv, cwd, quiet=False):
        if "benchmarks/e2e/compare.py" in argv:
            compares.append(argv)
            return int(len(compares) == 2)
        return 0

    monkeypatch.setattr(pairs, "execute", fake)
    monkeypatch.setattr(pairs, "report", lambda label, files: None)
    arguments = "--parent abc123 --workload gw-single,gen-deploy --pairs 2 --seeds 1"
    assert pairs.main(arguments.split()) == 1
    assert len(compares) == 2


def test_parent_copy_is_removed_when_a_run_fails(monkeypatch):
    ran = []

    def fail_second_bench(argv, cwd, quiet=False):
        ran.append(argv)
        return int(sum("run.py" in str(part) for a in ran for part in a) == 2)

    monkeypatch.setattr(pairs, "execute", fail_second_bench)
    failed = "change run failed: gen-deploy seed 1, pair 0"
    with pytest.raises(SystemExit, match=failed):
        pairs.main(["--parent", "abc123", "--workload", "gen-deploy"])
    tree = pathlib.Path(ran[1][-1])
    assert ran[1][:2] == ["tar", "-xf"] and tree.name == "parent"
    assert not tree.parent.exists()


def fabricate(tmp_path, side: str, events_per_s: list) -> list:
    """One ``run.py --json`` file per value: only what the report reads."""
    paths = []
    for pair, value in enumerate(events_per_s):
        metrics = {"events_per_s": value, "setup_s": 0.2, "peak_rss_mb": 70.0}
        result = {
            "failed": 0,
            "attempted": 100,
            "metrics": {name: {"median": v} for name, v in metrics.items()},
        }
        path = tmp_path / f"{side}-{pair}.json"
        path.write_text(json.dumps({"results": [result]}))
        paths.append(path)
    return paths


def verdict_line(capsys, tmp_path, parent, change) -> str:
    files = {
        "parent": fabricate(tmp_path, "parent", parent),
        "change": fabricate(tmp_path, "change", change),
    }
    pairs.report("gen-deploy seed 1", files)
    lines = capsys.readouterr().out.splitlines()
    heading = next(i for i, line in enumerate(lines) if "events_per_s" in line)
    return lines[heading + 3]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def test_report_shows_a_gain_that_meets_both_rules(capsys, tmp_path):
    change = [value * 1.1 for value in PARENT]
    line = verdict_line(capsys, tmp_path, PARENT, change)
    assert line.strip().startswith("parent IQR 1.2 % of its median;")
    assert "gain shown" in line


def test_report_refuses_a_gain_with_too_few_wins(capsys, tmp_path):
    # Eight clear wins and two losses: the median moves far, the wins
    # fall short of nine in ten.
    change = [value * 1.2 for value in PARENT[:8]] + [90.0, 90.0]
    line = verdict_line(capsys, tmp_path, PARENT, change)
    assert "gain not shown" in line


def test_report_refuses_a_gain_inside_the_parent_spread(capsys, tmp_path):
    # Ten wins of one unit each, but the parent's own runs spread by
    # tens: the gap cannot be told from that spread.
    parent = [100.0, 160.0, 110.0, 150.0, 120.0, 140.0, 130.0, 100.0, 160.0, 130.0]
    change = [value + 1 for value in parent]
    line = verdict_line(capsys, tmp_path, parent, change)
    assert "gain not shown" in line
    assert pairs.gain_shown(parent, change, "higher")[1] is False
