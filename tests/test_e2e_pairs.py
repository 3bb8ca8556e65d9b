"""Tests for scripts/e2e_pairs.py: the protocol's commands, in order."""

import importlib.util
import pathlib
import shlex

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "e2e_pairs.py"
_spec = importlib.util.spec_from_file_location("e2e_pairs", _SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

REPO = str(_SCRIPT.parent.parent)


def test_dry_run_prints_the_protocol_and_runs_nothing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"--dry-run ran {args}")

    monkeypatch.setattr(pairs.subprocess, "run", refuse)
    arguments = "--parent abc123 --workload gen-deploy --pairs 4 --seeds 1,7"
    assert pairs.main([*arguments.split(), "--seconds", "3", "--dry-run"]) == 0

    commands = []
    for line in capsys.readouterr().out.splitlines():
        cwd, _, command = line.removeprefix("(cd ").removesuffix(")").partition(" && ")
        commands.append((cwd, shlex.split(command)))
    (archive_cwd, archive), (unpack_cwd, unpack), *body = commands
    tarball, tree = archive[-2], unpack[-1]
    assert archive == ["git", "archive", "--output", tarball, "abc123"]
    assert unpack == ["tar", "-xf", tarball, "-C", tree]
    assert archive_cwd == unpack_cwd == REPO and tree != REPO

    side_of = {tree: "parent", REPO: "change"}
    per_seed = len(body) // 2
    for seed, block in zip((1, 7), (body[:per_seed], body[per_seed:])):
        *runs, (compare_cwd, compare) = block
        assert [side_of[cwd] for cwd, _ in runs] == (
            ["parent", "change", "change", "parent"] * 2
        )
        outputs = {"parent": [], "change": []}
        for cwd, (_, script, *options) in runs:
            assert script == "benchmarks/e2e/run.py"
            assert options[:-1] == (
                f"--workload gen-deploy --seed {seed} --seconds 3 --json".split()
            )
            outputs[side_of[cwd]].append(options[-1])
        assert len(set(outputs["parent"] + outputs["change"])) == 8
        assert compare_cwd == REPO
        assert compare[1:] == [
            "benchmarks/e2e/compare.py",
            ",".join(outputs["parent"]),
            ",".join(outputs["change"]),
        ]


def test_parent_copy_is_removed_when_a_run_fails(monkeypatch):
    ran = []

    def fail_second_bench(argv, cwd, quiet=False):
        ran.append(argv)
        return int(sum("run.py" in str(part) for a in ran for part in a) == 2)

    monkeypatch.setattr(pairs, "execute", fail_second_bench)
    with pytest.raises(SystemExit, match="change run failed: seed 1, pair 0"):
        pairs.main(["--parent", "abc123", "--workload", "gen-deploy"])
    tree = pathlib.Path(ran[1][-1])
    assert ran[1][:2] == ["tar", "-xf"] and tree.name == "parent"
    assert not tree.parent.exists()
