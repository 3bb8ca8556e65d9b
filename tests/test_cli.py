"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_generate(self, capsys):
        assert main(["generate", "-r", "4"]) == 0
        output = capsys.readouterr().out
        assert "512 initial states" in output
        assert "33 after merging" in output

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "67712" in output
        assert "2945" in output
        assert "matches paper" in output
        assert output.count("yes") == 5 and "NO" not in output

    def test_table1_exits_1_on_a_row_the_paper_does_not_have(self, capsys, monkeypatch):
        from repro.analysis.stats import Table1Row

        def doctored(engine="eager"):
            # r=4 with one state too many after merging (published: 33).
            return [Table1Row(1, 4, 512, 48, 34, 0.001)]

        monkeypatch.setattr("repro.analysis.stats.table1", doctored)
        assert main(["table1"]) == 1
        row = capsys.readouterr().out.splitlines()[-1]
        assert "34" in row and row.endswith("NO")

    def test_render_text(self, capsys):
        assert main(["render", "-r", "4", "--format", "text"]) == 0
        assert "state: T/2/F/0/F/F/F" in capsys.readouterr().out

    def test_render_dot(self, capsys):
        assert main(["render", "-r", "4", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_render_source(self, capsys):
        assert main(["render", "-r", "4", "--format", "source"]) == 0
        assert "def receive_vote" in capsys.readouterr().out

    def test_render_to_file(self, tmp_path, capsys):
        target = tmp_path / "machine.xml"
        assert main(["render", "-r", "4", "--format", "xml", "-o", str(target)]) == 0
        assert target.exists()
        assert "<stateMachine" in target.read_text()

    def test_describe_state(self, capsys):
        assert main(["describe", "-r", "4", "--state", "T/2/F/0/F/F/F"]) == 0
        output = capsys.readouterr().out
        assert "Waiting for 2 further external commits to finish." in output

    def test_describe_unknown_state(self, capsys):
        assert main(["describe", "-r", "4", "--state", "NOPE"]) == 1

    def test_parser_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--format", "hologram"])

    def test_parser_rejects_removed_commands_and_modes(self):
        # Deleted subcommands and dispatch modes are unknown, not deprecated.
        parser = build_parser()
        for argv in (
            ["serve-bench"],
            ["serve-watch"],
            ["serve", "--mode", "batched"],
            ["serve", "--mode", "grouped"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        assert parser.parse_args(["serve"]).mode == "encoded"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "-r", "3"], "replication factor must be >= 4"),
            (["modelcheck", "--contention", "7"], "first_half must be in 0..4, got 7"),
            (["serve-scenario", "--groups", "0"], "scenario needs >= 1 group"),
            (["render", "-r", "3"], "replication factor must be >= 4"),
            (
                ["describe", "-r", "3", "--state", "T/2/F/0/F/F/F"],
                "replication factor must be >= 4",
            ),
            (
                ["export", "-r", "3", "-o", "unused.py"],
                "replication factor must be >= 4",
            ),
            (
                ["flatten", "--model", "commit", "-r", "3"],
                "replication factor must be >= 4",
            ),
            (["optimize", "-r", "3"], "replication factor must be >= 4"),
            (["serve", "-r", "3", "--port", "0"], "replication factor must be >= 4"),
        ],
        ids=[
            "generate",
            "modelcheck",
            "serve-scenario",
            "render",
            "describe",
            "export",
            "flatten",
            "optimize",
            "serve",
        ],
    )
    def test_refused_input_exits_2_with_one_line(self, argv, message, capsys):
        # Exit 1 is a verdict (modelcheck unsafe, a Table 1 row off the
        # paper), so a refused argument must not exit 1 as a traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: {message}")
        assert err.count("\n") == 1


class TestServeScenarioCommand:
    @pytest.mark.parametrize("model", ["commit", "chandra-toueg"])
    def test_fault_free_run_finishes_every_instance(self, model, capsys):
        assert main(["serve-scenario", "--model", model, "--groups", "3"]) == 0
        out = capsys.readouterr().out
        size = 4 if model == "commit" else 5
        assert f"finished: {3 * size}/{3 * size} instances" in out
        assert "differential vs naive fleet: ok" in out

    def test_unfinished_fault_free_run_exits_1_with_one_line(self, capsys):
        # Cut before the protocol can finish: a verdict, not a refusal.
        assert main(["serve-scenario", "--groups", "2", "--until", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("serve-scenario: ")
        assert "unfinished at t=5" in err
        assert err.count("\n") == 1

    def test_faulty_run_may_leave_instances_unfinished(self, capsys):
        argv = ["serve-scenario", "--groups", "2", "--until", "5", "--faults", "drop"]
        assert main(argv) == 0
        assert "differential vs naive fleet: ok" in capsys.readouterr().out


class TestFlattenCommand:
    def test_stats_default(self, capsys):
        assert main(["flatten", "--model", "session"]) == 0
        output = capsys.readouterr().out
        lines = output.splitlines()
        assert "trans x" in lines[0]
        assert len(lines) == 3 and lines[2].startswith("session")

    def test_outline(self, capsys):
        assert main(["flatten", "--model", "session", "--format", "outline"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("hierarchical model: session")
        assert "region Connecting" in output

    def test_dot_clusters(self, capsys):
        assert main(["flatten", "--model", "session", "--format", "dot"]) == 0
        output = capsys.readouterr().out
        assert output.startswith('digraph "session"')
        assert 'subgraph "cluster_Connected.Auth"' in output

    def test_flat_renderer_passthrough(self, capsys):
        assert main(["flatten", "--model", "session", "--format", "flat-text"]) == 0
        output = capsys.readouterr().out
        assert "state machine: session" in output
        assert "state: Connected.Auth.AwaitChallenge" in output

    def test_commit_model_with_engine(self, capsys):
        assert main(
            ["flatten", "--model", "commit", "-r", "4", "--engine", "lazy",
             "--format", "flat-text"]
        ) == 0
        output = capsys.readouterr().out
        assert "state machine: commit_hsm[r=4]" in output
        assert "state: Protocol.T/2/F/0/F/F/F" in output

    def test_output_to_file(self, tmp_path, capsys):
        target = tmp_path / "session.dot"
        assert main(
            ["flatten", "--model", "session", "--format", "dot", "-o", str(target)]
        ) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        assert target.read_text().startswith('digraph "session"')

    def test_parser_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flatten", "--model", "mystery"])
