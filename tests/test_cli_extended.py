"""Tests for the extended CLI commands (export, modelcheck, new formats)."""

from repro.cli import main


class TestNewFormats:
    def test_render_scxml(self, capsys):
        assert main(["render", "-r", "4", "--format", "scxml"]) == 0
        output = capsys.readouterr().out
        assert "scxml" in output
        assert 'initial="F_0_F_0_F_F_F"' in output

    def test_render_html(self, capsys):
        assert main(["render", "-r", "4", "--format", "html"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")

    def test_render_markdown(self, capsys):
        assert main(["render", "-r", "4", "--format", "markdown"]) == 0
        assert "| States | 33 |" in capsys.readouterr().out

    def test_render_java(self, capsys):
        assert main(["render", "-r", "4", "--format", "java"]) == 0
        assert "void receiveVote()" in capsys.readouterr().out


class TestExport:
    def test_export_creates_runnable_module(self, tmp_path, capsys):
        target = tmp_path / "commit_r4.py"
        assert main(["export", "-r", "4", "-o", str(target)]) == 0
        assert "exported commit[r=4]" in capsys.readouterr().out
        from repro.runtime.export import import_machine_module

        cls = import_machine_module(target, "CommitR4Machine")
        assert cls().get_state() == "F/0/F/0/F/F/F"


class TestModelcheck:
    def test_single_update_silent_one(self, capsys):
        assert main(["modelcheck", "-r", "4", "--silent", "1"]) == 0
        output = capsys.readouterr().out
        assert "safe=True always-terminates=True" in output

    def test_single_update_silent_two_deadlocks(self, capsys):
        assert main(["modelcheck", "-r", "4", "--silent", "2"]) == 0
        output = capsys.readouterr().out
        assert "deadlocked=1" in output
        assert "always-terminates=False" in output

    def test_contention_even_split(self, capsys):
        assert main(["modelcheck", "-r", "4", "--contention", "2"]) == 0
        output = capsys.readouterr().out
        assert "outcome ('none', 'none')" in output

    def test_max_states_bounds_run(self, capsys):
        assert main(["modelcheck", "-r", "4", "--max-states", "50"]) == 0
        assert "(truncated)" in capsys.readouterr().out


class TestOptimizeCommand:
    def test_report_shows_per_pass_deltas(self, capsys):
        assert main(["optimize", "--model", "commit-hsm", "--opt", "3"]) == 0
        output = capsys.readouterr().out
        assert "pipeline O3" in output
        for name in ("prune", "merge", "dead-actions", "renumber"):
            assert name in output
        assert "optimized: 35 states" in output
        assert "1 removed" in output

    def test_commit_machine_is_already_minimal(self, capsys):
        assert main(["optimize", "--model", "commit", "--opt", "2"]) == 0
        output = capsys.readouterr().out
        assert "commit[r=4]: 33 states" in output
        assert "optimized: 33 states" in output

    def test_pass_list_spec(self, capsys):
        assert main(["optimize", "--model", "session-hsm", "--opt", "prune,merge"]) == 0
        output = capsys.readouterr().out
        assert "pipeline prune,merge" in output
        assert "renumber" not in output

    def test_flat_render_of_optimized_machine(self, capsys):
        args = ["optimize", "--model", "commit-hsm", "--format", "flat-source"]
        assert main(args) == 0
        assert "class CommitHsmR4Machine" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "opt.txt"
        assert main(["optimize", "--model", "commit", "-o", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "optimized: 33 states" in target.read_text()


class TestOptFlags:
    def test_generate_opt_prints_pass_table(self, capsys):
        assert main(["generate", "-r", "4", "--opt", "2"]) == 0
        output = capsys.readouterr().out
        assert "optimization pipeline O2 -> 33 states" in output
        assert "dead-actions" in output

    def test_generate_without_opt_unchanged(self, capsys):
        assert main(["generate", "-r", "4"]) == 0
        assert "optimization pipeline" not in capsys.readouterr().out

    def test_flatten_stats_shows_opt_column(self, capsys):
        assert main(["flatten", "--model", "commit", "--format", "stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "opt" in lines[0].split()
        # 36 flat states recover to 35 after merging, on both engines.
        assert all("35" in line for line in lines[2:])

    def test_flatten_flat_render_with_opt(self, capsys):
        args = ["flatten", "--model", "commit", "--format", "flat-markdown"]
        assert main(args + ["--opt", "2"]) == 0
        assert "| States | 35 |" in capsys.readouterr().out

    def test_bad_opt_spec_fails_loudly(self):
        import pytest

        with pytest.raises(ValueError, match="unknown optimization pass"):
            main(["optimize", "--model", "commit", "--opt", "bogus"])


class TestServeAutoRecycle:
    """``serve --auto-recycle`` reaches ``make_fleet(auto_recycle=)``."""

    FINISHING_RUN = ["free", "update", "vote", "vote", "commit", "commit"]

    def serve(self, monkeypatch, *flags):
        """Run the ``serve`` command with the listening loop replaced by
        one finishing run delivered to the fleet it built; returns what
        the instance looked like afterwards."""
        from repro.serve.gateway import FleetGateway

        seen = {}

        def drive_instead_of_listening(gateway, announce=None, port_file=None):
            fleet = gateway._fleet
            (key,) = fleet.spawn_many(1)
            fired = [fleet.deliver(key, message) for message in self.FINISHING_RUN]
            seen.update(
                auto_recycle=fleet.auto_recycle,
                fired=fired,
                trace=fleet.trace(key),
                start=fleet.machine.start_state.name,
            )

        monkeypatch.setattr(FleetGateway, "run_blocking", drive_instead_of_listening)
        assert main(["serve", "--port", "0", *flags]) == 0
        return seen

    def test_flag_recycles_finished_instances(self, monkeypatch):
        seen = self.serve(monkeypatch, "--auto-recycle")
        assert seen["auto_recycle"] is True
        assert all(seen["fired"])
        assert seen["trace"].state == seen["start"]
        assert list(seen["trace"].actions) == []

    def test_default_leaves_finished_instances_parked(self, monkeypatch):
        seen = self.serve(monkeypatch)
        assert seen["auto_recycle"] is False
        assert seen["trace"].state == "FINISHED"
        assert list(seen["trace"].actions) == ["vote", "not_free", "commit", "free"]
