"""CLI tests for the serve-bench subcommand and modelcheck --engine."""

import pytest

from repro.cli import build_parser, main
from repro.serve import HAS_NUMPY

#: The modes serve-bench measures here (vector needs numpy).
MEASURED = 3 if HAS_NUMPY else 2


class TestServeBenchCli:
    def test_serve_bench_smoke(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--instances", "50",
                    "--events", "800",
                    "--shards", "4",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "naive" in output
        assert "encoded" in output
        assert "speedup" in output
        assert "differential ok" in output

    def test_serve_bench_lazy_engine_and_compiled_backend(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--instances", "20",
                    "--events", "300",
                    "--engine", "lazy",
                    "--backend", "compiled",
                    "--workload", "hotkey",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "[lazy]" in output
        assert "backend compiled" in output

    @pytest.mark.parametrize("scenario", ["uniform", "hotkey", "burst"])
    def test_all_workloads_accepted(self, scenario, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--instances", "10",
                    "--events", "100",
                    "--workload", scenario,
                ]
            )
            == 0
        )

    def test_serve_bench_measures_every_mode(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--instances", "30",
                    "--events", "500",
                    "--shards", "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "  encoded " in output
        assert ("  vector   skipped: " in output) != HAS_NUMPY
        # Every measured mode was differentially verified.
        assert output.count("differential ok") == MEASURED

    def test_serve_bench_log_policy_skips_differential(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--instances", "30",
                    "--events", "500",
                    "--log-policy", "off",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        # Naive always logs fully and stays verified; the table-dispatch
        # rows ran with logging off and say so.
        assert output.count("differential ok") == 1
        assert output.count("skipped (log off)") == MEASURED - 1

    def test_parser_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--workload", "tsunami"])

    def test_parser_rejects_unknown_log_policy(self):
        for policy in ("verbose", "count"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-bench", "--log-policy", policy])

    def test_parser_rejects_removed_mode_flags(self):
        # serve-bench always measures every mode; the selection flags
        # and the deleted modes are gone, not deprecated.
        parser = build_parser()
        for argv in (
            ["serve-bench", "--encoded"],
            ["serve-bench", "--dispatch", "vector"],
            ["serve", "--mode", "batched"],
            ["serve", "--mode", "grouped"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        assert parser.parse_args(["serve"]).mode == "encoded"

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--backend", "jit"])


class TestModelcheckEngineCli:
    def test_modelcheck_accepts_lazy_engine(self, capsys):
        assert (
            main(["modelcheck", "-r", "4", "--engine", "lazy"]) == 0
        )
        assert "safe=True" in capsys.readouterr().out

    def test_engine_flag_on_every_machine_building_command(self):
        parser = build_parser()
        for argv in (
            ["generate", "--engine", "lazy"],
            ["table1", "--engine", "lazy"],
            ["render", "--engine", "lazy"],
            ["describe", "--state", "x", "--engine", "lazy"],
            ["export", "-o", "x.py", "--engine", "lazy"],
            ["modelcheck", "--engine", "lazy"],
        ):
            assert parser.parse_args(argv).engine == "lazy"


class TestServeOptionRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "compiled", "--port", "0"],
            ["serve-scenario", "--backend", "compiled", "--groups", "2"],
        ],
        ids=["serve", "serve-scenario"],
    )
    def test_table_mode_refuses_a_backend(self, argv, capsys):
        # --backend is read by the naive mode only; the default encoded
        # fleet refuses it before serving or running anything.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "deliveries" not in captured.out and "serving" not in captured.out
        assert captured.err == (
            f"{argv[0]}: backend 'compiled' is read only by dispatch mode "
            "'naive'; mode 'encoded' executes the dispatch table itself\n"
        )
