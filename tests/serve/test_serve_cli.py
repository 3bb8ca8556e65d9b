"""CLI tests for modelcheck --engine and the serving commands' refusals."""

import pytest

from repro.cli import build_parser, main


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
