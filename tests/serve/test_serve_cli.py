"""CLI tests for modelcheck --engine and the serving commands' refusals."""

import os
import signal
import time

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


def test_sigterm_closes_the_served_fleet_like_ctrl_c(monkeypatch):
    from repro.serve.gateway import FleetGateway

    closed = []

    def outer_handler(signum, frame):
        raise AssertionError("serve left SIGTERM to the caller's handler")

    def terminated(gateway, announce=None, port_file=None):
        fleet = gateway._fleet
        monkeypatch.setattr(fleet, "close", lambda: closed.append(fleet))
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)  # the signal interrupts this
        pytest.fail("SIGTERM did not stop serving")

    monkeypatch.setattr(FleetGateway, "run_blocking", terminated)
    previous = signal.signal(signal.SIGTERM, outer_handler)
    try:
        assert main(["serve", "--port", "0"]) == 0
        assert signal.getsignal(signal.SIGTERM) is outer_handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(closed) == 1
