"""Tests for exporting generated source to disk (paper §4.3)."""

import pathlib
import subprocess
import sys

import pytest

from repro.core.errors import DeploymentError
from repro.runtime.export import (
    export_machine_module,
    import_machine_module,
    is_stale,
    machine_fingerprint,
    read_fingerprint,
)
from tests.conftest import commit_machine


class TestExportImport:
    def test_roundtrip(self, tmp_path):
        machine = commit_machine(4)
        path = export_machine_module(machine, tmp_path / "commit_r4.py")
        cls = import_machine_module(path, "CommitR4Machine")
        instance = cls()
        for message in ["free", "update", "vote", "vote", "commit", "commit"]:
            instance.receive(message)
        assert instance.is_finished()

    def test_exported_module_is_standalone(self, tmp_path):
        """The §4.3 artefact runs in an isolated interpreter (``-I``: no
        PYTHONPATH, no user site) that cannot import this library."""
        path = export_machine_module(commit_machine(4), tmp_path / "commit_r4.py")
        text = path.read_text()
        assert "import repro" not in text
        assert "ActionsBase" not in text
        # The driver CI runs on the r=48 export: stdlib only, repro blocked.
        smoke = pathlib.Path(__file__).parents[2] / "scripts" / "exported_smoke.py"
        result = subprocess.run(
            [sys.executable, "-I", str(smoke), path.name],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == (
            "CommitR4Machine: 33 states, reached FINISHED in 2 events; "
            "sent vote,commit\n"
        )

    def test_custom_class_name(self, tmp_path):
        path = export_machine_module(
            commit_machine(4), tmp_path / "m.py", class_name="Custom"
        )
        cls = import_machine_module(path, "Custom")
        assert cls().get_state() == "F/0/F/0/F/F/F"

    def test_import_missing_file(self, tmp_path):
        with pytest.raises(DeploymentError):
            import_machine_module(tmp_path / "nope.py", "X")

    def test_import_wrong_class(self, tmp_path):
        path = export_machine_module(commit_machine(4), tmp_path / "m.py")
        with pytest.raises(DeploymentError):
            import_machine_module(path, "WrongName")

    def test_overridden_actions(self, tmp_path):
        path = export_machine_module(commit_machine(4), tmp_path / "m.py")
        cls = import_machine_module(path, "CommitR4Machine")
        seen = []

        class Wired(cls):
            def send_vote(self):
                seen.append("vote")

            def send_not_free(self):
                seen.append("not_free")

        instance = Wired()
        instance.receive("free")
        instance.receive("update")
        assert seen == ["vote", "not_free"]


class TestFingerprints:
    def test_fingerprint_stable(self):
        assert machine_fingerprint(commit_machine(4)) == machine_fingerprint(
            commit_machine(4)
        )

    def test_fingerprint_differs_across_machines(self):
        assert machine_fingerprint(commit_machine(4)) != machine_fingerprint(
            commit_machine(7)
        )

    def test_read_fingerprint(self, tmp_path):
        machine = commit_machine(4)
        path = export_machine_module(machine, tmp_path / "m.py")
        assert read_fingerprint(path) == machine_fingerprint(machine)

    def test_read_fingerprint_missing_header(self, tmp_path):
        path = tmp_path / "plain.py"
        path.write_text("x = 1\n")
        with pytest.raises(DeploymentError):
            read_fingerprint(path)

    def test_staleness_detection(self, tmp_path):
        """The copy-into-codebase hazard: artefact vs model drift."""
        path = export_machine_module(commit_machine(4), tmp_path / "m.py")
        assert not is_stale(commit_machine(4), path)
        assert is_stale(commit_machine(7), path)

    def test_missing_artefact_is_stale(self, tmp_path):
        assert is_stale(commit_machine(4), tmp_path / "missing.py")
