"""Tests for scripts/check_bench_regression.py."""

import importlib.util
import json
import pathlib

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def write_artifact(path, rows):
    path.write_text(json.dumps({"rows": rows, "acceptance": None}))
    return path


ROW = {
    "scenario": "uniform",
    "instances": 500,
    "events": 10_000,
    "shards": 4,
    "naive_eps": 1_000_000.0,
    "encoded_eps": 5_000_000.0,
    "speedup": 5.0,
}


class TestRowMatching:
    def test_key_ignores_measured_fields(self):
        faster = dict(ROW, encoded_eps=9_000_000.0, speedup=9.0)
        assert checker.row_key(ROW) == checker.row_key(faster)

    def test_key_distinguishes_configurations(self):
        other = dict(ROW, scenario="burst")
        assert checker.row_key(ROW) != checker.row_key(other)


class TestMultiSectionArtifacts:
    """BENCH_flatten / BENCH_opt hold several named row lists."""

    def artifact(self, path, opt_eps=2_000_000.0):
        path.write_text(
            json.dumps(
                {
                    "passes": [
                        {
                            "machine": "commit-hsm[r=4]",
                            "pass": "merge",
                            "states_before": 36,
                            "states_after": 35,
                            "pass_ms": 0.3,
                        }
                    ],
                    "serve": [
                        {
                            "model": "commit_hsm[r=4]",
                            "instances": 500,
                            "raw_eps": 2_000_000.0,
                            "opt_eps": opt_eps,
                            "ratio": opt_eps / 2_000_000.0,
                        }
                    ],
                    "acceptance": None,
                }
            )
        )
        return path

    def test_sections_become_key_fields(self, tmp_path):
        rows = checker.load_rows(self.artifact(tmp_path / "a.json"))
        assert len(rows) == 2
        assert {row["_section"] for row in rows.values()} == {"passes", "serve"}

    def test_same_config_in_different_sections_does_not_collide(self, tmp_path):
        rows = checker.load_rows(self.artifact(tmp_path / "a.json"))
        keys = list(rows)
        assert keys[0] != keys[1]

    def test_opt_eps_regression_detected(self, tmp_path, capsys):
        baseline = self.artifact(tmp_path / "base.json")
        fresh = self.artifact(tmp_path / "fresh.json", opt_eps=1_000_000.0)
        assert checker.check(fresh, baseline, 0.30, ["opt_eps"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_opt_eps_within_threshold_passes(self, tmp_path):
        baseline = self.artifact(tmp_path / "base.json")
        fresh = self.artifact(tmp_path / "fresh.json", opt_eps=1_900_000.0)
        assert checker.check(fresh, baseline, 0.30, ["opt_eps", "raw_eps"]) == 0

    def test_bare_list_artifact_still_loads(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([ROW]))
        rows = checker.load_rows(path)
        assert len(rows) == 1
        assert "_section" not in next(iter(rows.values()))


class TestCheck:
    def test_within_threshold_passes(self, tmp_path, capsys):
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        fresh = write_artifact(
            tmp_path / "fresh.json", [dict(ROW, encoded_eps=4_000_000.0)]
        )
        assert checker.check(fresh, baseline, 0.30, ["encoded_eps"]) == 0
        assert "within 30%" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        fresh = write_artifact(
            tmp_path / "fresh.json", [dict(ROW, encoded_eps=3_000_000.0)]
        )
        assert checker.check(fresh, baseline, 0.30, ["encoded_eps"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_improvement_passes(self, tmp_path):
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        fresh = write_artifact(
            tmp_path / "fresh.json", [dict(ROW, encoded_eps=9_000_000.0)]
        )
        assert checker.check(fresh, baseline, 0.30, ["encoded_eps"]) == 0

    def test_unmatched_configurations_are_skipped(self, tmp_path, capsys):
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        fresh = write_artifact(
            tmp_path / "fresh.json",
            [dict(ROW), dict(ROW, scenario="burst", encoded_eps=1.0)],
        )
        assert checker.check(fresh, baseline, 0.30, ["encoded_eps"]) == 0
        assert "fresh-only configuration" in capsys.readouterr().out

    def test_missing_baseline_is_inconclusive(self, tmp_path):
        fresh = write_artifact(tmp_path / "fresh.json", [ROW])
        assert checker.check(fresh, tmp_path / "missing.json", 0.30, ["x"]) == 2

    def test_no_overlap_is_inconclusive(self, tmp_path):
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        fresh = write_artifact(
            tmp_path / "fresh.json", [dict(ROW, scenario="hotkey")]
        )
        assert checker.check(fresh, baseline, 0.30, ["encoded_eps"]) == 2


class TestMain:
    def test_main_against_committed_baseline_shape(self, tmp_path):
        fresh = write_artifact(tmp_path / "fresh.json", [ROW])
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        assert (
            checker.main([str(fresh), "--baseline", str(baseline)]) == 0
        )

    def test_committed_serve_baseline_exists_and_parses(self):
        baseline = checker.BASELINE_DIR / "BENCH_serve.json"
        assert baseline.exists()
        rows = checker.load_rows(baseline)
        assert rows
        for key, row in rows.items():
            assert "encoded_eps" in row
            assert "naive_eps" in row

    def test_committed_flatten_baseline_exists_and_parses(self):
        baseline = checker.BASELINE_DIR / "BENCH_flatten.json"
        assert baseline.exists()
        rows = checker.load_rows(baseline)
        sections = {row.get("_section") for row in rows.values()}
        assert sections == {"flatten", "serve"}
        assert any("naive_eps" in row for row in rows.values())

    def test_committed_opt_baseline_exists_and_parses(self):
        baseline = checker.BASELINE_DIR / "BENCH_opt.json"
        assert baseline.exists()
        rows = checker.load_rows(baseline)
        sections = {row.get("_section") for row in rows.values()}
        assert sections == {"passes", "serve"}
        assert any("opt_eps" in row for row in rows.values())

    def test_default_baseline_derived_from_fresh_name(self, tmp_path, capsys):
        fresh = write_artifact(tmp_path / "BENCH_serve.json", [ROW])
        # No --baseline: resolves to benchmarks/baselines/BENCH_serve.json.
        assert checker.main([str(fresh)]) in (0, 1)
        out = capsys.readouterr().out
        assert "baselines" in out and "BENCH_serve.json" in out

    def test_threshold_flag(self, tmp_path):
        baseline = write_artifact(tmp_path / "base.json", [ROW])
        fresh = write_artifact(
            tmp_path / "fresh.json", [dict(ROW, encoded_eps=4_000_000.0)]
        )
        assert (
            checker.main(
                [
                    str(fresh),
                    "--baseline",
                    str(baseline),
                    "--threshold",
                    "0.10",
                    "--metric",
                    "encoded_eps",
                ]
            )
            == 1
        )
