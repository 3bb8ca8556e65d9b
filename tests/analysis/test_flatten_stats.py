"""Tests for the flattening blow-up statistics."""

from repro.analysis.flatten_stats import (
    bundled_flatten_reports,
    flatten_blowup,
    format_flatten_table,
)
from repro.models import HIERARCHICAL_MODELS, build_session_hsm


def test_flatten_blowup_reports_counts():
    report = flatten_blowup(build_session_hsm())
    assert report.model_name == "session"
    assert report.composite_count == 5  # root, Connecting, Connected, Auth, Active
    assert report.leaf_count == 10
    assert report.max_depth == 3
    assert report.flat_states == 9  # Maintenance pruned
    # Root- and region-level handlers fan out into descendant leaves.
    assert report.transition_blowup > 1.0
    assert report.inherited_expansions > 0


def test_bundled_reports_cover_every_model_once():
    reports = bundled_flatten_reports(replication_factor=4)
    assert len(reports) == len(HIERARCHICAL_MODELS)
    names = {report.model_name for report in reports}
    assert names == {"session", "commit_hsm[r=4]"}


def test_format_flatten_table_alignment():
    reports = bundled_flatten_reports(replication_factor=4)
    table = format_flatten_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("model")
    assert "trans x" in lines[0]
    assert len(lines) == 2 + len(reports)
    assert {len(line) for line in lines} == {len(lines[0])}
    assert lines[2].startswith("session")
