"""Flattening statistics: what hierarchy costs (and saves) when expanded.

The mapping-study literature on state-machine flattening measures the
transformation by its blow-up: a transition declared once on a composite
is copied into every descendant leaf, while unreachable leaves disappear.
This module turns the :class:`~repro.core.hsm.FlattenReport` produced by
the pipeline into rows of an aligned table — one per bundled model — so
the CLI and benchmarks can report the factors directly.

Since the optimization pipeline (:mod:`repro.opt`) landed, the stats also
show the *recovery*: declared leaves -> after pruning (``flat``) -> after
equivalent-state merging (``opt``), so the CLI makes visible how much of
the flattening blow-up the optimizer claws back.
"""

from __future__ import annotations

from typing import Optional

from repro.core.hsm import FlattenReport, HierarchicalModel
from repro.models import HIERARCHICAL_MODELS, build_hierarchical_model

#: Pipeline the CLI stats view uses for its recovery deltas: prune +
#: merge + pool compaction (renumbering never changes counts).  Library
#: callers default to no optimization so reports (and their timings)
#: stay directly comparable with plain ``flatten_with_report`` runs.
DEFAULT_STATS_OPT = "prune,merge,dead-actions"


def flatten_blowup(
    model: HierarchicalModel, *, optimize: Optional[str] = None
) -> FlattenReport:
    """Flatten ``model`` and return the blow-up report.

    ``optimize`` feeds :meth:`~repro.core.hsm.HierarchicalModel.flatten_with_report`
    so the report carries post-optimization deltas (the CLI stats view
    passes :data:`DEFAULT_STATS_OPT`); the default ``None`` reports the
    raw flattening numbers only.
    """
    _, report = model.flatten_with_report(optimize=optimize)
    return report


def bundled_flatten_reports(
    replication_factor: int = 4,
    optimize: Optional[str] = None,
) -> list[FlattenReport]:
    """One report per bundled hierarchical model."""
    return [
        flatten_blowup(
            build_hierarchical_model(name, replication_factor), optimize=optimize
        )
        for name in HIERARCHICAL_MODELS
    ]


def format_flatten_table(reports: list[FlattenReport]) -> str:
    """Render reports as an aligned table (CLI ``flatten --format stats``).

    The state trajectory reads left to right: ``leaves`` (before
    pruning) -> ``flat`` (after pruning) -> ``opt`` (after the
    optimization pipeline; ``-`` when none ran).
    """
    header = (
        f"{'model':<18} {'groups':>6} {'leaves':>6} {'depth':>5} "
        f"{'declared':>8} {'flat':>6} {'opt':>5} {'trans':>6} "
        f"{'state x':>8} {'trans x':>8} {'ms':>7}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        opt = f"{report.opt_states:>5d}" if report.opt_report is not None else "    -"
        lines.append(
            f"{report.model_name:<18} {report.composite_count:>6d} "
            f"{report.leaf_count:>6d} {report.max_depth:>5d} "
            f"{report.declared_transitions:>8d} {report.flat_states:>6d} "
            f"{opt} {report.flat_transitions:>6d} {report.state_blowup:>8.2f} "
            f"{report.transition_blowup:>8.2f} {report.total_time * 1000:>7.1f}"
        )
    return "\n".join(lines)
