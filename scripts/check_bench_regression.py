"""Compare a fresh benchmark artifact against its committed baseline.

CI runs the ``--fast --json`` sweeps of ``bench_serve.py``,
``bench_flatten.py``, ``bench_opt.py``, ``bench_scenario.py``,
``bench_load.py`` and ``bench_recovery.py`` on every push; this script
fails (exit 1) when any sweep configuration's throughput drops more than
``--threshold`` (default 30%) below the committed baseline of the same
name under ``benchmarks/baselines/``.  It is wired into CI as a
*non-blocking* step: hosted runners vary too much for a hard gate, but a
consistent large drop is worth a red mark in the log.

Usage::

    python scripts/check_bench_regression.py BENCH_serve.json
    python scripts/check_bench_regression.py BENCH_flatten.json
    python scripts/check_bench_regression.py BENCH_opt.json \
        [--baseline benchmarks/baselines/BENCH_opt.json] \
        [--threshold 0.30] [--metric opt_eps]

Artifacts may be a bare row list, a ``{"rows": [...]}`` object
(``BENCH_serve``), or an object holding several named row lists
(``BENCH_flatten``'s ``flatten``/``serve``, ``BENCH_opt``'s
``passes``/``serve``, ``BENCH_scenario``'s ``rows``/``active``,
``BENCH_load``'s ``rows``/``closed``,
``BENCH_recovery``'s ``rows``/``mttr``); named
sections become part of each row's configuration key.  The default
baseline is the committed artifact with the same file name.  Rows are matched on their configuration fields
(everything except the measured floats); configurations present in only
one file are reported but do not fail the check — sweeps are allowed to
evolve.  Throughput metrics regress when they *drop* past the
threshold; latency percentiles (``LOWER_IS_BETTER``) regress when they
*rise* by more than two histogram bucket steps above the jitter floor.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Measured fields: never part of a row's configuration key.  Timing
#: fields are listed so they stay out of the key; only the throughput
#: (events/sec) fields are compared by default — for timings, "bigger"
#: is worse, which the ratio logic deliberately does not model.
MEASURED = frozenset(
    {
        "naive_eps",
        "encoded_eps",
        "encoded_off_eps",
        "vector_eps",
        "vector_speedup",
        "raw_eps",
        "opt_eps",
        "journal_on_eps",
        "journal_off_eps",
        "journal_ratio",
        "mttr_s",
        "events_replayed",
        "restarts",
        "scenario_eps",
        "active_eps",
        "offered_eps",
        "achieved_eps",
        "capacity_eps",
        "utilization",
        "speedup",
        "ratio",
        "scenario_ratio",
        "deliveries",
        "flatten_ms",
        "pass_ms",
        "p50_s",
        "p95_s",
        "p99_s",
        "mean_latency_s",
        "wall_seconds",
    }
)

#: Measured fields where *smaller* is better (latency percentiles).
#: These come out of log-scaled factor-2 histograms, so any value is
#: quantized to a power-of-two bucket edge and a one-bucket move already
#: reads as 2x: a latency only regresses when it rises by more than two
#: bucket steps (> 4x) *and* sits above the scheduler-jitter floor.
#: Above saturation (utilization > 1) the queue never drains, so the
#: percentiles scale with offered-minus-capacity — pure capacity-probe
#: jitter — and are not compared at all.
LOWER_IS_BETTER = frozenset({"p50_s", "p95_s", "p99_s", "mean_latency_s", "mttr_s"})
LATENCY_RATIO = 4.0
LATENCY_FLOOR_S = 1e-4
SATURATED_UTILIZATION = 1.0

#: Metrics compared when --metric is not given.
DEFAULT_METRICS = (
    "naive_eps",
    "encoded_eps",
    "encoded_off_eps",
    "vector_eps",
    "raw_eps",
    "opt_eps",
    "journal_on_eps",
    "journal_off_eps",
    "scenario_eps",
    "active_eps",
    "achieved_eps",
    "p99_s",
    "mttr_s",
)

BASELINE_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
)


def row_key(row: dict) -> tuple:
    """A row's configuration identity: every non-measured field."""
    return tuple(sorted((k, v) for k, v in row.items() if k not in MEASURED))


def load_rows(path: pathlib.Path) -> dict[tuple, dict]:
    """Sweep rows of one artifact, keyed by configuration.

    Handles a bare list, a ``{"rows": [...]}`` object, and objects with
    several named row lists (each list's name is folded into the key as
    a ``_section`` field; non-list values such as ``acceptance`` are
    ignored).
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):
        sections = {"rows": data}
    else:
        sections = {
            name: value for name, value in data.items() if isinstance(value, list)
        }
    keyed: dict[tuple, dict] = {}
    for name, rows in sections.items():
        for row in rows:
            tagged = dict(row)
            if name != "rows":
                tagged["_section"] = name
            keyed[row_key(tagged)] = tagged
    return keyed


def check(
    fresh_path: pathlib.Path,
    baseline_path: pathlib.Path,
    threshold: float,
    metrics: list[str],
) -> int:
    """Print the comparison; return the process exit code."""
    if not baseline_path.exists():
        print(f"no committed baseline at {baseline_path}; nothing to compare")
        return 2
    fresh = load_rows(fresh_path)
    baseline = load_rows(baseline_path)

    regressions = []
    compared = 0
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        config = ", ".join(f"{k}={v}" for k, v in key)
        if fresh_row is None:
            print(f"  [skip] baseline-only configuration: {config}")
            continue
        saturated = (
            base_row.get("utilization", 0.0) > SATURATED_UTILIZATION
            or fresh_row.get("utilization", 0.0) > SATURATED_UTILIZATION
        )
        for metric in metrics:
            if metric not in base_row or metric not in fresh_row:
                continue
            if metric in LOWER_IS_BETTER and saturated:
                print(f"  [skip] saturated configuration ({metric}): {config}")
                continue
            compared += 1
            base_value = base_row[metric]
            fresh_value = fresh_row[metric]
            if base_value:
                ratio = fresh_value / base_value
            else:
                ratio = float("inf") if fresh_value else 1.0
            verdict = "ok"
            if metric in LOWER_IS_BETTER:
                regressed = fresh_value > LATENCY_FLOOR_S and ratio > LATENCY_RATIO
            else:
                regressed = ratio < 1.0 - threshold
            if regressed:
                verdict = "REGRESSION"
                regressions.append((config, metric, base_value, fresh_value))
            print(
                f"  [{verdict:>10}] {config} {metric}: "
                f"baseline {base_value:,.6g} -> fresh {fresh_value:,.6g} "
                f"({ratio:.2f}x)"
            )
    for key in fresh.keys() - baseline.keys():
        config = ", ".join(f"{k}={v}" for k, v in key)
        print(f"  [skip] fresh-only configuration: {config}")

    if not compared:
        print("no overlapping configurations between fresh and baseline artifacts")
        return 2
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed more than "
            f"{threshold:.0%} below baseline:"
        )
        for config, metric, base_value, fresh_value in regressions:
            print(f"  {config}: {metric} {base_value:,.6g} -> {fresh_value:,.6g}")
        return 1
    print(f"\nall {compared} compared metric(s) within {threshold:.0%} of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >threshold throughput regression vs committed baseline"
    )
    parser.add_argument(
        "fresh", type=pathlib.Path, help="freshly produced JSON artifact"
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="committed baseline artifact (default: the file of the same "
        f"name under {BASELINE_DIR})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional drop before failing (default: 0.30)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        dest="metrics",
        help="measured field(s) to compare "
        f"(default: {', '.join(DEFAULT_METRICS)}; skipped where absent)",
    )
    args = parser.parse_args(argv)
    if args.baseline is None:
        args.baseline = BASELINE_DIR / args.fresh.name
    metrics = args.metrics or list(DEFAULT_METRICS)
    print(
        f"comparing {args.fresh} against {args.baseline} "
        f"(threshold {args.threshold:.0%}, metrics {', '.join(metrics)})"
    )
    return check(args.fresh, args.baseline, args.threshold, metrics)


if __name__ == "__main__":
    sys.exit(main())
