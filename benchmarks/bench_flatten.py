"""Flattening pipeline: expansion cost and fleet throughput on flattened machines.

Two questions, one artifact:

* **How much does flattening cost?**  Wall-clock per engine (eager
  materialise-then-prune vs lazy frontier) across the bundled
  hierarchical models, including commit-protocol wrappers of growing
  replication factor, together with the state/transition blow-up the
  expansion produces.
* **Do flattened machines serve at fleet scale?**  The naive-vs-encoded
  dispatch comparison of ``bench_serve``, re-run on machines produced by
  ``flatten()`` — every timed configuration differentially verified
  against *direct hierarchical simulation* first, so the speedup numbers
  are for provably equivalent execution.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_flatten.py -q

or standalone (``--fast`` trims for CI smoke, ``--json PATH`` writes the
rows as a JSON artifact)::

    PYTHONPATH=src python benchmarks/bench_flatten.py [--fast] [--json BENCH_flatten.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.pipeline import ENGINES
from repro.models import build_hierarchical_model
from repro.serve import (
    FleetEngine,
    WorkloadSpec,
    diff_against_hierarchical,
    generate_workload,
)

#: (model name, replication factor) flatten-cost sweep points.
FLATTEN_SWEEP = (("session", 4), ("commit", 4), ("commit", 7), ("commit", 10))
FAST_FLATTEN_SWEEP = (("session", 4), ("commit", 4))

#: (model name, replication factor, instances, events, shards) serve points.
SERVE_SWEEP = (("session", 4, 10_000, 200_000, 16), ("commit", 4, 10_000, 200_000, 16))
FAST_SERVE_SWEEP = (("session", 4, 500, 10_000, 4), ("commit", 4, 500, 10_000, 4))


def flatten_sweep(points=FLATTEN_SWEEP, runs=3):
    """Time both flatten engines over ``points``; return report rows."""
    rows = []
    for name, factor in points:
        model = build_hierarchical_model(name, factor)
        for engine in ENGINES:
            best = float("inf")
            report = None
            for _ in range(runs):
                started = time.perf_counter()
                _, report = model.flatten_with_report(engine)
                best = min(best, time.perf_counter() - started)
            rows.append(
                {
                    "model": report.model_name,
                    "engine": engine,
                    "replication_factor": factor,
                    "leaves": report.leaf_count,
                    "expanded_states": report.expanded_states,
                    "flat_states": report.flat_states,
                    "flat_transitions": report.flat_transitions,
                    "transition_blowup": round(report.transition_blowup, 3),
                    "flatten_ms": best * 1000,
                }
            )
    return rows


def _timed_fleet_run(machine, events, instances, shards, mode, runs, verifier=None):
    """Best wall-clock over ``runs``; optionally differentially verified."""
    best = float("inf")
    for _ in range(runs):
        fleet = FleetEngine(machine, shards=shards, mode=mode, auto_recycle=True)
        keys = fleet.spawn_many(instances)
        started = time.perf_counter()
        fleet.run(events)
        best = min(best, time.perf_counter() - started)
        if verifier is not None:
            mismatched = verifier(fleet, keys, events)
            if mismatched:
                raise AssertionError(
                    f"{len(mismatched)} fleet traces diverge from direct "
                    f"hierarchical simulation ({mode}, {instances} instances)"
                )
            verifier = None  # one verification per configuration is enough
    return best


def serve_sweep(points=SERVE_SWEEP, runs=3, seed=0):
    """Naive-vs-encoded fleet throughput on flattened machines."""
    rows = []
    for name, factor, instances, events_n, shards in points:
        model = build_hierarchical_model(name, factor)
        machine = model.flatten("lazy")
        events = generate_workload(
            machine,
            WorkloadSpec(instances=instances, events=events_n, seed=seed),
        )

        def verify(fleet, keys, events, model=model):
            return diff_against_hierarchical(fleet, model, keys, events)

        naive_s = _timed_fleet_run(
            machine, events, instances, shards, "naive", runs, verifier=verify
        )
        encoded_s = _timed_fleet_run(
            machine, events, instances, shards, "encoded", runs, verifier=verify
        )
        rows.append(
            {
                "model": machine.name,
                "instances": instances,
                "events": len(events),
                "shards": shards,
                "naive_eps": len(events) / naive_s,
                "encoded_eps": len(events) / encoded_s,
                "speedup": naive_s / encoded_s,
            }
        )
    return rows


def format_flatten_rows(rows) -> str:
    lines = [
        "model            engine  r   leaves  expanded  flat  trans  blowup  flatten ms",
        "---------------  ------  --  ------  --------  ----  -----  ------  ----------",
    ]
    for row in rows:
        lines.append(
            f"{row['model']:<15}  {row['engine']:<6}  {row['replication_factor']:<2d}  "
            f"{row['leaves']:>6d}  {row['expanded_states']:>8d}  "
            f"{row['flat_states']:>4d}  {row['flat_transitions']:>5d}  "
            f"{row['transition_blowup']:>6.2f}  {row['flatten_ms']:>10.2f}"
        )
    return "\n".join(lines)


def format_serve_rows(rows) -> str:
    lines = [
        "model            instances  events   shards  naive ev/s   encoded ev/s  speedup",
        "---------------  ---------  -------  ------  -----------  ------------  -------",
    ]
    for row in rows:
        lines.append(
            f"{row['model']:<15}  {row['instances']:<9d}  {row['events']:<7d}  "
            f"{row['shards']:<6d}  {row['naive_eps']:>11,.0f}  "
            f"{row['encoded_eps']:>12,.0f}  {row['speedup']:>6.2f}x"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_differential_flattened_fleet():
    """Fleet on flattened machines == direct hierarchical simulation."""
    for name, factor, instances, events_n, shards in FAST_SERVE_SWEEP:
        model = build_hierarchical_model(name, factor)
        machine = model.flatten()
        events = generate_workload(
            machine, WorkloadSpec(instances=instances, events=events_n, seed=3)
        )
        for mode in ("naive", "encoded"):
            fleet = FleetEngine(
                machine, shards=shards, mode=mode, auto_recycle=True
            )
            keys = fleet.spawn_many(instances)
            fleet.run(events)
            assert diff_against_hierarchical(fleet, model, keys, events) == []


def test_bench_flatten_commit_r10(benchmark):
    model = build_hierarchical_model("commit", 10)
    benchmark.pedantic(lambda: model.flatten("lazy"), rounds=3, iterations=1)


def test_bench_encoded_fleet_on_flattened_commit(benchmark):
    model = build_hierarchical_model("commit", 4)
    machine = model.flatten("lazy")
    events = generate_workload(
        machine, WorkloadSpec(instances=5_000, events=50_000, seed=0)
    )

    def run():
        fleet = FleetEngine(machine, shards=16, mode="encoded", auto_recycle=True)
        fleet.spawn_many(5_000)
        fleet.run(events)
        return fleet

    fleet = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["transitions_fired"] = fleet.metrics.transitions_fired


# ----------------------------------------------------------------------
# standalone sweep (CI smoke: --fast)
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description="flattening cost + fleet throughput on flattened machines"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trimmed sweeps + single runs, for CI smoke testing",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the sweep rows as JSON",
    )
    args = parser.parse_args()

    if args.fast:
        flatten_rows = flatten_sweep(points=FAST_FLATTEN_SWEEP, runs=1)
        serve_rows = serve_sweep(points=FAST_SERVE_SWEEP, runs=1)
    else:
        flatten_rows = flatten_sweep()
        serve_rows = serve_sweep()

    print("flattening cost (hierarchy -> plain StateMachine):")
    print(format_flatten_rows(flatten_rows))
    print()
    print("fleet throughput on flattened machines (differentially verified):")
    print(format_serve_rows(serve_rows))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"flatten": flatten_rows, "serve": serve_rows}, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
