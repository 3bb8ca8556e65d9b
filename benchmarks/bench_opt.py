"""Optimization pipeline: pass cost and fleet throughput on minimized machines.

Two questions, one artifact:

* **What do the passes cost?**  Wall-clock per pass (best of ``runs``)
  over the bundled machines — the generated commit machine (already
  minimal: the pipeline must be cheap when there is nothing to do) and
  both flattened hierarchical models (where merging recovers the
  flattening blow-up).
* **Does a minimized machine still serve at fleet scale?**  Encoded
  fleet dispatch at >= 10k instances on the flattened commit HSM, raw
  versus optimized (``--opt full``), both differentially verified
  against direct hierarchical simulation.  The acceptance claim:
  **indexed-dispatch fleet throughput on the optimized machine sustains
  at least** :data:`ACCEPT_RATIO` **of the raw encoded baseline** —
  optimization must never cost serving throughput (the per-event loop is
  index arithmetic either way; the optimized machine is strictly
  smaller).

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_opt.py -q

or standalone (``--fast`` trims for CI smoke, ``--json PATH`` writes the
rows as a JSON artifact)::

    PYTHONPATH=src python benchmarks/bench_opt.py [--fast] [--json BENCH_opt.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.models import build_hierarchical_model
from repro.models.commit import CommitModel
from repro.opt import IndexedMachine, standard_pipeline
from repro.serve import (
    FleetEngine,
    WorkloadSpec,
    diff_against_hierarchical,
    generate_workload,
)

#: Machines the pass-cost sweep covers: (label, factory).
PASS_SWEEP = (
    ("commit[r=4]", lambda: CommitModel(4).generate_state_machine()),
    ("commit[r=10]", lambda: CommitModel(10).generate_state_machine(engine="lazy")),
    ("session-hsm", lambda: build_hierarchical_model("session").flatten()),
    ("commit-hsm[r=4]", lambda: build_hierarchical_model("commit", 4).flatten()),
    ("commit-hsm[r=7]", lambda: build_hierarchical_model("commit", 7).flatten()),
)
FAST_PASS_SWEEP = PASS_SWEEP[:1] + PASS_SWEEP[2:4]

#: (model, replication factor, instances, events, shards) serve points.
SERVE_SWEEP = (("commit", 4, 10_000, 200_000, 16),)
FAST_SERVE_SWEEP = (("commit", 4, 500, 10_000, 4),)

#: Optimized encoded throughput must sustain this fraction of raw encoded
#: throughput (1.0 modulo measurement noise: the machine only shrinks).
ACCEPT_RATIO = 0.9


def pass_sweep(points=PASS_SWEEP, runs=3):
    """Per-pass cost and deltas over the bundled machines."""
    pipeline = standard_pipeline(3)
    rows = []
    for label, factory in points:
        machine = factory()
        im = IndexedMachine.from_machine(machine)
        best: dict[str, float] = {}
        report = None
        for _ in range(runs):
            _, report = pipeline.run(im)
            for delta in report.deltas:
                best[delta.name] = min(best.get(delta.name, 1e9), delta.elapsed_s)
        for delta in report.deltas:
            rows.append(
                {
                    "machine": label,
                    "pass": delta.name,
                    "states_before": delta.states_before,
                    "states_after": delta.states_after,
                    "transitions_before": delta.transitions_before,
                    "transitions_after": delta.transitions_after,
                    "action_seqs_before": delta.action_seqs_before,
                    "action_seqs_after": delta.action_seqs_after,
                    "pass_ms": best[delta.name] * 1000,
                }
            )
    return rows


def _timed_fleet_run(machine, events, instances, shards, optimize, runs, verifier):
    """Best wall-clock over ``runs`` of an encoded fleet; verified once."""
    best = float("inf")
    for _ in range(runs):
        fleet = FleetEngine(
            machine,
            shards=shards,
            mode="encoded",
            auto_recycle=True,
            optimize=optimize,
        )
        keys = fleet.spawn_many(instances)
        started = time.perf_counter()
        fleet.run(events)
        best = min(best, time.perf_counter() - started)
        if verifier is not None:
            mismatched = verifier(fleet, keys, events)
            if mismatched:
                raise AssertionError(
                    f"{len(mismatched)} fleet traces diverge from direct "
                    f"hierarchical simulation (optimize={optimize!r}, "
                    f"{instances} instances)"
                )
            verifier = None  # one verification per configuration is enough
    return best


def serve_sweep(points=SERVE_SWEEP, runs=3, seed=0):
    """Batched fleet throughput: raw vs optimized flattened commit HSM."""
    rows = []
    for name, factor, instances, events_n, shards in points:
        model = build_hierarchical_model(name, factor)
        machine = model.flatten("lazy")
        _, opt_report = standard_pipeline(3).run(IndexedMachine.from_machine(machine))
        optimized_states = opt_report.states_after
        events = generate_workload(
            machine, WorkloadSpec(instances=instances, events=events_n, seed=seed)
        )

        def verify(fleet, keys, events, model=model):
            return diff_against_hierarchical(fleet, model, keys, events)

        raw_s = _timed_fleet_run(
            machine, events, instances, shards, None, runs, verify
        )
        opt_s = _timed_fleet_run(
            machine, events, instances, shards, "full", runs, verify
        )
        rows.append(
            {
                "model": machine.name,
                "instances": instances,
                "events": len(events),
                "shards": shards,
                "raw_states": len(machine),
                "opt_states": optimized_states,
                "raw_eps": len(events) / raw_s,
                "opt_eps": len(events) / opt_s,
                "ratio": raw_s / opt_s,
            }
        )
    return rows


def format_pass_rows(rows) -> str:
    lines = [
        "machine          pass          states        transitions   action seqs  ms",
        "---------------  ------------  ------------  ------------  -----------  --------",
    ]
    for row in rows:
        lines.append(
            f"{row['machine']:<15}  {row['pass']:<12}  "
            f"{row['states_before']:>5d} > {row['states_after']:<4d}  "
            f"{row['transitions_before']:>5d} > {row['transitions_after']:<4d}  "
            f"{row['action_seqs_before']:>4d} > {row['action_seqs_after']:<4d}  "
            f"{row['pass_ms']:>8.3f}"
        )
    return "\n".join(lines)


def format_serve_rows(rows) -> str:
    lines = [
        "model            instances  events   states raw>opt  raw ev/s     opt ev/s     ratio",
        "---------------  ---------  -------  ---------------  -----------  -----------  -----",
    ]
    for row in rows:
        lines.append(
            f"{row['model']:<15}  {row['instances']:<9d}  {row['events']:<7d}  "
            f"{row['raw_states']:>6d} > {row['opt_states']:<6d}  "
            f"{row['raw_eps']:>11,.0f}  {row['opt_eps']:>11,.0f}  "
            f"{row['ratio']:>4.2f}x"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_differential_optimized_fleet():
    """Optimized fleet == direct hierarchical simulation (timing-free)."""
    for name, factor, instances, events_n, shards in FAST_SERVE_SWEEP:
        model = build_hierarchical_model(name, factor)
        machine = model.flatten()
        events = generate_workload(
            machine, WorkloadSpec(instances=instances, events=events_n, seed=3)
        )
        for optimize in (None, "full"):
            fleet = FleetEngine(
                machine,
                shards=shards,
                mode="encoded",
                auto_recycle=True,
                optimize=optimize,
            )
            keys = fleet.spawn_many(instances)
            fleet.run(events)
            assert diff_against_hierarchical(fleet, model, keys, events) == []


def test_merge_recovers_flattening_blowup():
    """The minimizer strictly shrinks at least one flattened HSM."""
    machine = build_hierarchical_model("commit", 4).flatten()
    optimized, report = standard_pipeline(2).optimize_machine(machine)
    assert len(optimized) < len(machine)
    assert report.delta("merge").states_removed >= 1


def test_bench_full_pipeline_commit_hsm(benchmark):
    machine = build_hierarchical_model("commit", 7).flatten()
    im = IndexedMachine.from_machine(machine)
    pipeline = standard_pipeline(3)
    benchmark.pedantic(lambda: pipeline.run(im), rounds=3, iterations=1)


def test_bench_optimized_encoded_fleet(benchmark):
    machine = build_hierarchical_model("commit", 4).flatten("lazy")
    events = generate_workload(
        machine, WorkloadSpec(instances=5_000, events=50_000, seed=0)
    )

    def run():
        fleet = FleetEngine(
            machine, shards=16, mode="encoded", auto_recycle=True, optimize="full"
        )
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
        description="optimization pass cost + fleet throughput on minimized machines"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trimmed sweeps + single runs, for CI smoke testing (the "
        "throughput-parity acceptance gate is skipped: tiny populations "
        "are noise-dominated)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the sweep rows (and acceptance result) as JSON",
    )
    args = parser.parse_args()

    if args.fast:
        pass_rows = pass_sweep(points=FAST_PASS_SWEEP, runs=1)
        serve_rows = serve_sweep(points=FAST_SERVE_SWEEP, runs=1)
    else:
        pass_rows = pass_sweep()
        serve_rows = serve_sweep()

    print("pass cost (IndexedMachine pipeline, best of runs):")
    print(format_pass_rows(pass_rows))
    print()
    print("encoded fleet throughput, raw vs optimized (differentially verified):")
    print(format_serve_rows(serve_rows))

    result = {"passes": pass_rows, "serve": serve_rows, "acceptance": None}
    ok = True
    if not args.fast:
        accept = serve_rows[0]
        ok = accept["ratio"] >= ACCEPT_RATIO
        result["acceptance"] = {
            "model": accept["model"],
            "instances": accept["instances"],
            "ratio": accept["ratio"],
            "required": ACCEPT_RATIO,
            "pass": ok,
        }
        print(
            f"\nacceptance: optimized encoded dispatch {accept['ratio']:.2f}x raw "
            f"at {accept['instances']} instances -> {'PASS' if ok else 'FAIL'} "
            f"(needs >= {ACCEPT_RATIO}x)"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
