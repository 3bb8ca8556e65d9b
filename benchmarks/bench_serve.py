"""Fleet execution plane: the three dispatch modes on one workload.

The sweep hosts a population of commit-machine instances in a
:class:`~repro.serve.fleet.FleetEngine` and pushes the same recorded
workload, interned once per fleet with ``encode_flat`` outside the timed
region, through every dispatch mode:

* ``naive``   — one full interpreter protocol walk per event (the
  reference a straightforward deployment of the paper's runtime would
  use);
* ``encoded`` — pure int arithmetic on two flat arrays — measured with
  the ``full`` action-log policy and with ``off`` (per-event tuple
  appends dominate the profile at 10k+ instances, which is exactly what
  the log-policy knob removes);
* ``vector``  — the numpy gather/scatter kernel over the columnar store
  (:mod:`repro.serve.vector`), timed on its pre-split
  :class:`~repro.serve.vector.VectorSchedule` with ``log_policy="off"``
  for the headline ``vector_eps`` column.  numpy is a soft dependency:
  without it the column is *omitted* from the rows (with a printed
  reason), and the regression gate skips it.

Every ``full``-policy configuration is differentially verified first: per
instance, the fleet's final state/action trace must equal a standalone
:class:`~repro.runtime.interp.MachineInterpreter` replay of the same
schedule.  One headline acceptance claim, on the uniform 10k-instance
scenario with ``log_policy="off"`` on both sides: **the vector kernel
sustains at least 5x the encoded loop's throughput**.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q

or standalone (prints the sweep table; ``--fast`` trims it for CI smoke,
``--json PATH`` writes the rows as a JSON artifact)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--fast] [--json BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.models.commit import CommitModel
from repro.obs import FleetTelemetry, telemetry_sample
from repro.serve import (
    HAS_NUMPY,
    NUMPY_UNAVAILABLE_REASON,
    FleetEngine,
    WorkloadSpec,
    diff_against_standalone,
    generate_workload,
)


def metrics_sample(instances=500, events=10_000, shards=4, seed=0):
    """A telemetry snapshot for the artifact's ``metrics`` section.

    Runs a small *separate* telemetered fleet over the posted path so
    the queue-latency and batch histograms engage; the timed sweeps
    above stay untelemetered and unperturbed.
    """
    machine = CommitModel(4).generate_state_machine()
    schedule = generate_workload(
        machine, WorkloadSpec(instances=instances, events=events, seed=seed)
    )
    fleet = FleetEngine(
        machine,
        shards=shards,
        mode="encoded",
        auto_recycle=True,
        telemetry=FleetTelemetry(),
    )
    fleet.spawn_many(instances)
    for key, message in schedule:
        fleet.post(key, message)
    fleet.drain_all()
    return telemetry_sample(fleet)

#: (scenario, instances, events, shards) sweep points.
SWEEP = (
    ("uniform", 1_000, 50_000, 8),
    ("uniform", 10_000, 300_000, 16),
    ("hotkey", 10_000, 300_000, 16),
    ("burst", 10_000, 300_000, 16),
    ("uniform", 100_000, 500_000, 32),
)

#: CI smoke sweep: small counts, still one point per scenario.
FAST_SWEEP = (
    ("uniform", 500, 10_000, 4),
    ("hotkey", 500, 10_000, 4),
    ("burst", 500, 10_000, 4),
)

#: Vector-vs-encoded acceptance: the uniform 10k-instance point, both
#: sides with ``log_policy="off"`` — no arrival-pattern help, and the
#: ratio is purely bytecode loop vs gather/scatter kernel on the
#: identical jump table.
VECTOR_ACCEPT_SCENARIO = ("uniform", 10_000, 300_000, 16)
VECTOR_ACCEPT_SPEEDUP = 5.0


def _timed_run(
    machine,
    events,
    instances,
    shards,
    mode,
    runs=3,
    verify=False,
    log_policy="full",
):
    """Best events/sec over ``runs``; optionally differentially verified.

    Every mode is timed on its pre-encoded ``encode_flat`` schedule —
    interning happens once per workload, outside the timed region,
    exactly as a generator feeding ``run`` would do it (for a vector
    fleet the schedule's rounds are split at encode time too, so its
    timed region is pure gather/scatter).  Throughput comes from the
    fleet's ``events_per_second`` helper.
    """
    best = float("inf")
    metrics = None
    for _ in range(runs):
        fleet = FleetEngine(
            machine,
            shards=shards,
            backend="interp",
            mode=mode,
            auto_recycle=True,
            log_policy=log_policy,
        )
        keys = fleet.spawn_many(instances)
        schedule = fleet.encode_flat(events)
        started = time.perf_counter()
        fleet.run(schedule, encoding="flat")
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            metrics = fleet.metrics
        if verify:
            mismatched = diff_against_standalone(fleet, keys, events)
            if mismatched:
                raise AssertionError(
                    f"{len(mismatched)} fleet traces diverge from standalone "
                    f"replay ({mode}/{log_policy}, {instances} instances)"
                )
            verify = False  # one verification per configuration is enough
    return metrics.events_per_second(best)


def sweep(points=SWEEP, runs=3, seed=0):
    """Run the dispatch-mode comparison over ``points``; return rows.

    Each row carries the configuration, per-mode events/sec and the
    headline ratio.  Every ``full``-policy mode is differentially
    verified once per configuration; the ``encoded_off`` and ``vector``
    columns run ``log_policy="off"`` (no trace retained, nothing to
    verify — the vector kernel's trace equality is verified by its own
    ``full``-policy run and the serve test suite).  Without numpy the
    ``vector_eps``/``vector_speedup`` keys are omitted — not ``None`` —
    so the regression gate skips them cleanly.
    """
    machine = CommitModel(4).generate_state_machine()
    modes = ("naive", "encoded") + (("vector",) if HAS_NUMPY else ())
    rows = []
    for scenario, instances, events_n, shards in points:
        spec = WorkloadSpec(
            scenario=scenario, instances=instances, events=events_n, seed=seed
        )
        events = generate_workload(machine, spec)
        eps = {
            mode: _timed_run(
                machine, events, instances, shards, mode, runs=runs, verify=True
            )
            for mode in modes
        }
        encoded_off = _timed_run(
            machine,
            events,
            instances,
            shards,
            "encoded",
            runs=runs,
            log_policy="off",
        )
        row = {
            "scenario": scenario,
            "instances": instances,
            "events": len(events),
            "shards": shards,
            "naive_eps": eps["naive"],
            "encoded_eps": eps["encoded"],
            "encoded_off_eps": encoded_off,
        }
        if HAS_NUMPY:
            vector_off = _timed_run(
                machine,
                events,
                instances,
                shards,
                "vector",
                runs=runs,
                log_policy="off",
            )
            row["vector_eps"] = vector_off
            row["vector_speedup"] = vector_off / encoded_off
        rows.append(row)
    return rows


def format_rows(rows) -> str:
    """Render sweep rows as an aligned table."""
    lines = [
        "scenario  instances  events   shards  naive ev/s   "
        "encoded ev/s  enc-off ev/s  vector ev/s   vec/enc-off",
        "--------  ---------  -------  ------  -----------  "
        "------------  ------------  ------------  -----------",
    ]
    for row in rows:
        vector_eps = (
            f"{row['vector_eps']:>12,.0f}" if "vector_eps" in row else f"{'-':>12}"
        )
        vector_speedup = (
            f"{row['vector_speedup']:>10.2f}x"
            if "vector_speedup" in row
            else f"{'-':>11}"
        )
        lines.append(
            f"{row['scenario']:<9} {row['instances']:<10d} {row['events']:<8d} "
            f"{row['shards']:<7d} {row['naive_eps']:>11,.0f}  "
            f"{row['encoded_eps']:>12,.0f}  {row['encoded_off_eps']:>12,.0f}  "
            f"{vector_eps}  {vector_speedup}"
        )
    return "\n".join(lines)


def vector_acceptance(runs: int = 3) -> dict:
    """Vector-vs-encoded(off) throughput at the uniform 10k point.

    Both planes run ``log_policy="off"`` over the same workload, so the
    ratio isolates the kernel itself.  The vector side is additionally
    differentially verified once under ``full`` (against a standalone
    replay) before the timed ``off`` runs — the throughput claim only
    counts if the kernel is trace-identical.  Without numpy the claim is
    reported skipped, with the reason, instead of failing.
    """
    if not HAS_NUMPY:
        return {"skipped": True, "reason": NUMPY_UNAVAILABLE_REASON}
    scenario, instances, events_n, shards = VECTOR_ACCEPT_SCENARIO
    machine = CommitModel(4).generate_state_machine()
    events = generate_workload(
        machine,
        WorkloadSpec(scenario=scenario, instances=instances, events=events_n, seed=0),
    )
    _timed_run(
        machine, events, instances, shards, "vector", runs=1, verify=True
    )
    encoded = _timed_run(
        machine, events, instances, shards, "encoded", runs=runs, log_policy="off"
    )
    vector = _timed_run(
        machine, events, instances, shards, "vector", runs=runs, log_policy="off"
    )
    return {
        "scenario": scenario,
        "instances": instances,
        "encoded_off_eps": encoded,
        "vector_eps": vector,
        "speedup": vector / encoded,
        "required": VECTOR_ACCEPT_SPEEDUP,
        "pass": vector / encoded >= VECTOR_ACCEPT_SPEEDUP,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_differential_all_scenarios():
    """Fleet == standalone for every scenario (the timing-free guarantee)."""
    machine = CommitModel(4).generate_state_machine()
    modes = ("naive", "encoded") + (("vector",) if HAS_NUMPY else ())
    for scenario in ("uniform", "hotkey", "burst"):
        events = generate_workload(
            machine,
            WorkloadSpec(scenario=scenario, instances=200, events=5_000, seed=3),
        )
        for mode in modes:
            fleet = FleetEngine(machine, shards=4, mode=mode, auto_recycle=True)
            keys = fleet.spawn_many(200)
            fleet.run(events)
            assert diff_against_standalone(fleet, keys, events) == []


def test_vector_beats_encoded_5x_at_10k_instances():
    """The vector acceptance criterion, at the uniform 10k point."""
    import pytest

    if not HAS_NUMPY:
        pytest.skip(f"vector kernel unavailable: {NUMPY_UNAVAILABLE_REASON}")
    result = vector_acceptance()
    assert result["pass"], (
        f"vector dispatch is only {result['speedup']:.2f}x the encoded "
        f"(log off) throughput (needs >= {VECTOR_ACCEPT_SPEEDUP}x)"
    )


def test_bench_naive_10k(benchmark):
    machine = CommitModel(4).generate_state_machine()
    events = generate_workload(
        machine, WorkloadSpec(instances=10_000, events=100_000, seed=0)
    )

    def run():
        fleet = FleetEngine(machine, shards=16, mode="naive", auto_recycle=True)
        fleet.spawn_many(10_000)
        fleet.run(events)
        return fleet

    fleet = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["transitions_fired"] = fleet.metrics.transitions_fired


def test_bench_encoded_10k(benchmark):
    machine = CommitModel(4).generate_state_machine()
    events = generate_workload(
        machine, WorkloadSpec(instances=10_000, events=100_000, seed=0)
    )

    def run():
        fleet = FleetEngine(machine, shards=16, mode="encoded", auto_recycle=True)
        fleet.spawn_many(10_000)
        fleet.run(fleet.encode_flat(events), encoding="flat")
        return fleet

    fleet = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["transitions_fired"] = fleet.metrics.transitions_fired


# ----------------------------------------------------------------------
# standalone sweep (CI smoke: --fast)
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fleet serving sweep: naive vs encoded vs vector dispatch"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trimmed sweep + single runs, for CI smoke testing (the "
        "acceptance gate is skipped: tiny populations under-utilise "
        "the vector kernel)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the sweep rows (and acceptance results) as JSON",
    )
    args = parser.parse_args()

    if args.fast:
        rows = sweep(points=FAST_SWEEP, runs=1)
    else:
        rows = sweep()
    print(format_rows(rows))

    if not HAS_NUMPY:
        print(f"vector column skipped: {NUMPY_UNAVAILABLE_REASON}")

    result = {
        "rows": rows,
        "vector_acceptance": None,
        "metrics": metrics_sample(),
    }
    ok = True
    if not args.fast:
        vector = vector_acceptance()
        result["vector_acceptance"] = vector
        if vector.get("skipped"):
            print(f"\nacceptance: vector skipped ({vector['reason']})")
        else:
            ok = vector["pass"]
            print(
                f"\nacceptance: vector (log off) {vector['speedup']:.2f}x "
                f"encoded (log off) at {vector['instances']} instances "
                f"({vector['scenario']}) -> "
                f"{'PASS' if ok else 'FAIL'} "
                f"(needs >= {VECTOR_ACCEPT_SPEEDUP}x)"
            )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
