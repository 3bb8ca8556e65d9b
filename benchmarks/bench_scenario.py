"""Scenario plane overhead: the timed wheel vs raw encoded dispatch.

The scenario engine (:mod:`repro.serve.scenario`) fronts a fleet with a
deterministic scheduled-event wheel.  When a scenario declares no
timers, no routes and no faults, the engine runs *passthrough*: external
batches are collected per virtual instant at schedule time and
pre-interned to one flat ``[slot, col, ...]`` schedule each, so the wheel
adds one heap pop and one encoded ``run`` call per distinct timestamp.

This sweep measures that overhead directly: the same recorded workload
is pushed through a raw encoded fleet (one encoded ``run`` on the whole
pre-interned schedule — the bench_serve fast path) and through a
passthrough scenario spread over hundreds of distinct virtual instants.
The acceptance claim is **passthrough scenario dispatch sustains at
least 0.8x the raw encoded throughput at the 10k-instance point** — the
wheel must stay a thin timed front, not a second dispatch plane.

An informational ``active`` section times a full commit scenario
(timers + machine-driven routing at fleet scale) in deliveries/sec;
there is no gate on it — observation cost is proportional to touched
instances and is the price of the semantics.

Run standalone (``--fast`` trims for CI smoke, ``--json PATH`` writes
the artifact compared by ``scripts/check_bench_regression.py``)::

    PYTHONPATH=src python benchmarks/bench_scenario.py [--fast] [--json PATH]
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
from repro.models.commit import scenario_profile as commit_profile
from repro.obs import FleetTelemetry, telemetry_sample
from repro.serve import (
    FleetEngine,
    GroupTopology,
    Scenario,
    ScenarioEngine,
    ScenarioProfile,
    ScenarioSpec,
    TimedEvent,
    WorkloadSpec,
    diff_fleets,
    generate_scenario,
    generate_workload,
    run_scenario,
    session_keys,
)

#: (instances, events, distinct instants, shards) sweep points.
SWEEP = (
    (1_000, 50_000, 100, 8),
    (10_000, 300_000, 200, 16),
)

#: CI smoke sweep.
FAST_SWEEP = ((200, 5_000, 50, 4),)

#: (groups, group_size) of the informational active-scenario points.
ACTIVE = ((100, 4),)
FAST_ACTIVE = ((10, 4),)

#: Passthrough acceptance: the 10k-instance point, >= 0.8x raw encoded.
ACCEPT_POINT = (10_000, 300_000, 200, 16)
ACCEPT_RATIO = 0.8


def _passthrough_scenario(machine, instances, events_n, instants, seed=0):
    """A timed copy of the recorded workload, spread over ``instants``."""
    keys = session_keys(instances)
    schedule = generate_workload(
        machine, WorkloadSpec(instances=instances, events=events_n, seed=seed)
    )
    per_tick = max(1, events_n // instants)
    events = tuple(
        TimedEvent(float(i // per_tick), key, message)
        for i, (key, message) in enumerate(schedule)
    )
    return (
        schedule,
        Scenario(
            profile=ScenarioProfile(),
            topology=GroupTopology([[key] for key in keys]),
            events=events,
            until=events[-1].time + 1.0,
        ),
    )


def _timed_raw(machine, schedule, instances, shards, runs=3):
    """Raw encoded plane: events/sec of encoded ``run`` on the schedule."""
    best = float("inf")
    fleet = None
    for _ in range(runs):
        candidate = FleetEngine(
            machine, shards=shards, mode="encoded", auto_recycle=True
        )
        candidate.spawn_many(instances)
        flat = candidate.encode_flat(schedule)
        started = time.perf_counter()
        candidate.run(flat, encoding="flat")
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            fleet = candidate
    return len(schedule) / best, fleet


def _timed_scenario(machine, scenario, shards, runs=3):
    """Passthrough scenario: events/sec of ``engine.run`` over the wheel."""
    best = float("inf")
    fleet = None
    for _ in range(runs):
        candidate = FleetEngine(
            machine, shards=shards, mode="encoded", auto_recycle=True
        )
        engine = ScenarioEngine(candidate, scenario.profile, scenario.topology)
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        started = time.perf_counter()
        engine.run(scenario.until)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            fleet = candidate
    return len(scenario.events) / best, fleet


def _timed_active(machine, groups, group_size, runs=3, seed=0):
    """Full scenario semantics: deliveries/sec with timers + routing on."""
    scenario = generate_scenario(
        machine,
        commit_profile(),
        ScenarioSpec(groups=groups, group_size=group_size, seed=seed),
    )
    best = float("inf")
    delivered = 0
    for _ in range(runs):
        fleet = FleetEngine(machine, shards=8, mode="encoded")
        started = time.perf_counter()
        engine = run_scenario(fleet, scenario)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            delivered = engine.metrics.events_delivered
    return {
        "groups": groups,
        "group_size": group_size,
        "deliveries": delivered,
        "active_eps": delivered / best,
    }


def metrics_sample(groups=10, group_size=4, seed=0):
    """A telemetry snapshot for the artifact's ``metrics`` section.

    Runs a small *separate* telemetered scenario (timers + routing +
    tracing all on); the timed sweeps above stay untelemetered.
    """
    machine = CommitModel(4).generate_state_machine()
    scenario = generate_scenario(
        machine,
        commit_profile(),
        ScenarioSpec(groups=groups, group_size=group_size, seed=seed),
    )
    fleet = FleetEngine(
        machine, shards=4, mode="encoded", telemetry=FleetTelemetry()
    )
    run_scenario(fleet, scenario)
    return telemetry_sample(fleet)


def sweep(points=SWEEP, active_points=ACTIVE, runs=3, seed=0):
    """Raw-vs-passthrough rows plus informational active rows."""
    machine = CommitModel(4).generate_state_machine()
    rows = []
    for instances, events_n, instants, shards in points:
        schedule, scenario = _passthrough_scenario(
            machine, instances, events_n, instants, seed=seed
        )
        raw_eps, raw_fleet = _timed_raw(machine, schedule, instances, shards, runs)
        scenario_eps, scenario_fleet = _timed_scenario(machine, scenario, shards, runs)
        # Differential check: the wheel changed the timing, not the traces.
        mismatched = diff_fleets(scenario_fleet, raw_fleet, scenario.topology.keys)
        if mismatched:
            raise AssertionError(
                f"{len(mismatched)} scenario traces diverge from the raw "
                f"encoded run ({instances} instances)"
            )
        rows.append(
            {
                "instances": instances,
                "events": events_n,
                "instants": instants,
                "shards": shards,
                "raw_eps": raw_eps,
                "scenario_eps": scenario_eps,
                "scenario_ratio": scenario_eps / raw_eps,
            }
        )
    active = [
        _timed_active(machine, groups, group_size, runs=runs, seed=seed)
        for groups, group_size in active_points
    ]
    return rows, active


def format_rows(rows, active) -> str:
    """Render sweep rows as an aligned table."""
    lines = [
        "instances  events   instants  shards  raw ev/s     scenario ev/s  ratio",
        "---------  -------  --------  ------  -----------  -------------  -----",
    ]
    for row in rows:
        lines.append(
            f"{row['instances']:<10d} {row['events']:<8d} {row['instants']:<9d} "
            f"{row['shards']:<7d} {row['raw_eps']:>11,.0f}  "
            f"{row['scenario_eps']:>13,.0f}  {row['scenario_ratio']:>4.2f}x"
        )
    lines.append("")
    lines.append("active scenario (timers + routing):  groups  deliveries  del/s")
    for row in active:
        lines.append(
            f"                                     {row['groups']:<7d} "
            f"{row['deliveries']:<11d} {row['active_eps']:>10,.0f}"
        )
    return "\n".join(lines)


def acceptance(runs: int = 3) -> dict:
    """Passthrough-vs-raw ratio at the acceptance point."""
    instances, events_n, instants, shards = ACCEPT_POINT
    machine = CommitModel(4).generate_state_machine()
    schedule, scenario = _passthrough_scenario(machine, instances, events_n, instants)
    raw_eps, _ = _timed_raw(machine, schedule, instances, shards, runs)
    scenario_eps, _ = _timed_scenario(machine, scenario, shards, runs)
    ratio = scenario_eps / raw_eps
    return {
        "instances": instances,
        "events": events_n,
        "instants": instants,
        "raw_eps": raw_eps,
        "scenario_eps": scenario_eps,
        "ratio": ratio,
        "required": ACCEPT_RATIO,
        "pass": ratio >= ACCEPT_RATIO,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_passthrough_matches_raw_traces():
    """The wheel is observationally transparent in passthrough."""
    machine = CommitModel(4).generate_state_machine()
    schedule, scenario = _passthrough_scenario(machine, 200, 5_000, 50)
    _, raw_fleet = _timed_raw(machine, schedule, 200, 4, runs=1)
    _, scenario_fleet = _timed_scenario(machine, scenario, 4, runs=1)
    assert diff_fleets(scenario_fleet, raw_fleet, scenario.topology.keys) == []


def test_passthrough_overhead_within_bound():
    """The scenario acceptance criterion: >= 0.8x raw encoded throughput."""
    result = acceptance()
    assert result["pass"], (
        f"passthrough scenario dispatch is only {result['ratio']:.2f}x the "
        f"raw encoded throughput (needs >= {ACCEPT_RATIO}x)"
    )


# ----------------------------------------------------------------------
# standalone sweep (CI smoke: --fast)
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description="scenario wheel overhead vs raw encoded dispatch"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trimmed sweep + single runs, for CI smoke testing (the "
        "acceptance gate is skipped: tiny populations exaggerate the "
        "per-instant wheel cost)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the sweep rows (and acceptance result) as JSON",
    )
    args = parser.parse_args()

    if args.fast:
        rows, active = sweep(points=FAST_SWEEP, active_points=FAST_ACTIVE, runs=1)
    else:
        rows, active = sweep()
    print(format_rows(rows, active))

    result = {
        "rows": rows,
        "active": active,
        "acceptance": None,
        "metrics": metrics_sample(),
    }
    ok = True
    if not args.fast:
        accept = acceptance()
        result["acceptance"] = accept
        print(
            f"\nacceptance: passthrough scenario {accept['ratio']:.2f}x raw "
            f"encoded at {accept['instances']} instances -> "
            f"{'PASS' if accept['pass'] else 'FAIL'} (needs >= {ACCEPT_RATIO}x)"
        )
        ok = accept["pass"]

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
