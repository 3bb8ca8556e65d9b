"""Offered-load sweep: client-side latency percentiles and the saturation knee.

``bench_serve`` measures how fast the fleet can drain a pre-recorded
schedule; this bench asks the client-side question instead: *at a given
offered rate, what latency distribution does an arrival see?*  The load
harness (:mod:`repro.serve.loadgen`) stamps Poisson arrivals on a
virtual clock, measures per-event service times by chunked real
dispatch, and replays the arrival schedule through a FIFO queue — so the
percentiles combine genuinely measured service cost with the queueing
the offered rate implies.

The sweep probes the fleet's capacity once, then offers fractions of it
(well under, near, and past saturation).  Each row reports offered and
achieved events/sec plus p50/p95/p99 from the telemetry plane's
log-scaled histograms; the **saturation knee** is the highest offered
fraction whose achieved rate keeps up (>= 0.95x offered) — past it the
open loop's queue grows without bound and achieved flattens at capacity.

Two gates:

* **telemetry overhead** (skipped under ``--fast``: tiny populations
  exaggerate fixed costs) — encoded dispatch with the full telemetry
  plane attached (queue-latency histograms, batch timing, tracing)
  sustains **>= 0.9x the untelemetered encoded throughput** at the
  10k-instance point.  Telemetry must be cheap enough to leave on.
* **analytic quantiles** (always runs) — a virtual-mode run with
  constant service time and a uniform pulse train below saturation is a
  D/D/1 queue whose steady-state latency is exactly the service time;
  p50/p95/p99 must land within one histogram bucket width of it.  This
  pins the histogram math, not the machine's speed, so it is exact and
  deterministic.

Run standalone (``--fast`` trims for CI smoke, ``--json PATH`` writes
the artifact compared by ``scripts/check_bench_regression.py``)::

    PYTHONPATH=src python benchmarks/bench_load.py [--fast] [--json PATH]
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
    ClosedLoopSpec,
    FleetEngine,
    OpenLoopSpec,
    WorkloadSpec,
    generate_workload,
    run_closed_loop,
    run_open_loop,
)

#: (instances, events, shards) of the sweep point.
POINT = (10_000, 200_000, 16)
FAST_POINT = (500, 10_000, 4)

#: Offered load as fractions of the probed capacity.
FRACTIONS = (0.3, 0.5, 0.7, 0.85, 0.95, 1.1, 1.5)

#: Closed-loop user populations (informational: self-throttled rates).
CLOSED_USERS = (64, 256)
FAST_CLOSED_USERS = (32,)

#: Saturation knee: highest fraction whose achieved rate keeps up.
KNEE_KEEPUP = 0.95

#: Telemetry overhead acceptance: the 10k-instance point, >= 0.9x plain.
ACCEPT_POINT = POINT
ACCEPT_RATIO = 0.9

#: Analytic gate: D/D/1 below saturation — latency == service exactly.
ANALYTIC_SERVICE = 0.004
ANALYTIC_UTILIZATION = 0.5
ANALYTIC_EVENTS = 20_000


def _telemetered_fleet(machine, instances, shards):
    fleet = FleetEngine(
        machine,
        shards=shards,
        mode="encoded",
        auto_recycle=True,
        telemetry=FleetTelemetry(),
    )
    fleet.spawn_many(instances)
    return fleet


def probe_capacity(machine, point, runs=3, seed=0):
    """Best-of-``runs`` measured capacity (events/sec) at ``point``."""
    instances, events_n, shards = point
    spec = OpenLoopSpec(rate=1.0, events=events_n, instances=instances, seed=seed)
    best = 0.0
    for _ in range(runs):
        fleet = _telemetered_fleet(machine, instances, shards)
        report = run_open_loop(machine, spec, fleet=fleet)
        best = max(best, report.capacity_eps)
    return best


def sweep(point=POINT, fractions=FRACTIONS, runs=3, seed=0):
    """Offered-load rows over fractions of probed capacity, plus the knee.

    Returns ``(rows, knee, sample)`` where ``sample`` is the telemetry
    snapshot of the last sweep fleet (the artifact's ``metrics``
    section).
    """
    machine = CommitModel(4).generate_state_machine()
    instances, events_n, shards = point
    capacity = probe_capacity(machine, point, runs=runs, seed=seed)
    rows = []
    fleet = None
    for fraction in fractions:
        spec = OpenLoopSpec(
            rate=fraction * capacity,
            events=events_n,
            instances=instances,
            seed=seed,
        )
        fleet = _telemetered_fleet(machine, instances, shards)
        report = run_open_loop(machine, spec, fleet=fleet)
        rows.append(
            {
                "instances": instances,
                "events": events_n,
                "shards": shards,
                "offered_fraction": fraction,
                "offered_eps": report.offered_eps,
                "achieved_eps": report.achieved_eps,
                "capacity_eps": report.capacity_eps,
                "utilization": report.utilization,
                "p50_s": report.p50_s,
                "p95_s": report.p95_s,
                "p99_s": report.p99_s,
                "mean_latency_s": report.latency.mean,
            }
        )
    kept = [r for r in rows if r["achieved_eps"] >= KNEE_KEEPUP * r["offered_eps"]]
    knee = {
        "probe_capacity_eps": capacity,
        "keepup": KNEE_KEEPUP,
        "knee_fraction": max(r["offered_fraction"] for r in kept) if kept else 0.0,
        "knee_offered_eps": max(r["offered_eps"] for r in kept) if kept else 0.0,
    }
    return rows, knee, telemetry_sample(fleet)


def closed_rows(point=POINT, users_list=CLOSED_USERS, seed=0):
    """Closed-loop rows: ``users`` sessions post, wait, think, repeat."""
    machine = CommitModel(4).generate_state_machine()
    _instances, events_n, shards = point
    rows = []
    for users in users_list:
        spec = ClosedLoopSpec(users=users, events=events_n, seed=seed)
        # Closed loops address instances as user-<i>, not session-<i>.
        fleet = FleetEngine(
            machine,
            shards=shards,
            mode="encoded",
            auto_recycle=True,
            telemetry=FleetTelemetry(),
        )
        fleet.spawn_many(users, prefix="user")
        report = run_closed_loop(machine, spec, fleet=fleet)
        rows.append(
            {
                "users": users,
                "events": events_n,
                "shards": shards,
                "achieved_eps": report.achieved_eps,
                "utilization": report.utilization,
                "p50_s": report.p50_s,
                "p95_s": report.p95_s,
                "p99_s": report.p99_s,
            }
        )
    return rows


def acceptance(runs=3, seed=0):
    """Telemetry overhead: telemetered vs plain encoded dispatch."""
    instances, events_n, shards = ACCEPT_POINT
    machine = CommitModel(4).generate_state_machine()
    schedule = generate_workload(
        machine, WorkloadSpec(instances=instances, events=events_n, seed=seed)
    )

    def timed(telemetry):
        best = float("inf")
        for _ in range(runs):
            fleet = FleetEngine(
                machine,
                shards=shards,
                mode="encoded",
                auto_recycle=True,
                telemetry=FleetTelemetry() if telemetry else None,
            )
            fleet.spawn_many(instances)
            flat = fleet.encode_flat(schedule)
            started = time.perf_counter()
            fleet.run(flat, encoding="flat")
            best = min(best, time.perf_counter() - started)
        return len(schedule) / best

    plain_eps = timed(telemetry=False)
    telemetered_eps = timed(telemetry=True)
    ratio = telemetered_eps / plain_eps
    return {
        "instances": instances,
        "events": events_n,
        "plain_eps": plain_eps,
        "telemetered_eps": telemetered_eps,
        "ratio": ratio,
        "required": ACCEPT_RATIO,
        "pass": ratio >= ACCEPT_RATIO,
    }


def analytic():
    """Virtual D/D/1 gate: quantiles within one bucket width of service."""
    machine = CommitModel(4).generate_state_machine()
    rate = ANALYTIC_UTILIZATION / ANALYTIC_SERVICE
    spec = OpenLoopSpec(
        rate=rate, events=ANALYTIC_EVENTS, instances=100, process="uniform"
    )
    report = run_open_loop(machine, spec, service_time=ANALYTIC_SERVICE)
    lower, upper = report.latency.bucket_bounds(ANALYTIC_SERVICE)
    width = upper - lower
    quantiles = {"p50_s": report.p50_s, "p95_s": report.p95_s, "p99_s": report.p99_s}
    ok = all(abs(q - ANALYTIC_SERVICE) <= width for q in quantiles.values())
    return {
        "service_s": ANALYTIC_SERVICE,
        "utilization": ANALYTIC_UTILIZATION,
        "bucket_width_s": width,
        **quantiles,
        "pass": ok,
    }


def format_rows(rows, knee, closed) -> str:
    """Render sweep rows as an aligned table."""
    lines = [
        "offered    offered ev/s  achieved ev/s  util   p50 s      p95 s      p99 s",
        "--------   ------------  -------------  -----  ---------  ---------  ---------",
    ]
    for row in rows:
        lines.append(
            f"{row['offered_fraction']:<9.2f}  {row['offered_eps']:>12,.0f}  "
            f"{row['achieved_eps']:>13,.0f}  {row['utilization']:>5.2f}  "
            f"{row['p50_s']:>9.2e}  {row['p95_s']:>9.2e}  {row['p99_s']:>9.2e}"
        )
    lines.append(
        f"\nsaturation knee: offered {knee['knee_fraction']:.2f}x capacity "
        f"({knee['knee_offered_eps']:,.0f} ev/s) still keeps up "
        f"(achieved >= {KNEE_KEEPUP:.0%} of offered); "
        f"probe capacity {knee['probe_capacity_eps']:,.0f} ev/s"
    )
    lines.append("\nclosed loop:  users  achieved ev/s  util   p99 s")
    for row in closed:
        lines.append(
            f"              {row['users']:<6d} {row['achieved_eps']:>13,.0f}  "
            f"{row['utilization']:>5.2f}  {row['p99_s']:>9.2e}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_analytic_quantiles_within_bucket():
    """The histogram acceptance criterion: quantiles match D/D/1 exactly."""
    result = analytic()
    assert result["pass"], (
        f"virtual D/D/1 quantiles {result['p50_s']}/{result['p95_s']}/"
        f"{result['p99_s']} stray more than one bucket width "
        f"({result['bucket_width_s']}) from service {result['service_s']}"
    )


def test_telemetry_overhead_within_bound():
    """The overhead acceptance criterion: >= 0.9x untelemetered encoded."""
    result = acceptance()
    assert result["pass"], (
        f"telemetered encoded dispatch is only {result['ratio']:.2f}x the "
        f"plain encoded throughput (needs >= {ACCEPT_RATIO}x)"
    )


def test_knee_below_saturation_keeps_up():
    """Well under capacity, the open loop's achieved rate tracks offered."""
    rows, knee, _sample = sweep(point=FAST_POINT, fractions=(0.3,), runs=1)
    assert knee["knee_fraction"] >= 0.3, rows


# ----------------------------------------------------------------------
# standalone sweep (CI smoke: --fast)
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description="offered-load latency percentiles and saturation knee"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trimmed point + single runs, for CI smoke testing (the "
        "overhead gate is skipped: tiny populations exaggerate fixed "
        "telemetry costs; the analytic gate always runs)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the sweep rows, gates and telemetry metrics as JSON",
    )
    args = parser.parse_args()

    point = FAST_POINT if args.fast else POINT
    runs = 1 if args.fast else 3
    users = FAST_CLOSED_USERS if args.fast else CLOSED_USERS
    rows, knee, sample = sweep(point=point, runs=runs)
    closed = closed_rows(point=point, users_list=users)
    print(format_rows(rows, knee, closed))

    gate = analytic()
    print(
        f"\nanalytic: virtual D/D/1 p50/p95/p99 = {gate['p50_s']:.2e}/"
        f"{gate['p95_s']:.2e}/{gate['p99_s']:.2e} vs service "
        f"{gate['service_s']:.2e} (bucket width {gate['bucket_width_s']:.2e}) "
        f"-> {'PASS' if gate['pass'] else 'FAIL'}"
    )
    ok = gate["pass"]

    result = {
        "rows": rows,
        "closed": closed,
        "knee": knee,
        "analytic": gate,
        "acceptance": None,
        "metrics": sample,
    }
    if not args.fast:
        accept = acceptance()
        result["acceptance"] = accept
        print(
            f"acceptance: telemetered encoded {accept['ratio']:.2f}x plain "
            f"at {accept['instances']} instances -> "
            f"{'PASS' if accept['pass'] else 'FAIL'} (needs >= {ACCEPT_RATIO}x)"
        )
        ok = ok and accept["pass"]

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
