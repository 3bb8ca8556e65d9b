#!/usr/bin/env python3
"""The repository's benchmark: socket to slot, five workloads, a layer ladder.

    python3 benchmarks/e2e/run.py --seed 1                  # all five workloads
    python3 benchmarks/e2e/run.py --seed 1 --workload gw-single
    python3 benchmarks/e2e/run.py --seed 1 --workload bulk-hotkey --traced
    python3 benchmarks/e2e/run.py --seed 1 --json A.json    # for compare.py

(``PYTHONPATH=src python -m benchmarks.e2e.run ...`` from the repository
root is the same program.)  Every metric is printed by name with its unit,
the median across repetitions, quartiles and sample counts; outputs are
checked against interpreter replays; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
for _path in (REPO / "src", REPO):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit(
        f"benchmarks/e2e needs the program it measures: no 'repro' package "
        f"under {REPO / 'src'}"
    )

from benchmarks.e2e import contract, stats  # noqa: E402
from benchmarks.e2e.workloads import RUNNERS, Skipped  # noqa: E402

#: ``--smoke``: sizes small enough for the test suite.
SMOKE_SECONDS = 0.25
SMOKE_SIZE = {"instances": 1000, "reps": 2}


def _format(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def run_workload(name: str, seed: int, seconds: float, size: dict) -> dict:
    """One untraced run: every metric the workload measures, summarised."""
    outcome = RUNNERS[name](seed, seconds, **size)
    bounds = {metric: bound for metric, _, _, bound in contract.END_TO_END}
    metrics = {}
    for metric, (unit, values, samples) in outcome.metrics.items():
        summary = stats.summarize(values)
        summary.update(unit=unit, samples=samples, bound=bounds.get(metric))
        metrics[metric] = summary
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.failed == 0,
        "notes": outcome.notes,
    }


def print_workload(result: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  (seed {result['seed']}, sized for {result['seconds']} s)")
    print(f"   {contract.WORKLOADS[name]}")
    print(
        f"   {'metric':24s} {'median':>14s} {'unit':6s} "
        f"{'q1':>12s} {'q3':>12s} {'IQR/med':>8s} {'reps':>4s} "
        f"{'samples/rep':>11s}  bound"
    )
    for metric, row in result["metrics"].items():
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        print(
            f"   {metric:24s} {_format(row['median']):>14s} {row['unit']:6s} "
            f"{_format(row['q1']):>12s} {_format(row['q3']):>12s} "
            f"{row['spread']:8.1%} {row['n']:4d} {row['samples']:11d}  {bound}"
        )
    print(
        f"   operations attempted {result['attempted']}, failed {result['failed']}; "
        f"oracle {'ok' if result['correct'] else 'MISMATCH'}"
    )
    for note in result["notes"]:
        print(f"   ! {note}")


def print_ladder(name: str, traced: dict) -> None:
    print(
        f"\n== {name} traced: {traced['events']} {traced['scenario']} events "
        f"through each rung"
    )
    print(f"   {'rung':46s} {'ns/event':>12s} {'over rung below':>16s}")
    below = None
    for rung, cost in traced["rungs"]:
        delta = "" if below is None else f"{cost - below:+16.1f}"
        print(f"   {rung:46s} {cost:12.1f} {delta}")
        below = cost
    print(f"\n   {'span':24s} {'count':>7s} {'total s':>10s} {'self s':>10s}")
    for span, (count, total, own) in sorted(traced["spans"].items()):
        print(f"   {span:24s} {count:7d} {total:10.4f} {own:10.4f}")
    print(f"   spans written to {traced['spans_path']}")
    print(
        f"\n   {'gen-deploy input':18s} {'states':>6s} {'generate':>9s} {'opt':>8s} "
        f"{'render':>8s} {'compile':>8s} {'compiled ev/s':>14s} {'interp ev/s':>12s}"
    )
    for label, row in traced["pipeline"]:
        print(
            f"   {label:18s} {row['states']:6d} {row['generate_s']:9.4f} "
            f"{row['opt_s']:8.4f} {row['render_s']:8.4f} {row['compile_s']:8.4f} "
            f"{row['compiled_events_per_s']:14,.0f} "
            f"{row['interp_events_per_s']:12,.0f}"
        )
    units = {metric: unit for metric, unit, _ in contract.PER_LAYER}
    print(f"\n   {'per-layer metric':40s} {'value':>16s} unit")
    for metric, value in traced["layer"].items():
        print(f"   {metric:40s} {_format(value):>16s} {units[metric]}")


def end_to_end_result(result: dict) -> dict:
    """The contract's result object for an untraced run."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": result["metrics"][metric]["median"], "unit": unit}
            for metric, unit, _, _ in contract.END_TO_END
        },
    }


def per_layer_result(traced: dict) -> dict:
    """The contract's result object for a traced run."""
    return {
        "correct": traced["failed"] == 0,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {
            metric: {"value": traced["layer"][metric], "unit": unit}
            for metric, unit, _ in contract.PER_LAYER
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", action="store_true", help="the layer ladder (same as --trace 1)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the test suite"
    )
    parser.add_argument("--json", help="also write every result to this file")
    parser.add_argument(
        "--write-contract",
        action="store_true",
        help="write BENCHMARK.json from benchmarks/e2e/contract.py and exit",
    )
    args = parser.parse_args(argv)
    if args.write_contract:
        text = json.dumps(contract.benchmark_json(), indent=2) + "\n"
        (REPO / "BENCHMARK.json").write_text(text, encoding="utf-8")
        print(f"wrote {REPO / 'BENCHMARK.json'}")
        return 0

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    size = SMOKE_SIZE if args.smoke else {}
    traced_run = args.traced or args.trace == 1
    names = [args.workload] if args.workload else list(contract.WORKLOADS)
    host = stats.host_fingerprint()
    host["loadavg_1m_start"] = os.getloadavg()[0]
    print("host: " + json.dumps(host))

    results, payloads, skipped = [], [], []
    for name in names:
        try:
            if traced_run:
                from benchmarks.e2e.ladder import run_ladder

                traced = run_ladder(name, args.seed, seconds, **size)
                print_ladder(name, traced)
                results.append({"workload": name, "seed": args.seed, **traced})
                payloads.append(per_layer_result(traced))
            else:
                result = run_workload(name, args.seed, seconds, size)
                print_workload(result)
                results.append(result)
                payloads.append(end_to_end_result(result))
        except Skipped as reason:
            # Named, never null and never a silent fallback to another mode.
            print(f"\n== {name}: skipped: {reason}")
            skipped.append(name)

    host["loadavg_1m_end"] = os.getloadavg()[0]
    print(f"\nhost load (1 min) at end: {host['loadavg_1m_end']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"host": host, "traced": traced_run, "results": results},
                handle,
                indent=1,
            )
    if skipped:
        return 2
    if args.workload:
        print(json.dumps(payloads[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(item["correct"] for item in payloads),
                    "attempted": sum(item["attempted"] for item in payloads),
                    "failed": sum(item["failed"] for item in payloads),
                    "metrics": {
                        name: item["metrics"] for name, item in zip(names, payloads)
                    },
                }
            )
        )
    return 0 if all(item["correct"] for item in payloads) else 1


if __name__ == "__main__":
    sys.exit(main())
