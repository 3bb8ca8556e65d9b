#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json,A2.json,A3.json B1.json,B2.json

Each side is one ``run.py --json`` file or a comma-separated list of them.
With one file a side's sample is the per-repetition values of that run;
with several it is the runs' medians.  A row prints both medians, the ratio
B/A (base: A), the metric's bound and a verdict:

* ``ok``         B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` it is worse by more than the bound, but either side's
  spread (IQR / median) is wider than the bound and the two samples
  overlap, so the difference cannot be told from noise;
* ``-``          the metric carries no bound (reported, not judged).

Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1]))

from benchmarks.e2e import contract  # noqa: E402
from benchmarks.e2e.stats import quartiles  # noqa: E402

_BETTER = {name: better for name, _, better, _ in contract.END_TO_END}
_BOUND = {name: bound for name, _, _, bound in contract.END_TO_END}


def load_side(argument: str) -> dict:
    """``(workload, metric) -> sample`` for one side of the comparison."""
    files = [
        json.loads(pathlib.Path(path).read_text()) for path in argument.split(",")
    ]
    samples: dict = {}
    for document in files:
        for result in document["results"]:
            rows = result.get("metrics") or {
                name: {"values": [value], "median": value}
                for name, value in result["layer"].items()
            }
            for metric, row in rows.items():
                values = row["values"] if len(files) == 1 else [row["median"]]
                samples.setdefault((result["workload"], metric), []).extend(values)
    return samples


def spread(sample) -> float:
    q1, _, q3 = quartiles(sample)
    median = statistics.median(sample)
    return (q3 - q1) / median if median else 0.0


def verdict(metric: str, base, new) -> str:
    bound = _BOUND.get(metric)
    if bound is None:
        return "-"
    a, b = statistics.median(base), statistics.median(new)
    worse = ((b - a) if _BETTER[metric] == "lower" else (a - b)) / a
    if worse <= bound:
        return "ok"
    overlap = min(base) <= max(new) and min(new) <= max(base)
    if overlap and max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "regressed"


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load_side(arguments[0]), load_side(arguments[1])
    print(
        f"{'workload':13s} {'metric':34s} {'A median':>14s} {'B median':>14s} "
        f"{'B/A':>7s} {'A IQR':>7s} {'B IQR':>7s} {'bound':>6s}  verdict"
    )
    regressed = 0
    gated_first = sorted(
        set(base) & set(new), key=lambda key: (key[0], key[1] not in _BOUND, key[1])
    )
    for workload, metric in gated_first:
        a, b = base[workload, metric], new[workload, metric]
        status = verdict(metric, a, b)
        regressed += status == "regressed"
        med_a, med_b = statistics.median(a), statistics.median(b)
        ratio = med_b / med_a if med_a else float("nan")
        bound = _BOUND.get(metric)
        print(
            f"{workload:13s} {metric:34s} {med_a:14.5g} {med_b:14.5g} "
            f"{ratio:7.3f} {spread(a):7.1%} {spread(b):7.1%} "
            f"{'-' if bound is None else format(bound, '.0%'):>6s}  {status}"
        )
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"only on one side: {missing}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
