#!/usr/bin/env python3
"""The alternating parent/change protocol of ``benchmarks/e2e`` as one command.

    python3 scripts/e2e_pairs.py --parent HEAD~1 --workload gen-deploy
    python3 scripts/e2e_pairs.py --parent 1bb3137 --workload gw-single \\
        --pairs 10 --seeds 1,2 --seconds 12
    python3 scripts/e2e_pairs.py --parent HEAD --workload gen-deploy --dry-run
    python3 scripts/e2e_pairs.py --parent HEAD --workload bulk-uniform,bulk-hotkey

A perf claim in this repository is judged on pairs of runs — the parent
commit and the change, same workload, seed and run length, alternating
which side goes first so that drift in host speed lands on both — and then
on ``benchmarks/e2e/compare.py``'s verdicts over the two sets of runs.  This
script is that protocol and nothing else: it unpacks ``git archive`` of
``--parent`` — the committed files, nothing else, which is what the parent
is judged on — into a temporary directory (under ``$TMPDIR``), runs
``benchmarks/e2e/run.py --json`` in both trees (the change is the working
tree this script lives in, uncommitted edits included), hands the two comma
lists to ``compare.py`` unmodified, prints every run's value, the wins
and ties and the verdict on a gain per gated metric ("gain shown" when the
change wins at least 9 of 10 pairs and the medians differ by more than the
parent's interquartile range), and removes the directory whatever happened; the
repository's own ``.git`` is only read.  It imports nothing from
``benchmarks/e2e``; the gated metrics are read from ``BENCHMARK.json``.

``--workload`` takes a comma list: each workload runs in turn with the same
pairs and seeds, so one command gives a claimed row and its no-regression
twin.  ``--dry-run`` prints the commands in order and runs none.  Exits
non-zero when any ``compare.py`` call does (a ``regressed`` row) or a run
fails its oracle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
RUN = "benchmarks/e2e/run.py"
COMPARE = "benchmarks/e2e/compare.py"
SIDES = ("parent", "change")


def execute(argv, cwd, quiet=False) -> int:
    """Run one command of the protocol; its exit status."""
    stdout = subprocess.DEVNULL if quiet else None
    return subprocess.run(argv, cwd=cwd, stdout=stdout, check=False).returncode


def announce(argv, cwd, quiet=False) -> int:
    """``--dry-run``'s stand-in for :func:`execute`."""
    print(f"(cd {shlex.quote(str(cwd))} && {shlex.join(map(str, argv))})")
    return 0


def gated_metrics() -> dict[str, str]:
    """``metric -> "higher" | "lower"`` for the metrics that carry a bound."""
    contract = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {row["name"]: row["better"] for row in contract["end_to_end"]}


def read_run(path: pathlib.Path) -> dict:
    (result,) = json.loads(path.read_text(encoding="utf-8"))["results"]
    return result


def quartiles(values) -> tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def gain_shown(parent: list, change: list, better: str) -> tuple[float, bool]:
    """``(parent IQR / parent median, shown)`` for one metric's pairs.

    The rule a perf claim is held to: the change wins at least nine in
    ten pairs (ties count for neither side), and the medians differ in
    the better direction by more than the parent's interquartile range.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    q1, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    shown = 10 * wins >= 9 * len(parent) and gap > q3 - q1
    return (q3 - q1) / statistics.median(parent), shown


def report(label: str, files: dict) -> None:
    """Every run's value, who won each pair and whether a gain is shown,
    per gated metric; each line starts with ``label`` (workload and seed)."""
    runs = {side: [read_run(path) for path in files[side]] for side in SIDES}
    for side in SIDES:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        print(f"{label} {side}: {failed} of {attempted} operations failed")
    for metric, better in gated_metrics().items():
        values = {
            side: [run["metrics"][metric]["median"] for run in runs[side]]
            for side in SIDES
        }
        sign = 1 if better == "higher" else -1
        gaps = [
            sign * (new - old)
            for old, new in zip(values["parent"], values["change"])
        ]
        wins = sum(gap > 0 for gap in gaps)
        ties = sum(gap == 0 for gap in gaps)
        medians = {side: statistics.median(values[side]) for side in SIDES}
        print(
            f"{label} {metric} ({better} is better): change better in "
            f"{wins} of {len(gaps)} pairs, {ties} ties; median "
            f"{medians['parent']:.6g} -> {medians['change']:.6g} "
            f"({medians['change'] / medians['parent']:.3f}x, base: parent)"
        )
        for side in SIDES:
            listed = " ".join(f"{value:.6g}" for value in values[side])
            print(f"    {side:6s} {listed}")
        spread, shown = gain_shown(values["parent"], values["change"], better)
        print(
            f"    parent IQR {100 * spread:.1f} % of its median; "
            f"gain {'shown' if shown else 'not shown'} "
            "(>= 9/10 wins and median gap > parent IQR)"
        )


def measure(args, trees: dict, work: pathlib.Path, run) -> int:
    """The pairs and the comparison, given both trees; the worst status."""
    status = 0
    for workload, seed in itertools.product(args.workload, args.seeds):
        bench = [sys.executable, RUN, "--workload", workload, "--seed", str(seed)]
        bench += ["--seconds", f"{args.seconds:g}", "--json"]
        label = f"{workload} seed {seed}"
        files: dict = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = work / f"{side}-{workload}-seed{seed}-pair{pair}.json"
                if run([*bench, str(out)], trees[side], quiet=True):
                    raise SystemExit(f"{side} run failed: {label}, pair {pair}")
                files[side].append(out)
        lists = [",".join(map(str, files[side])) for side in SIDES]
        status |= run([sys.executable, COMPARE, *lists], trees["change"])
        if not args.dry_run:
            report(label, files)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare with")
    parser.add_argument(
        "--workload",
        required=True,
        type=lambda text: text.split(","),
        help="one workload or a comma list, run in turn",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seeds",
        type=lambda text: [int(seed) for seed in text.split(",")],
        default=[1, 2],
    )
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)

    if args.dry_run:
        # Named, never created: the commands are printed, not run.
        run, work = announce, pathlib.Path(tempfile.gettempdir()) / "e2e-pairs"
    else:
        run, work = execute, pathlib.Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    parent, tarball = work / "parent", work / "parent.tar"
    try:
        if not args.dry_run:
            parent.mkdir()
        checkout = (
            ["git", "archive", "--output", str(tarball), args.parent],
            ["tar", "-xf", str(tarball), "-C", str(parent)],
        )
        if any(run(argv, REPO) for argv in checkout):
            raise SystemExit(f"cannot check out {args.parent!r}")
        return measure(args, {"parent": parent, "change": REPO}, work, run)
    finally:
        if not args.dry_run:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
