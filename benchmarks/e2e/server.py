"""Launcher for the gateway workloads: one fleet behind one FleetGateway.

``repro-fsm serve`` cannot host these workloads because it has no way
to set ``auto_recycle``: without it a sustained run finishes every
instance and the kernel only counts ignored events.  This launcher is
the CLI's ``serve`` with that one knob turned on (and the CLI's
telemetry-on default kept), so the benchmark measures the production
shape.  It writes the bound port to ``--port-file`` once listening and
serves until ``POST /shutdown``.

Run as a script by ``benchmarks/e2e/workloads.py``; never imported.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.serve import make_fleet  # noqa: E402
from repro.serve.gateway import FleetGateway  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--instances", type=int, default=10_000)
    parser.add_argument("--workers", type=int, default=0, help="0 = in-process")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    supervision = {"workers": args.workers, "journal": True} if args.workers else {}
    fleet = make_fleet(
        "commit",
        mode="encoded",
        log_policy="full",
        auto_recycle=True,
        telemetry=True,
        **supervision,
    )
    try:
        fleet.spawn_many(args.instances)
        gateway = FleetGateway(fleet, port=0, allow_remote_shutdown=True)
        gateway.run_blocking(port_file=args.port_file)
    finally:
        fleet.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
