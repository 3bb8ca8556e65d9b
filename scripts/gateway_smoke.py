#!/usr/bin/env python
"""Gateway smoke: boot ``repro-fsm serve``, drive it, diff the snapshot.

The CI end-to-end for the serve front door.  Starts the gateway as a
real subprocess (``--port 0`` + ``--port-file`` for discovery), spawns a
population over HTTP, drives a recorded workload through ``POST
/deliver`` one request per event, scrapes ``/metrics`` (its
``fleet_events_dispatched_total`` must equal the requests driven, and
every metric family must carry a ``# HELP`` line), downloads the final
``/snapshot``, and shuts the server down.  The same workload is
then replayed on an in-process fleet; the two snapshots must be
identical instance-for-instance — the served fleet, behind two process
boundaries and a JSON wire, lands on exactly the traces the library
produces directly.

It also checks what the forked workers carry: the CLI imports the
gateway before it builds the fleet, and the gateway loads ``asyncio``
(with ``ssl``, libssl and libcrypto) only when it starts serving, so
no ``/proc/<pid>/maps`` line of a worker ``/healthz`` reports may name
``_ssl`` or ``libssl``.  Without ``/proc`` that check is skipped, and
says so.

Exit codes: 0 on success, 1 on any mismatch, HTTP failure or a worker
that maps a TLS stack.

Usage::

    PYTHONPATH=src python scripts/gateway_smoke.py [--workers 2] [--events 100]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import WorkloadSpec, generate_workload, make_fleet  # noqa: E402
from repro.serve.gateway import snapshot_to_json  # noqa: E402


def request(base: str, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=10) as resp:
        body = resp.read().decode()
    return json.loads(body) if body.startswith(("{", "[")) else body


def tls_mappings(pids) -> list:
    """The ``/proc/<pid>/maps`` lines of ``pids`` that name a TLS stack."""
    found = []
    for pid in pids:
        with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
            found += sorted(
                {
                    f"worker {pid}: {line.split()[-1]}"
                    for line in maps
                    if "_ssl" in line or "libssl" in line
                }
            )
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--events", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    port_file = tempfile.NamedTemporaryFile(
        prefix="gateway-smoke-", suffix=".port", delete=False
    )
    port_file.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(args.workers),
            "--mode", "encoded",
            "--port", "0",
            "--port-file", port_file.name,
            "--allow-remote-shutdown",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        port = None
        while time.monotonic() < deadline:
            if server.poll() is not None:
                print(server.stdout.read(), file=sys.stderr)
                print("FAIL: server exited before binding", file=sys.stderr)
                return 1
            text = pathlib.Path(port_file.name).read_text().strip()
            if text:
                port = int(text)
                break
            time.sleep(0.05)
        if port is None:
            print("FAIL: no port written within 30s", file=sys.stderr)
            return 1
        base = f"http://127.0.0.1:{port}"

        health = request(base, "GET", "/healthz")
        assert health["status"] == "ok", health

        spawned = request(
            base, "POST", "/spawn", {"count": args.instances}
        )["spawned"]
        assert len(spawned) == args.instances

        # The workload generator names keys exactly like /spawn does, so
        # the recorded schedule drives the served population directly.
        replica = make_fleet("commit", mode="encoded")
        keys = replica.spawn_many(args.instances)
        assert keys == spawned, "key naming diverged between spawn paths"
        events = generate_workload(
            replica.machine,
            WorkloadSpec(
                instances=args.instances, events=args.events, seed=args.seed
            ),
        )

        delivered = 0
        for key, message in events:
            out = request(
                base, "POST", "/deliver", {"key": key, "message": message}
            )
            assert "fired" in out, out
            delivered += 1
        print(f"drove {delivered} /deliver requests")

        metrics = request(base, "GET", "/metrics")
        for series in ("gateway_requests_total", "fleet_events_dispatched_total"):
            if series not in metrics:
                print(f"FAIL: /metrics missing {series}", file=sys.stderr)
                return 1
        lines = metrics.splitlines()
        dispatched = [
            line for line in lines
            if line.startswith("fleet_events_dispatched_total ")
        ][0]
        print(f"scraped /metrics: {dispatched}")
        if float(dispatched.split()[1]) != delivered:
            print(
                f"FAIL: /metrics counted {dispatched.split()[1]} dispatched "
                f"events for {delivered} /deliver requests",
                file=sys.stderr,
            )
            return 1
        typed = {line.split()[2] for line in lines if line.startswith("# TYPE ")}
        helped = {line.split()[2] for line in lines if line.startswith("# HELP ")}
        if typed - helped:
            print(
                f"FAIL: /metrics families without HELP: {sorted(typed - helped)}",
                file=sys.stderr,
            )
            return 1

        pids = request(base, "GET", "/healthz").get("pids", [])
        if not pathlib.Path("/proc/self/maps").exists():
            print("worker mappings: skipped (no /proc on this platform)")
        else:
            tls = tls_mappings(pids)
            if tls:
                print(
                    f"FAIL: forked workers map a TLS stack: {tls[:4]}",
                    file=sys.stderr,
                )
                return 1
            print(f"worker mappings: no TLS stack in {len(pids)} worker(s)")

        served_snapshot = request(base, "GET", "/snapshot")

        replica.run(events)
        expected = snapshot_to_json(replica.snapshot())
        replica.close()

        def by_key(snapshot):
            return {inst["key"]: inst for inst in snapshot["instances"]}

        served, local = by_key(served_snapshot), by_key(expected)
        mismatched = [
            key for key in local
            if served.get(key) != local[key]
        ]
        extra = sorted(set(served) - set(local))
        if mismatched or extra:
            print(
                f"FAIL: snapshot mismatch — {len(mismatched)} diverging, "
                f"{len(extra)} unexpected instance(s): "
                f"{(mismatched + extra)[:5]}",
                file=sys.stderr,
            )
            return 1
        print(
            f"snapshot parity: {len(local)} instances identical to "
            "in-process replay"
        )

        request(base, "POST", "/shutdown")
        code = server.wait(timeout=15)
        if code != 0:
            print(f"FAIL: server exited {code}", file=sys.stderr)
            return 1
        print("gateway smoke: ok")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=5)
            except subprocess.TimeoutExpired:
                server.kill()
        os.unlink(port_file.name)


if __name__ == "__main__":
    sys.exit(main())
