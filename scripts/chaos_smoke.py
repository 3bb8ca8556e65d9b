#!/usr/bin/env python
"""Chaos smoke: SIGKILL a served fleet worker mid-traffic, verify healing.

The CI end-to-end for the supervision plane.  Boots ``repro-fsm serve
--journal`` as a real subprocess, spawns a population over HTTP and
drives a recorded workload through ``POST /deliver``.  Partway through,
one worker process (pid taken from ``/healthz``) is SIGKILLed while
requests keep flowing: deliveries that land on the dying partition must
come back as ``503`` with a ``Retry-After`` header (not hard failures),
and retrying them after the advertised delay must succeed.  Once the
workload is drained the script asserts the supervisor's fingerprints —
``/healthz`` all-live, ``fleet_worker_restarts_total`` and
``fleet_events_replayed_total`` on ``/metrics`` — and downloads the
final ``/snapshot``, which must match an in-process replay of the same
workload instance-for-instance: a murdered, healed, journal-replayed
fleet lands on exactly the traces the library produces directly.
``/metrics`` is scraped before the kill, right after the death is
detected (by the first delivery to the dead partition, then confirmed
by ``/healthz``) and after healing; no ``fleet_*_total`` series may
fall from one scrape to the next.  Whether the run passes or fails, no
worker pid ``/healthz`` ever reported may outlive the served process by
more than five seconds.

Exit codes: 0 on success, 1 on any mismatch or HTTP failure.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--workers 2] [--events 400]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import (  # noqa: E402
    WorkloadSpec,
    generate_workload,
    make_fleet,
    shard_of,
)
from repro.serve.gateway import snapshot_to_json  # noqa: E402

RETRY_LIMIT = 200


def request(base: str, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=10) as resp:
        body = resp.read().decode()
    return json.loads(body) if body.startswith(("{", "[")) else body


def fleet_totals(metrics: str) -> dict:
    """The ``fleet_*_total`` series of one ``/metrics`` scrape."""
    totals = {}
    for line in metrics.splitlines():
        name, _, value = line.partition(" ")
        if name.startswith("fleet_") and name.endswith("_total"):
            totals[name] = float(value)
    return totals


def deliver_with_retry(base: str, key: str, message: str) -> int:
    """POST one /deliver, retrying 503s per Retry-After; returns 503 count."""
    outages = 0
    for _ in range(RETRY_LIMIT):
        try:
            out = request(
                base, "POST", "/deliver", {"key": key, "message": message}
            )
        except urllib.error.HTTPError as exc:
            if exc.code != 503:
                raise
            exc.read()
            retry_after = exc.headers.get("Retry-After")
            assert retry_after is not None, "503 without Retry-After header"
            outages += 1
            time.sleep(min(float(retry_after), 0.2))
            continue
        assert "fired" in out, out
        return outages
    raise AssertionError(
        f"/deliver to {key!r} still 503 after {RETRY_LIMIT} retries"
    )


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        if os.path.isdir("/proc"):
            return False
    try:  # no /proc: ask the kernel whether the pid exists
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def main() -> int:
    workers: set[int] = set()
    code = 1
    try:
        code = serve_and_kill(workers)
    finally:
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = sorted(filter(running, workers))
        for pid in survivors:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        if survivors:
            print(
                f"FAIL: worker(s) {survivors} outlived the served process",
                file=sys.stderr,
            )
            code = 1
        else:
            print(f"no worker outlived the served process ({len(workers)} seen)")
    if code == 0:
        print("chaos smoke: ok")
    return code


def serve_and_kill(workers: set) -> int:
    """Drive the served fleet through the kill; every worker pid
    ``/healthz`` reports is added to ``workers``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--events", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    port_file = tempfile.NamedTemporaryFile(
        prefix="chaos-smoke-", suffix=".port", delete=False
    )
    port_file.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(args.workers),
            "--mode", "encoded",
            "--journal",
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
        workers.update(filter(None, health["pids"]))
        assert health["status"] == "ok", health
        pids = health["pids"]
        assert len(pids) == args.workers, health

        spawned = request(
            base, "POST", "/spawn", {"count": args.instances}
        )["spawned"]
        assert len(spawned) == args.instances

        replica = make_fleet("commit", mode="encoded")
        keys = replica.spawn_many(args.instances)
        assert keys == spawned, "key naming diverged between spawn paths"
        events = generate_workload(
            replica.machine,
            WorkloadSpec(
                instances=args.instances, events=args.events, seed=args.seed
            ),
        )

        # Drive ~40% of the workload healthy, murder one worker, then keep
        # the traffic flowing through the outage window.
        cut = max(1, (len(events) * 2) // 5)
        outages = 0
        for key, message in events[:cut]:
            outages += deliver_with_retry(base, key, message)
        assert outages == 0, f"{outages} outage(s) before the kill"
        scrapes = [fleet_totals(request(base, "GET", "/metrics"))]

        victim = pids[0]
        os.kill(victim, signal.SIGKILL)
        print(f"SIGKILLed worker pid {victim} after {cut} deliveries")
        # The first delivery to land on the dead partition detects the
        # death and must come back 503; it is not applied, so the loop
        # below sends it again in its place.  /healthz then reports the
        # death and /metrics is scraped while the partition heals.
        key, message = next(
            (key, message)
            for key, message in events[cut:]
            if shard_of(key, args.workers) == 0
        )
        try:
            request(base, "POST", "/deliver", {"key": key, "message": message})
        except urllib.error.HTTPError as exc:
            exc.read()
            assert exc.code == 503, f"dead partition answered {exc.code}"
            assert exc.headers.get("Retry-After"), "503 without Retry-After header"
            outages += 1
        else:
            print("FAIL: the dead partition accepted a delivery", file=sys.stderr)
            return 1
        health = request(base, "GET", "/healthz")
        workers.update(filter(None, health["pids"]))
        if health["status"] == "ok" and victim in health["pids"]:
            print(f"FAIL: /healthz missed the death: {health}", file=sys.stderr)
            return 1
        scrapes.append(fleet_totals(request(base, "GET", "/metrics")))

        for key, message in events[cut:]:
            outages += deliver_with_retry(base, key, message)
        print(
            f"drove {len(events)} /deliver requests through the outage "
            f"({outages} gracefully degraded to 503 + Retry-After)"
        )
        if outages == 0:
            print(
                "FAIL: no request ever saw the recovering partition — "
                "the kill did not exercise degradation",
                file=sys.stderr,
            )
            return 1

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            health = request(base, "GET", "/healthz")
            workers.update(filter(None, health["pids"]))
            if health["status"] == "ok":
                break
            time.sleep(0.05)
        assert health["status"] == "ok", f"fleet never healed: {health}"
        assert victim not in health["pids"], "dead pid still reported live"
        print(f"healed: worker states {health['workers']}")

        metrics = request(base, "GET", "/metrics")
        scrapes.append(fleet_totals(metrics))
        fell = [
            f"{name} {earlier[name]:g} -> {later.get(name, 0.0):g}"
            for earlier, later in zip(scrapes, scrapes[1:])
            for name in earlier
            if later.get(name, 0.0) < earlier[name]
        ]
        if fell:
            print(
                f"FAIL: /metrics counters fell across the recovery: {fell}",
                file=sys.stderr,
            )
            return 1
        print(
            f"{len(scrapes[-1])} fleet_*_total series never fell across "
            f"{len(scrapes)} scrapes (before kill, at detection, healed)"
        )
        fingerprints = {}
        for series in (
            "fleet_worker_restarts_total", "fleet_events_replayed_total"
        ):
            lines = [
                line for line in metrics.splitlines()
                if line.startswith(series + " ")
            ]
            if not lines:
                print(f"FAIL: /metrics missing {series}", file=sys.stderr)
                return 1
            fingerprints[series] = float(lines[0].split()[1])
        if fingerprints["fleet_worker_restarts_total"] < 1:
            print("FAIL: supervisor reports no restart", file=sys.stderr)
            return 1
        print(
            "scraped /metrics: restarts="
            f"{fingerprints['fleet_worker_restarts_total']:.0f} "
            f"replayed={fingerprints['fleet_events_replayed_total']:.0f}"
        )

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
            "in-process replay despite the mid-burst SIGKILL"
        )

        request(base, "POST", "/shutdown")
        code = server.wait(timeout=15)
        if code != 0:
            print(f"FAIL: server exited {code}", file=sys.stderr)
            return 1
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
