#!/usr/bin/env python
"""Gateway self time: microseconds per piece of one request, no socket.

Times the gateway's own Python for both request shapes of the
``gw-single`` workload — ``POST /deliver {"key", "message"}`` and
``GET /state?key=`` — against the fleet that workload serves (commit,
``encoded``, full logs, ``auto_recycle``, telemetry on).  Each piece is
timed alone:

* ``_parse_head``     the request head, from bytes to a parsed tuple;
* ``_route``          routing, the body's JSON, the fleet call, the reply body;
* ``_response``       the status line and headers around a reply body;
* ``_serve_request``  all of it on one connection with a stub transport
  (no selector loop, no socket), the latency histogram included.

A figure is the median of 5 rounds, each the best of 3 timed loops over
``--count`` requests, with the garbage collector off and the process
pinned to one CPU where the platform allows it.

Every reply is checked first: its body must be byte-identical to
``json.dumps(obj) + "\\n"`` of the object it decodes to (and, for
``/state``, to the fleet's own answer), and its head to the
``200 OK`` / ``application/json`` / ``keep-alive`` head.  The script
exits 1 on any difference, before timing anything.

Usage::

    python scripts/gateway_self_time.py [--count 2000] [--instances 10000]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import sys
from time import perf_counter

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro.serve.gateway as gateway_module  # noqa: E402
from repro.serve import make_fleet  # noqa: E402
from repro.serve.gateway import FleetGateway, _Connection  # noqa: E402

ROUNDS = 5
REPEAT = 3


class StubTransport:
    """What ``_Connection`` writes to, kept in a list."""

    def __init__(self):
        self.written = []

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def close(self) -> None:
        pass


def pin_to_one_cpu() -> str:
    if not hasattr(os, "sched_setaffinity"):
        return "not pinned"
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return f"pinned to CPU {cpu}"


def deliver_request(key: str, message: str) -> bytes:
    body = json.dumps({"key": key, "message": message}).encode()
    head = (
        "POST /deliver HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def state_request(key: str) -> bytes:
    return f"GET /state?key={key} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def build(instances: int, count: int):
    fleet = make_fleet(
        "commit",
        mode="encoded",
        log_policy="full",
        auto_recycle=True,
        telemetry=True,
    )
    keys = fleet.spawn_many(instances)
    messages = sorted(fleet.machine.message_set)
    gateway = FleetGateway(fleet, port=0)
    connection = _Connection(gateway)
    connection._transport = StubTransport()
    shapes = {
        "POST /deliver": [
            deliver_request(keys[i * 7919 % instances], messages[i % len(messages)])
            for i in range(count)
        ],
        "GET /state": [
            state_request(keys[i * 104729 % instances]) for i in range(count)
        ],
    }
    return fleet, gateway, connection, shapes


def split_reply(reply: bytes) -> tuple[bytes, bytes]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return head + b"\r\n\r\n", body


def check_replies(fleet, connection, shapes) -> list[str]:
    """Every reply against the ``json.dumps`` reference; the differences."""
    problems = []
    transport = connection._transport
    for shape, requests in shapes.items():
        for data in requests:
            transport.written.clear()
            connection._buffer = data
            connection._serve_request()
            if len(transport.written) != 1:
                problems.append(f"{shape}: {len(transport.written)} writes")
                continue
            head, body = split_reply(transport.written[0])
            obj = json.loads(body)
            reference = (json.dumps(obj) + "\n").encode("utf-8")
            if shape == "GET /state":
                key = data.split(b"key=", 1)[1].split(b" ", 1)[0].decode()
                expected = {
                    "key": key,
                    "state": fleet.state_name(key),
                    "finished": fleet.is_finished(key),
                }
                reference = (json.dumps(expected) + "\n").encode("utf-8")
            elif set(obj) != {"fired"}:
                problems.append(f"{shape}: unexpected reply {body!r}")
            expected_head = (
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(reference)}\r\n"
                "Connection: keep-alive\r\n\r\n"
            )
            expected_head = expected_head.encode("latin-1")
            if body != reference or head != expected_head:
                problems.append(
                    f"{shape}: {head + body!r} != {expected_head + reference!r}"
                )
    transport.written.clear()
    return problems


def median_best(loop, argument) -> float:
    """Median of ROUNDS rounds of best-of-REPEAT seconds for ``loop(argument)``."""
    rounds = []
    for _ in range(ROUNDS):
        best = float("inf")
        for _ in range(REPEAT):
            started = perf_counter()
            loop(argument)
            best = min(best, perf_counter() - started)
        rounds.append(best)
    return statistics.median(rounds)


def time_shape(gateway, connection, requests) -> dict:
    max_body = gateway._max_body
    parse_head = gateway_module._parse_head
    route = gateway._route
    response = gateway._response
    transport = connection._transport
    parsed = [gateway_module.parse_request(data, max_body) for data in requests]
    routed = [route(method, target, body) for method, target, _, body, _ in parsed]

    def parse_loop(items):
        for data in items:
            parse_head(data, max_body)

    def route_loop(items):
        for method, target, _, body, _ in items:
            route(method, target, body)

    def response_loop(items):
        for status, payload, content_type, extra in items:
            response(status, payload, content_type, False, extra)

    def serve_loop(items):
        for data in items:
            connection._buffer = data
            connection._serve_request()
        transport.written.clear()

    count = len(requests)
    return {
        "_parse_head": median_best(parse_loop, requests) / count,
        "_route": median_best(route_loop, parsed) / count,
        "_response": median_best(response_loop, routed) / count,
        "_serve_request": median_best(serve_loop, requests) / count,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000, help="requests per loop")
    parser.add_argument("--instances", type=int, default=10_000)
    args = parser.parse_args()
    if args.count < 1 or args.instances < 1:
        parser.error("--count and --instances must be positive")
    pinning = pin_to_one_cpu()
    fleet, gateway, connection, shapes = build(args.instances, args.count)
    problems = check_replies(fleet, connection, shapes)
    if problems:
        for problem in problems[:10]:
            print(f"reply mismatch: {problem}", file=sys.stderr)
        print(f"gateway self time: FAILED ({len(problems)} replies differ)")
        return 1
    checked = sum(len(requests) for requests in shapes.values())
    gc.collect()
    gc.disable()
    try:
        timings = {
            shape: time_shape(gateway, connection, requests)
            for shape, requests in shapes.items()
        }
    finally:
        gc.enable()
        fleet.close()
    print(
        f"gateway self time, us per request: median of {ROUNDS} x "
        f"best-of-{REPEAT}, {args.count} requests, {pinning}"
    )
    print(f"{'piece':<16}" + "".join(f"{shape:>16}" for shape in shapes))
    for piece in next(iter(timings.values())):
        print(
            f"{piece:<16}"
            + "".join(f"{timings[shape][piece] * 1e6:>16.2f}" for shape in shapes)
        )
    print(f"replies: {checked} byte-identical to json.dumps")
    print("gateway self time: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
