"""Seeded inputs and the oracles that check what the program did with them.

Everything a workload feeds the program is made here from the run's
``--seed``: the same seed gives byte-identical requests.  The oracles
replay the same inputs through one plain
:class:`~repro.runtime.interp.MachineInterpreter` per key — never through
the fleet, gateway or generated class under test.
"""

from __future__ import annotations

import random
import zlib

from benchmarks.e2e.client import Request, get_request, post_request
from repro.serve import (
    SessionSimulator,
    WorkloadSpec,
    fleet_machine,
    generate_workload,
    session_keys,
    standalone_traces,
)

#: Population every serving workload runs against.
INSTANCES = 10_000
#: ``bulk-hotkey``'s skew: 0.5 % of the keys (50) take 90 % of the events.
HOT_FRACTION = 0.005
HOT_SHARE = 0.9

_DELIVER_OK = b'{"fired"'
_STATE_OK = b'{"key"'


def client_machine():
    """The client's own copy of the served machine (inputs and oracle)."""
    return fleet_machine("commit")


def events_for(machine, scenario: str, count: int, seed: int, instances=INSTANCES):
    """A recorded ``(key, message)`` schedule for one arrival scenario."""
    return generate_workload(
        machine,
        WorkloadSpec(
            scenario=scenario,
            instances=instances,
            events=count,
            seed=seed,
            hot_fraction=HOT_FRACTION,
            hot_share=HOT_SHARE,
        ),
    )


def batches_of(events, size: int) -> list:
    return [events[start : start + size] for start in range(0, len(events), size)]


def connection_of(key: str, connections: int) -> int:
    """Keys are partitioned by connection, so per-key order is per-connection
    order and the final state does not depend on how connections interleave."""
    return zlib.crc32(key.encode()) % connections


def single_requests(machine, count: int, seed: int, instances=INSTANCES) -> list:
    """``gw-single``'s mix: 80 % ``POST /deliver`` of one event, 20 %
    ``GET /state`` of a random key."""
    rng = random.Random(seed ^ 0x5EED)
    keys = session_keys(instances)
    events = iter(events_for(machine, "uniform", count, seed, instances))
    requests = []
    for _ in range(count):
        if rng.random() < 0.2:
            key = keys[rng.randrange(instances)]
            requests.append(get_request(f"/state?key={key}", _STATE_OK))
        else:
            key, message = next(events)
            requests.append(
                post_request(
                    "/deliver",
                    {"key": key, "message": message},
                    _DELIVER_OK,
                    events=((key, message),),
                )
            )
    return requests


def _request_key(request: Request) -> str:
    if request.events:
        return request.events[0][0]
    return request.data.split(b"key=", 1)[1].split(b" ", 1)[0].decode()


def poisson_arrivals(requests, rate: float, connections: int, seed: int) -> list:
    """Open-loop schedule: exponential gaps at ``rate`` per second; each
    request goes to its key's connection."""
    rng = random.Random(seed ^ 0xA771)
    due = 0.0
    arrivals = []
    for request in requests:
        due += rng.expovariate(rate)
        which = connection_of(_request_key(request), connections)
        arrivals.append((due, which, request))
    return arrivals


def batch_requests(events, size: int, connections: int) -> list:
    """``gw-batch-mp``'s bodies: per connection, ``size``-event
    ``POST /deliver {"events": [...]}`` requests over that connection's keys."""
    expect = b'{"dispatched": %d}' % size
    per_connection = [[] for _ in range(connections)]
    for event in events:
        per_connection[connection_of(event[0], connections)].append(event)
    return [
        [
            post_request("/deliver", {"events": batch}, expect, events=batch)
            for batch in batches_of(mine, size)
            if len(batch) == size
        ]
        for mine in per_connection
    ]


def delivered_events(requests) -> list:
    return [event for request in requests for event in request.events]


def snapshot_mismatches(machine, wire_snapshot: dict, events, instances=INSTANCES):
    """Keys where a ``GET /snapshot`` body differs from the standalone replay
    of ``events`` (state or action log), instance for instance."""
    keys = session_keys(instances)
    expected = standalone_traces(machine, keys, events, auto_recycle=True)
    served = {inst["key"]: inst for inst in wire_snapshot["instances"]}
    wrong = [
        key
        for key in keys
        if key not in served
        or served[key]["state"] != expected[key].state
        or tuple(served[key]["actions"]) != expected[key].actions
    ]
    return wrong + sorted(set(served) - set(keys))


def state_mismatches(machine, states: dict, events) -> list:
    """Keys whose final state name differs from the standalone replay."""
    expected = standalone_traces(machine, list(states), events, auto_recycle=True)
    return [key for key, state in states.items() if expected[key].state != state]


def enabled_trace(machine, length: int, seed: int) -> list:
    """A message trace for one instance that mostly fires transitions (10 %
    arbitrary messages), restarting whenever the machine finishes."""
    simulator = SessionSimulator(machine, ["it"], random.Random(seed), noise=0.1)
    return [simulator.next_message("it") for _ in range(length)]
