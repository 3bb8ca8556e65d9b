"""Open- and closed-loop load generation with honest latency percentiles.

Throughput sweeps (``bench_serve``/``bench_scenario``) answer "how many
events per second can the fleet dispatch"; they say nothing about what a
*client* would experience at a given offered load.  This module adds the
missing half, in the muBench/Locust mould but deterministic and
dependency-free:

* **Open loop** — :func:`generate_open_loop` stamps arrivals on a
  virtual clock from a seeded arrival process (Poisson interarrivals via
  ``expovariate``, or a uniform pulse train) with message content drawn
  by :class:`~repro.serve.workload.SessionSimulator`; offered load never
  reacts to the system, which is what exposes saturation.
* **Closed loop** — :func:`run_closed_loop` simulates ``users``
  concurrent sessions that each post, wait for completion, think
  (exponential), and post again; offered load self-throttles to the
  system's speed, the classic interactive law ``X = N / (R + Z)``.

Latency comes from a **measured-service queueing replay**: the real
fleet dispatches the schedule in chunks and each chunk is wall-clocked,
yielding per-event service times; the arrival schedule is then replayed
against those service times through a single-server FIFO queue, so
``latency = completion - arrival`` combines genuinely measured service
cost with the queueing the arrival process implies.  (The serve plane is
synchronous — events cannot *actually* wait in real time — so the
replay is the honest way to turn measured throughput into percentiles.)
Passing ``service_time=`` instead of a fleet runs the replay *virtually*
with constant service: fully deterministic, which is what the analytic
acceptance gate in ``benchmarks/bench_load.py`` checks quantiles
against.

Results land in a :class:`LoadReport` whose latency distribution is a
:class:`~repro.obs.metrics.LatencyHistogram` — p50/p95/p99 are accurate
to one bucket width by construction, and reports merge across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Optional

from repro.core.errors import SimulationError
from repro.core.machine import StateMachine
from repro.obs.metrics import LatencyHistogram
from repro.serve.workload import SessionSimulator, session_keys

__all__ = [
    "Arrival",
    "OpenLoopSpec",
    "ClosedLoopSpec",
    "LoadReport",
    "generate_open_loop",
    "run_open_loop",
    "run_closed_loop",
]

#: Supported open-loop arrival processes.
ARRIVAL_PROCESSES = ("poisson", "uniform")


@dataclass(frozen=True)
class Arrival:
    """One offered event: at virtual ``time``, ``key`` receives ``message``."""

    time: float
    key: str
    message: str


@dataclass(frozen=True)
class OpenLoopSpec:
    """An open-loop (offered-rate) load: arrivals ignore the system."""

    rate: float  #: offered events per virtual second
    events: int
    instances: int = 1000
    process: str = "poisson"
    seed: int = 0
    noise: float = 0.1

    def __post_init__(self):
        if self.rate <= 0:
            raise SimulationError(f"offered rate must be > 0, got {self.rate}")
        if self.events < 1 or self.instances < 1:
            raise SimulationError("open loop needs >= 1 event and >= 1 instance")
        if self.process not in ARRIVAL_PROCESSES:
            raise SimulationError(
                f"unknown arrival process {self.process!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )


@dataclass(frozen=True)
class ClosedLoopSpec:
    """A closed-loop load: ``users`` sessions post, wait, think, repeat."""

    users: int = 100
    events: int = 10_000
    think_time: float = 0.001  #: mean think time (exponential; 0 = none)
    seed: int = 0
    noise: float = 0.1

    def __post_init__(self):
        if self.users < 1 or self.events < 1:
            raise SimulationError("closed loop needs >= 1 user and >= 1 event")
        if self.think_time < 0:
            raise SimulationError(
                f"think_time must be >= 0, got {self.think_time}"
            )


@dataclass
class LoadReport:
    """What one load run measured: rates plus the latency distribution."""

    kind: str  #: "open" or "closed"
    events: int
    offered_eps: float  #: offered rate (open) / self-throttled rate (closed)
    achieved_eps: float  #: completions over the replay makespan
    capacity_eps: float  #: 1 / mean measured (or given) service time
    utilization: float  #: offered_eps / capacity_eps
    wall_seconds: float  #: real dispatch wall time (0.0 in virtual mode)
    latency: LatencyHistogram

    @property
    def p50_s(self) -> float:
        return self.latency.quantile(0.50)

    @property
    def p95_s(self) -> float:
        return self.latency.quantile(0.95)

    @property
    def p99_s(self) -> float:
        return self.latency.quantile(0.99)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "events": self.events,
            "offered_eps": self.offered_eps,
            "achieved_eps": self.achieved_eps,
            "capacity_eps": self.capacity_eps,
            "utilization": self.utilization,
            "wall_seconds": self.wall_seconds,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "mean_latency_s": self.latency.mean,
            "latency": self.latency.as_dict(),
        }


def generate_open_loop(
    machine: StateMachine, spec: OpenLoopSpec
) -> list[Arrival]:
    """Stamp an open-loop arrival schedule on the virtual clock.

    Two independent seeded streams (the
    :meth:`~repro.storage.sim.kernel.Simulator.new_rng` labelling
    convention) keep timing and content decoupled: changing the arrival
    process never changes which messages the sessions see, so sweeps
    over offered load replay identical content.
    """
    timing = random.Random(f"{spec.seed}:arrivals")
    content = random.Random(f"{spec.seed}:content")
    keys = session_keys(spec.instances)
    sessions = SessionSimulator(machine, keys, content, spec.noise)
    poisson = spec.process == "poisson"
    gap = 1.0 / spec.rate
    now = 0.0
    arrivals: list[Arrival] = []
    for _ in range(spec.events):
        now += timing.expovariate(spec.rate) if poisson else gap
        key = keys[content.randrange(spec.instances)]
        arrivals.append(Arrival(now, key, sessions.next_message(key)))
    return arrivals


def _measure_services(fleet, schedule, chunk: int):
    """Dispatch ``schedule`` through ``fleet`` in wall-clocked chunks.

    Returns ``(services, capacity_eps, wall_seconds)`` where ``services``
    assigns every event its chunk's mean per-event dispatch time — the
    measured-service half of the queueing replay.  Every chunk is
    interned once up front so the timed region matches ``bench_serve``'s.
    """
    schedule = list(schedule)
    # Chunk the string schedule, then intern each chunk up front: the
    # timed region stays interning-free whatever Fleet implementation
    # (and whatever schedule type its encode_flat() returns) is measured.
    parts = []
    for i in range(0, len(schedule), chunk):
        piece = schedule[i : i + chunk]
        parts.append((fleet.encode_flat(piece), len(piece)))
    services: list[float] = []
    wall = 0.0
    for part, size in parts:
        started = perf_counter()
        fleet.run(part, encoding="flat")
        elapsed = perf_counter() - started
        wall += elapsed
        services.extend([elapsed / size] * size)
    capacity = len(schedule) / wall if wall > 0 else 0.0
    return services, capacity, wall


def _replay_fifo(arrival_times, services, histogram: LatencyHistogram) -> float:
    """Single-server FIFO replay; observes latencies, returns the makespan end."""
    clock = 0.0
    for arrived, service in zip(arrival_times, services):
        start = clock if clock > arrived else arrived
        clock = start + service
        histogram.observe(clock - arrived)
    return clock


def run_open_loop(
    machine: StateMachine,
    spec: OpenLoopSpec,
    *,
    fleet=None,
    service_time: Optional[float] = None,
    chunk: int = 2048,
    histogram: Optional[LatencyHistogram] = None,
) -> LoadReport:
    """Offer an open-loop load and report the latency distribution.

    With ``fleet`` given, service times are measured by chunked real
    dispatch (see :func:`_measure_services`); with ``service_time``,
    the replay is virtual and fully deterministic.  Exactly one of the
    two must be provided.
    """
    if (fleet is None) == (service_time is None):
        raise SimulationError(
            "run_open_loop needs exactly one of fleet= or service_time="
        )
    arrivals = generate_open_loop(machine, spec)
    if fleet is not None:
        schedule = [(a.key, a.message) for a in arrivals]
        services, capacity, wall = _measure_services(fleet, schedule, chunk)
    else:
        if service_time <= 0:
            raise SimulationError(
                f"service_time must be > 0, got {service_time}"
            )
        services = [service_time] * len(arrivals)
        capacity = 1.0 / service_time
        wall = 0.0
    hist = histogram if histogram is not None else LatencyHistogram(
        "load_latency_seconds", "open-loop event latency (queueing replay)"
    )
    end = _replay_fifo([a.time for a in arrivals], services, hist)
    span = end - arrivals[0].time
    return LoadReport(
        kind="open",
        events=len(arrivals),
        offered_eps=spec.rate,
        achieved_eps=len(arrivals) / span if span > 0 else 0.0,
        capacity_eps=capacity,
        utilization=spec.rate / capacity if capacity > 0 else float("inf"),
        wall_seconds=wall,
        latency=hist,
    )


def _simulate_closed(machine, spec: ClosedLoopSpec, placeholder: float):
    """Phase 1: fix the event order with a constant placeholder service.

    Simulates the users against a single FIFO server with service time
    ``placeholder``, recording per event ``(user, key, message, think)``
    in dispatch order.  The order and the content/think draws are then
    held fixed while phase 3 recomputes timing with measured services.
    """
    think_rng = random.Random(f"{spec.seed}:think")
    content = random.Random(f"{spec.seed}:content")
    keys = session_keys(spec.users, prefix="user")
    sessions = SessionSimulator(machine, keys, content, spec.noise)
    mean = spec.think_time
    ready = [(0.0, u) for u in range(spec.users)]
    heapify(ready)
    server = 0.0
    order: list[tuple] = []
    for _ in range(spec.events):
        when, user = heappop(ready)
        key = keys[user]
        message = sessions.next_message(key)
        start = server if server > when else when
        completion = start + placeholder
        server = completion
        think = think_rng.expovariate(1.0 / mean) if mean > 0 else 0.0
        order.append((user, key, message, think))
        heappush(ready, (completion + think, user))
    return order


def _replay_closed(
    order, services, users: int, histogram: LatencyHistogram
) -> float:
    """Phase 3: replay the fixed dispatch order with real service times.

    Each user's next arrival is their previous completion plus the
    recorded think; the server runs the events in the fixed (phase-1)
    order — dispatch-order FIFO — so measured service variation shifts
    timing without re-deciding who went when.
    """
    ready = [0.0] * users
    server = 0.0
    for (user, _key, _message, think), service in zip(order, services):
        arrived = ready[user]
        start = server if server > arrived else arrived
        server = start + service
        histogram.observe(server - arrived)
        ready[user] = server + think
    return server


def run_closed_loop(
    machine: StateMachine,
    spec: ClosedLoopSpec,
    *,
    fleet=None,
    service_time: Optional[float] = None,
    chunk: int = 2048,
    placeholder_service: float = 1e-4,
    histogram: Optional[LatencyHistogram] = None,
) -> LoadReport:
    """Run a closed-loop load and report the latency distribution.

    Three phases: (1) simulate the users with a constant placeholder
    service to fix the dispatch order deterministically, (2) dispatch
    that order through the real fleet in wall-clocked chunks (skipped in
    virtual mode), (3) replay the order against the measured (or given)
    service times.  The fleet must host instances named by
    ``session_keys(spec.users, prefix="user")``.
    """
    if (fleet is None) == (service_time is None):
        raise SimulationError(
            "run_closed_loop needs exactly one of fleet= or service_time="
        )
    order = _simulate_closed(
        machine, spec, service_time if service_time else placeholder_service
    )
    if fleet is not None:
        schedule = [(key, message) for _u, key, message, _t in order]
        services, capacity, wall = _measure_services(fleet, schedule, chunk)
    else:
        if service_time <= 0:
            raise SimulationError(
                f"service_time must be > 0, got {service_time}"
            )
        services = [service_time] * len(order)
        capacity = 1.0 / service_time
        wall = 0.0
    hist = histogram if histogram is not None else LatencyHistogram(
        "load_latency_seconds", "closed-loop event latency (queueing replay)"
    )
    end = _replay_closed(order, services, spec.users, hist)
    rate = len(order) / end if end > 0 else 0.0
    return LoadReport(
        kind="closed",
        events=len(order),
        offered_eps=rate,  # closed loops self-throttle: offered == achieved
        achieved_eps=rate,
        capacity_eps=capacity,
        utilization=rate / capacity if capacity > 0 else float("inf"),
        wall_seconds=wall,
        latency=hist,
    )
