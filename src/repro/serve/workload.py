"""Synthetic event workloads for fleet benchmarks and differential tests.

A workload is a *recorded schedule*: a plain list of ``(session_key,
message)`` events, so the identical stream can be replayed through a fleet
and through standalone interpreters and the traces compared exactly.

The generator simulates each session's protocol position against the
machine's flat dispatch table and mostly sends messages that are enabled
in the session's current state (so transitions actually fire), mixed with
a configurable fraction of arbitrary-message noise (exercising the
ignored-event path).  Sessions that complete the protocol are recycled to
the start state — matching a fleet run with ``auto_recycle=True``.

Arrival scenarios:

* ``uniform`` — every event targets a uniformly random session;
* ``hotkey``  — a small hot set of sessions receives most of the traffic
  (skew stresses a few instances' state and log columns);
* ``burst``   — one session receives a run of consecutive events before
  the next session is drawn (bursty arrival, long per-instance runs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import SimulationError
from repro.core.machine import StateMachine
from repro.serve.store import session_keys

#: Supported arrival scenarios.
SCENARIOS = ("uniform", "hotkey", "burst")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload."""

    scenario: str = "uniform"
    instances: int = 1000
    events: int = 10_000
    seed: int = 0
    #: Probability an event carries an arbitrary (possibly inapplicable)
    #: message instead of one enabled in the session's current state.
    noise: float = 0.1
    #: ``hotkey``: fraction of sessions forming the hot set, and the share
    #: of traffic they receive.
    hot_fraction: float = 0.1
    hot_share: float = 0.9
    #: ``burst``: mean run length of consecutive events to one session.
    burst_length: int = 16


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of a generated timed scenario (see ``generate_scenario``)."""

    #: Topology shape: ``groups`` disjoint groups of ``group_size`` members.
    groups: int = 4
    group_size: int = 4
    seed: int = 0
    #: Kick arrival window: each kick lands on an integer tick in
    #: ``[0, spread)`` — several events share an instant, so the wheel
    #: batches them.
    spread: float = 40.0
    #: Extra arbitrary-message events, as a fraction of the kick count
    #: (exercises the ignored-event path under timed delivery).
    noise: float = 0.0
    #: Virtual time the scenario runs to (must cover routing cascades
    #: and timer fires seeded inside the arrival window).
    until: float = 400.0
    snapshot_every: float | None = None


def generate_scenario(machine: StateMachine, wiring, spec: ScenarioSpec, faults=None):
    """Produce a :class:`~repro.serve.scenario.Scenario` for ``machine``.

    The timed analogue of :func:`generate_workload`: a regular group
    topology, the wiring's ``client`` messages for every member at
    seeded integer ticks inside the arrival window, plus a seeded
    fraction of arbitrary-message noise.  Everything downstream
    (creation messages, timer fires, routed fan-out, fault draws) is
    derived deterministically by the scenario engine from the returned
    schedule and ``spec.seed``.
    """
    # Imported here, not at module top: the fleet engine imports this
    # module, and the scenario plane sits above the fleet.
    from repro.serve.scenario import GroupTopology, Scenario, TimedEvent

    if spec.groups < 1 or spec.group_size < 1:
        raise SimulationError("scenario needs >= 1 group of >= 1 member")
    if spec.spread < 1:
        raise SimulationError("scenario spread must be >= 1 tick")
    if not 0.0 <= spec.noise <= 1.0:
        raise SimulationError("noise must be in [0, 1]")
    if not wiring.client:
        raise SimulationError(
            "wiring declares no client messages; generate_scenario needs some"
        )
    topology = GroupTopology.regular(spec.groups, spec.group_size)
    rng = random.Random(spec.seed)
    ticks = int(spec.spread)
    events = [
        TimedEvent(float(rng.randrange(ticks)), key, kick)
        for key in topology.keys
        for kick in wiring.client
    ]
    messages = machine.dispatch_table().messages
    for _ in range(int(spec.noise * len(events))):
        events.append(
            TimedEvent(
                float(rng.randrange(ticks)),
                topology.keys[rng.randrange(len(topology.keys))],
                messages[rng.randrange(len(messages))],
            )
        )
    events.sort(key=lambda event: event.time)
    return Scenario(
        wiring=wiring,
        topology=topology,
        events=tuple(events),
        faults=faults,
        seed=spec.seed,
        until=spec.until,
        snapshot_every=spec.snapshot_every,
    )


class SessionSimulator:
    """Per-session protocol positions over a machine's dispatch table.

    The message-choosing core of :func:`generate_workload`, also driven
    directly by the end-to-end benchmark's inputs: each session tracks its
    simulated state; :meth:`next_message` mostly draws a message enabled
    in that state (so transitions actually fire), mixed with a ``noise``
    fraction of arbitrary messages, and advances the position — mirroring
    a fleet run with ``auto_recycle=True`` (completed sessions restart).

    Draws come from the caller's ``rng`` in a fixed order (one draw for
    the noise coin unless the state has no enabled messages, then one for
    the message pick), so schedules are reproducible per seed.
    """

    __slots__ = ("_table", "_enabled", "_rng", "_noise", "_state")

    def __init__(self, machine: StateMachine, keys, rng, noise: float = 0.1):
        if not 0.0 <= noise <= 1.0:
            raise SimulationError("noise must be in [0, 1]")
        table = machine.dispatch_table()
        self._table = table
        # Enabled messages per state, precomputed once.
        self._enabled: list[tuple[str, ...]] = [
            tuple(
                table.messages[col]
                for col in range(table.width)
                if table.entries[row * table.width + col] is not None
            )
            for row in range(len(table.state_names))
        ]
        self._rng = rng
        self._noise = noise
        self._state = {key: table.start_index for key in keys}

    def next_message(self, key: str) -> str:
        """Draw the session's next message and advance its position."""
        table = self._table
        rng = self._rng
        state = self._state[key]
        options = self._enabled[state]
        if not options or rng.random() < self._noise:
            message = table.messages[rng.randrange(table.width)]
        else:
            message = options[rng.randrange(len(options))]
        entry = table.entries[state * table.width + table.message_index[message]]
        if entry is not None:
            # Mirror auto-recycling: completed sessions restart.
            self._state[key] = (
                table.start_index if table.final[entry[0]] else entry[0]
            )
        return message


def generate_workload(
    machine: StateMachine, spec: WorkloadSpec
) -> list[tuple[str, str]]:
    """Produce a recorded event schedule for ``machine`` under ``spec``."""
    if spec.scenario not in SCENARIOS:
        raise SimulationError(
            f"unknown workload scenario {spec.scenario!r}; choose from {SCENARIOS}"
        )
    if spec.instances < 1 or spec.events < 0:
        raise SimulationError("workload needs >= 1 instance and >= 0 events")
    if not 0.0 < spec.hot_fraction <= 1.0 or not 0.0 <= spec.hot_share <= 1.0:
        raise SimulationError(
            "hot_fraction must be in (0, 1] and hot_share in [0, 1]"
        )
    if spec.burst_length < 1:
        raise SimulationError("burst_length must be >= 1")

    rng = random.Random(spec.seed)
    keys = session_keys(spec.instances)
    sessions = SessionSimulator(machine, keys, rng, spec.noise)

    hot_count = max(1, int(spec.instances * spec.hot_fraction))
    burst_key: str | None = None
    burst_left = 0

    def next_key() -> str:
        nonlocal burst_key, burst_left
        if spec.scenario == "uniform":
            return keys[rng.randrange(spec.instances)]
        if spec.scenario == "hotkey":
            if rng.random() < spec.hot_share:
                return keys[rng.randrange(hot_count)]
            return keys[rng.randrange(spec.instances)]
        # burst
        if burst_left <= 0 or burst_key is None:
            burst_key = keys[rng.randrange(spec.instances)]
            burst_left = rng.randint(1, 2 * spec.burst_length)
        burst_left -= 1
        return burst_key

    schedule: list[tuple[str, str]] = []
    for _ in range(spec.events):
        key = next_key()
        schedule.append((key, sessions.next_message(key)))
    return schedule
