"""Scenario plane: a model's wiring, run machine-to-machine, with faults.

The fleet plane (:mod:`repro.serve.fleet`) replays externally scripted,
independent event streams — no notion of time, no instance ever talks to
another, nothing fails.  This module closes that gap, the paper's actual
deployment conditions (§4-5): generated machines ran *protocols*, with
timeouts, peers messaging each other, and nodes crashing mid-run.

The engine runs the model's :class:`~repro.core.wiring.Wiring` — the
declaration the storage system deploys and the peer-set checker proves
— over any unmodified :class:`~repro.serve.api.Fleet`, driven by one
deterministic scheduled-event wheel (the virtual clock lifted from
:class:`repro.storage.sim.kernel.Simulator`).  A topology group hosts
one instance per member, so sibling actions have no recipient here:

* **Creation** — each spawned instance first receives ``on_create``.
* **Timers** — an instance sitting in one non-final state for the
  ``timer`` delay receives its message; the armed timer is cancelled on
  state exit.  The engine keeps one ``(rid, armed_state)`` mark per
  key.  Observation is batch-granular (states are inspected between
  dispatch instants), so a state entered and left within one batch
  arms nothing.
* **Routing** — when an instance performs a ``peers`` action, every
  peer in its :class:`GroupTopology` group is scheduled to receive the
  mapped message after its delay: one member's ``vote`` becomes
  ``vote`` messages to its peers, and the whole BFT commit round runs
  machine-to-machine from one client ``update`` per member.
* **Faults** — :class:`ScenarioFaultPlan` (the scenario-plane adaptation
  of :class:`repro.storage.faults.FaultPlan`) injects failures: routed
  messages can be dropped, duplicated or delayed (one seeded draw per
  routed copy), and a shard — one CRC-32 bucket of the keys — can be
  killed mid-burst: its instances are despawned fail-stop, then the
  whole scenario rolls back to the last :class:`ScenarioSnapshot` and
  replays.  Because every wheel record is
  plain data and every fault draw comes from a seeded stream captured in
  the snapshot, the replay is exact: a killed-and-restored run converges
  to the same per-instance traces as an undisturbed run, which is the
  testable recovery claim (``tests/serve/test_scenario_fuzz.py``).

Determinism is the load-bearing property.  The wheel holds one entry
per distinct pending instant, whose records keep their schedule order;
all records due at one virtual instant are posted into the fleet and
drained as one batch; observation (which actions fired, which states
are current) happens engine-side between instants, reading per-instance
data that is provably identical across dispatch modes (the fleet
plane's differential guarantee).  A scenario therefore produces
byte-identical per-instance traces on ``naive``, ``encoded`` and
``vector`` fleets, on either backend, in-process or across worker
processes — the fuzz suite's claim (a).

Timers, routes and kill-shard faults require an observable fleet:
``naive`` mode or ``log_policy='full'`` (actions must be countable), and
``auto_recycle=False`` (recycling clears logs mid-run, which would break
the seen-action bookkeeping).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.core.errors import DeploymentError, SimulationError
from repro.core.wiring import Wiring
from repro.obs.metrics import CounterView, MetricsRegistry
from repro.serve.api import Fleet
from repro.serve.fleet import FleetSnapshot
from repro.serve.store import InstanceSnapshot, shard_of
from repro.storage.sim.kernel import Simulator

#: Wheel-record kinds (also the ``post`` provenance tags).
EXTERNAL, ROUTED, TIMER = "external", "routed", "timer"
_KILL, _SNAP = "kill", "snapshot"

#: A kill fault fail-stops the live keys of one of this many CRC-32
#: buckets (``shard_of(key, KILL_SHARDS) == kill_shard``).
KILL_SHARDS = 8


class GroupTopology:
    """Who talks to whom: disjoint groups of session keys.

    Routed messages fan out to the sender's group peers — for the commit
    protocol a group *is* a peer set (one FSM instance per member for
    the same update), for the CT round it is the process set.  Keys are
    unique across groups.
    """

    __slots__ = ("groups", "keys", "_peers")

    def __init__(self, groups):
        self.groups: tuple[tuple[str, ...], ...] = tuple(
            tuple(group) for group in groups
        )
        self._peers: dict[str, tuple[str, ...]] = {}
        keys: list[str] = []
        for group in self.groups:
            for key in group:
                if key in self._peers:
                    raise DeploymentError(
                        f"key {key!r} appears in more than one topology group"
                    )
                self._peers[key] = tuple(k for k in group if k != key)
                keys.append(key)
        self.keys: tuple[str, ...] = tuple(keys)

    @classmethod
    def regular(cls, groups: int, size: int, prefix: str = "g") -> "GroupTopology":
        """``groups`` groups of ``size`` members with generated key names."""
        if groups < 1 or size < 1:
            raise DeploymentError("topology needs >= 1 group of >= 1 member")
        return cls(
            [
                [f"{prefix}{g:04d}-m{m}" for m in range(size)]
                for g in range(groups)
            ]
        )

    def peers(self, key: str) -> tuple[str, ...]:
        """The other members of ``key``'s group (empty for unknown keys)."""
        return self._peers.get(key, ())

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class ScenarioFaultPlan:
    """What goes wrong, when — the scenario adaptation of ``FaultPlan``.

    ``storage.faults.FaultPlan`` configures per-node Byzantine behaviour
    for the simulated storage system; this plan configures the fleet
    analogue at scenario granularity:

    * ``kill_at`` schedules a fail-stop of one shard (``kill_shard`` in
      ``range(KILL_SHARDS)``, or a seeded pick when ``None``) at the
      given virtual time: its instances are despawned mid-burst, then
      the scenario restores from the last snapshot and replays;
    * ``drop`` / ``duplicate`` / ``delay`` are per-routed-copy
      probabilities (one seeded draw decides each copy's fate; the three
      rates must sum to <= 1); ``delay_by`` is the extra latency a
      delayed copy suffers.

    Only routed (machine-to-machine) traffic is subject to the message
    faults — externally scheduled events are the recorded workload and
    stay intact, which is what keeps faulty runs comparable.
    """

    kill_at: Optional[float] = None
    kill_shard: Optional[int] = None
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_by: float = 5.0

    def __post_init__(self):
        for name in ("drop", "duplicate", "delay"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} rate must be in [0, 1], got {rate}")
        if self.drop + self.duplicate + self.delay > 1.0 + 1e-9:
            raise SimulationError("drop + duplicate + delay rates must sum to <= 1")
        for name in ("delay_by", "kill_at"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise SimulationError(f"{name} must be finite and >= 0, got {value}")
        shard = self.kill_shard
        if shard is not None and not 0 <= shard < KILL_SHARDS:
            raise SimulationError(
                f"kill_shard must be in range({KILL_SHARDS}), got {shard}"
            )

    @property
    def active(self) -> bool:
        """Whether the plan injects any fault at all."""
        return self.kill_at is not None or self.message_faults

    @property
    def message_faults(self) -> bool:
        """Whether routed messages are subject to drop/duplicate/delay."""
        return (self.drop + self.duplicate + self.delay) > 0.0

    @classmethod
    def kill(cls, at: float, shard: Optional[int] = None) -> "ScenarioFaultPlan":
        """Fail-stop one shard at virtual time ``at``."""
        return cls(kill_at=at, kill_shard=shard)

    @classmethod
    def lossy(
        cls, drop: float = 0.05, duplicate: float = 0.0, delay: float = 0.0
    ) -> "ScenarioFaultPlan":
        """A lossy network for routed traffic."""
        return cls(drop=drop, duplicate=duplicate, delay=delay)


@dataclass(frozen=True)
class TimedEvent:
    """One externally scheduled delivery: at ``time``, ``key`` gets ``message``."""

    time: float
    key: str
    message: str


@dataclass(frozen=True)
class Scenario:
    """A fully specified, replayable scenario (wiring x topology x schedule)."""

    wiring: Wiring
    topology: GroupTopology
    events: tuple[TimedEvent, ...]
    faults: Optional[ScenarioFaultPlan] = None
    seed: int = 0
    until: float = 1000.0
    snapshot_every: Optional[float] = None


class _ScenarioCounters(CounterView):
    """Read-only live view of everything the scenario engine counted."""

    __slots__ = ()
    PREFIX = "scenario_"
    COUNTERS = (
        ("instants", "distinct virtual instants processed"),
        ("external_delivered", "scheduled external events delivered"),
        ("routed_delivered", "routed peer messages delivered"),
        ("timers_fired", "timer messages delivered"),
        ("timers_armed", "timers armed on entering a state"),
        ("timers_cancelled", "armed timers cancelled by a state exit"),
        ("messages_routed", "routed copies scheduled for peers"),
        ("messages_dropped", "routed copies dropped by a fault"),
        ("messages_duplicated", "routed copies duplicated by a fault"),
        ("messages_delayed", "routed copies delayed by a fault"),
        ("shards_killed", "shards killed by a fault"),
        ("instances_lost", "instances lost with a killed shard"),
        ("snapshots_taken", "scenario snapshots taken"),
        ("snapshots_restored", "scenario snapshots restored"),
        (
            "events_delivered",
            "messages delivered to instances, whatever their provenance",
        ),
    )


@dataclass(frozen=True)
class ScenarioSnapshot:
    """Everything a scenario needs to replay from a point in virtual time.

    The fleet snapshot alone is not enough: armed timers, in-flight
    routed messages, undelivered external batches, the clock and the
    fault stream's position all shape what happens next.  Each is
    captured as plain data (wheel records are ``(rid, time, kind,
    payload)`` tuples), so restoring re-creates the exact pending
    future — any piece missing here would show up as trace divergence
    in the kill-restore fuzz claim.
    """

    fleet: FleetSnapshot
    now: float
    pending: tuple[tuple, ...]
    seen: tuple[tuple[str, int], ...]
    rng_state: object
    #: Tracing state, captured when the fleet carries a trace log: the
    #: pending records' trace ids, each key's last-delivery id (causal
    #: parent links), and the mint position — restoring them makes a
    #: replay mint the *same* ids an undisturbed run would.
    tids: tuple = ()
    last_tids: tuple = ()
    next_trace_id: Optional[int] = None


class ScenarioEngine:
    """Drive one fleet through virtual time with timers, routing and faults.

    The engine owns a :class:`Simulator` wheel with one entry per distinct
    pending instant; each entry's records are plain data, kept in
    schedule order.  At each instant the engine posts the still-pending
    deliveries into the fleet's queue (tagged with their provenance),
    drains, and — when the wiring declares a timer or peer routes —
    observes the touched instances to cancel/arm timers and turn newly
    fired actions into routed traffic.  Only the :class:`Fleet` protocol
    is used, so any fleet runs any scenario.  See the module docstring
    for the determinism argument.
    """

    def __init__(
        self,
        fleet: Fleet,
        wiring: Optional[Wiring] = None,
        topology: Optional[GroupTopology] = None,
        faults: Optional[ScenarioFaultPlan] = None,
        *,
        seed: int = 0,
        snapshot_every: Optional[float] = None,
        max_events: int = 1_000_000,
    ):
        self._fleet = fleet
        self._wiring = wiring if wiring is not None else Wiring()
        self._topology = topology if topology is not None else GroupTopology(())
        self._faults = faults if faults is not None and faults.active else None
        self._observing = bool(self._wiring.timer or self._wiring.peers)
        kills = self._faults is not None and self._faults.kill_at is not None
        needs_trace = self._observing or kills
        if needs_trace and fleet.mode != "naive" and fleet.log_policy != "full":
            raise DeploymentError(
                "scenarios with timers, routes or kill-shard faults need an "
                "observable fleet: naive mode or log_policy='full' "
                f"(this fleet runs {fleet.log_policy!r})"
            )
        if needs_trace and fleet.auto_recycle:
            raise DeploymentError(
                "scenarios with timers, routes or kill-shard faults cannot "
                "run on an auto_recycle fleet: recycling clears action logs "
                "mid-run, breaking action observation and replay"
            )
        #: Peer action -> (message, delay) its group peers receive.
        self._routes = {a: (m, d) for a, m, d in self._wiring.peers}
        self._sim = Simulator(seed)
        self._rng = self._sim.new_rng("scenario-faults")
        #: rid -> record ``(rid, time, kind, payload)``, until it fires or
        #: is cancelled.
        self._pending: dict[int, tuple] = {}
        #: time -> rids due then, in schedule order: one wheel entry per
        #: instant.  A cancelled rid stays listed; the instant skips it.
        self._instants: dict[float, list[int]] = {}
        #: key -> ``(rid, armed_state)`` of the key's armed timer.
        self._armed: dict[str, tuple[int, str]] = {}
        #: Intern table for scheduled (key, message) tuples — engine-lived
        #: (size is population x message alphabet, the same order as the
        #: store's own key intern dict) so consuming a wheel record only
        #: decrefs its payload instead of freeing one object per event on
        #: the dispatch clock.
        self._interned: dict[tuple, tuple] = {}
        self._rid = itertools.count()
        #: Actions already observed (and routed) per key.
        self._seen: dict[str, int] = {}
        self._primed = False
        self._kill_scheduled = False
        self._kills_done: set[int] = set()
        self._snap_scheduled = False
        self._snapshot_every = snapshot_every
        self._last_snapshot: Optional[ScenarioSnapshot] = None
        self._max_events = max_events
        # Trace logs do not cross processes: only an in-process fleet
        # can carry one.
        telemetry = getattr(fleet, "telemetry", None)
        #: The fleet's trace log, when one is attached: scenario records
        #: (schedule/timer/route/fault decisions, at virtual time) land
        #: in the same ring as the fleet's post/dispatch records.
        self._trace = telemetry.trace if telemetry is not None else None
        #: rid -> trace ids of the record's payload events (pending only).
        self._tids: dict[int, tuple[int, ...]] = {}
        #: key -> trace id of the last event delivered to the key: the
        #: causal parent for timers armed on and actions routed from it.
        self._last_tid: dict[str, int] = {}
        #: The scenario's own counters (``scenario_*_total``); an
        #: exposition merges them with the fleet's registry.
        self.registry = MetricsRegistry()
        self.metrics = _ScenarioCounters(self.registry)
        self._count = self.metrics.handles()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def fleet(self) -> Fleet:
        return self._fleet

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._sim.now

    @property
    def pending_records(self) -> int:
        """Scheduled wheel records not yet fired."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # population & schedule
    # ------------------------------------------------------------------

    def spawn_topology(self) -> None:
        """Spawn one instance per topology key (fresh fleets only); each
        first receives the wiring's ``on_create`` at the current instant."""
        keys = self._topology.keys
        for key in keys:
            self._fleet.spawn(key)
        self._seen = dict.fromkeys(keys, 0)
        message, now = self._wiring.on_create, self._sim.now
        if message is not None:
            self.schedule_events(TimedEvent(now, key, message) for key in keys)

    def schedule_event(self, time: float, key: str, message: str) -> None:
        """Schedule one external delivery at absolute virtual time."""
        rid = self._schedule_at(time, EXTERNAL, ((key, message),))
        trace = self._trace
        if trace is not None:
            tid = trace.mint()
            trace.record(tid, time, "schedule", key=key, message=message)
            self._tids[rid] = (tid,)

    def schedule_events(self, events) -> None:
        """Schedule a recorded timed workload.

        Events are collected by timestamp so the wheel pays one record
        per distinct instant, not per event; within an instant, schedule
        order is preserved.
        """
        batches: dict[float, list] = {}
        interned = self._interned
        for event in events:
            item = (event.key, event.message)
            item = interned.setdefault(item, item)
            batches.setdefault(event.time, []).append(item)
        trace = self._trace
        for time in sorted(batches):
            batch = tuple(batches[time])
            rid = self._schedule_at(time, EXTERNAL, batch)
            if trace is not None:
                ids = trace.mint_range(len(batch))
                for tid, (key, message) in zip(ids, batch):
                    trace.record(tid, time, "schedule", key=key, message=message)
                self._tids[rid] = tuple(ids)

    def despawn(self, key: str) -> None:
        """Remove one instance *and* its pending timed/routed traffic.

        The safe form of the fleet's ``despawn`` under a scenario:
        wheel records addressed to the key are cancelled so a timer
        expiring after the despawn cannot be delivered to the slot's
        next occupant.  (Despawning behind the engine's back leaves
        those records live — their delivery then raises
        :class:`DeploymentError`, never corrupting a reused slot.)
        """
        self._armed.pop(key, None)
        for rid, (_rid, _time, kind, payload) in list(self._pending.items()):
            if kind in (ROUTED, TIMER) and payload[0] == key:
                self._cancel(rid)
        self._seen.pop(key, None)
        self._fleet.despawn(key)

    # ------------------------------------------------------------------
    # the wheel
    # ------------------------------------------------------------------

    def _schedule_at(self, time, kind, payload, rid=None) -> int:
        if rid is None:
            rid = next(self._rid)
        self._pending[rid] = (rid, time, kind, payload)
        rids = self._instants.get(time)
        if rids is None:
            self._instants[time] = [rid]
            self._sim.schedule_at(time, partial(self._instant, time))
        else:
            rids.append(rid)
        return rid

    def _schedule(self, delay, kind, payload) -> int:
        return self._schedule_at(self._sim.now + delay, kind, payload)

    def _cancel(self, rid) -> None:
        record = self._pending.pop(rid, None)
        if record is None or self._trace is None:
            return
        tids = self._tids.pop(rid, None)
        if tids:
            kind, payload = record[2], record[3]
            key = message = None
            if kind in (ROUTED, TIMER):
                key, message = payload
            self._trace.record(
                tids[0],
                self._sim.now,
                "cancel",
                key=key,
                message=message,
                detail=kind,
            )

    def run(self, until: float) -> _ScenarioCounters:
        """Advance virtual time to ``until``, processing every due instant."""
        sim = self._sim
        faults = self._faults
        if faults is not None and faults.kill_at is not None:
            if not self._kill_scheduled:
                self._schedule_at(faults.kill_at, _KILL, faults.kill_shard)
                self._kill_scheduled = True
            if self._last_snapshot is None:
                self.snapshot()
        if self._snapshot_every is not None and not self._snap_scheduled:
            self._schedule(self._snapshot_every, _SNAP, None)
            self._snap_scheduled = True
        if self._observing and not self._primed:
            self._primed = True
            self._observe(self._topology.keys)
        while sim.next_time() <= until:  # inf when the wheel is empty
            sim.step()
        sim.run(until=until)
        return self.metrics

    def _instant(self, time) -> None:
        """One wheel entry is due: process its records still pending.

        An instant whose records were all cancelled is neither processed
        nor counted.
        """
        pending = self._pending
        due = [pending.pop(rid) for rid in self._instants.pop(time) if rid in pending]
        if due:
            self._process(due)

    def _process(self, due) -> None:
        trace = self._trace
        #: (kind, (key, message) pairs, trace ids or None) per delivering
        #: record, in schedule order.
        deliveries: list[tuple] = []
        fired: list[str] = []  # keys whose timer fired
        kills: list[tuple] = []
        snaps = 0
        external = routed = timers = 0
        for rid, rtime, kind, payload in due:
            tids = self._tids.pop(rid, None) if trace is not None else None
            if kind == EXTERNAL:
                external += len(payload)
                deliveries.append((kind, payload, tids))
            elif kind == ROUTED:
                routed += 1
                deliveries.append((kind, (payload,), tids))
            elif kind == TIMER:
                timers += 1
                key, message = payload
                fired.append(key)
                if tids:
                    trace.record(
                        tids[0], rtime, "timer_fire", key=key, message=message
                    )
                deliveries.append((kind, (payload,), tids))
            elif kind == _KILL:
                if rid not in self._kills_done:
                    kills.append((rid, payload))
            else:  # _SNAP
                snaps += 1
        counted = self._count
        counted.instants.value += 1
        counted.external_delivered.value += external
        counted.routed_delivered.value += routed
        counted.timers_fired.value += timers
        delivered = counted.events_delivered
        delivered.value += external + routed + timers
        if delivered.value > self._max_events:
            raise SimulationError(
                f"scenario exceeded event budget of {self._max_events} "
                "deliveries — routing livelock?"
            )
        if deliveries:
            self._deliver(deliveries, fired)
        for _ in range(snaps):
            self.snapshot()
            if self._snapshot_every is not None:
                self._schedule(self._snapshot_every, _SNAP, None)
        for rid, shard in kills:
            self._kills_done.add(rid)
            self._kill(shard)

    def _deliver(self, deliveries, fired) -> None:
        """One instant's arrivals: post each, drain once, then observe."""
        fleet = self._fleet
        post = fleet.post
        last = self._last_tid
        for kind, pairs, tids in deliveries:
            if tids is None:
                for key, message in pairs:
                    post(key, message, kind)
            else:
                for (key, message), tid in zip(pairs, tids):
                    post(key, message, kind, tid)
                    last[key] = tid
        fleet.drain_all()
        if self._observing:
            # A fired timer is no longer armed: drop its mark before
            # observation (which may immediately re-arm it — periodic
            # timers).
            for key in fired:
                self._armed.pop(key, None)
            self._observe(
                dict.fromkeys(key for _, pairs, _t in deliveries for key, _m in pairs)
            )

    # ------------------------------------------------------------------
    # observation: timers armed/cancelled, actions routed
    # ------------------------------------------------------------------

    def _observe(self, keys) -> None:
        fleet = self._fleet
        counted = self._count
        armed_of = self._armed
        timer = self._wiring.timer
        routes = self._routes
        seen = self._seen
        trace = self._trace
        for key in keys:
            if key not in fleet:
                continue
            state = fleet.state_name(key)
            armed = armed_of.get(key)
            if armed is not None and armed[1] != state:
                self._cancel(armed[0])
                del armed_of[key]
                armed = None
                counted.timers_cancelled.value += 1
            if timer is not None and armed is None and not fleet.is_finished(key):
                message, delay = timer
                rid = self._schedule(delay, TIMER, (key, message))
                armed_of[key] = (rid, state)
                counted.timers_armed.value += 1
                if trace is not None:
                    tid = trace.mint()
                    trace.record(
                        tid,
                        self._sim.now,
                        "timer_arm",
                        parent_id=self._last_tid.get(key),
                        key=key,
                        message=message,
                        detail=f"delay={delay}",
                    )
                    self._tids[rid] = (tid,)
            if routes:
                done = seen.get(key, 0)
                new = fleet.actions_since(key, done)
                if new:
                    seen[key] = done + len(new)
                    for action in new:
                        route = routes.get(action)
                        if route is not None:
                            self._route(key, action, *route)

    def _route(self, key: str, action: str, message: str, delay: float) -> None:
        counted = self._count
        faults = self._faults
        trace = self._trace
        parent = self._last_tid.get(key) if trace is not None else None
        lossy = faults is not None and faults.message_faults
        for peer in self._topology.peers(key):
            counted.messages_routed.value += 1
            copy_delay = delay
            copies = 1
            delayed = False
            if lossy:
                draw = self._rng.random()
                if draw < faults.drop:
                    counted.messages_dropped.value += 1
                    if trace is not None:
                        trace.record(
                            trace.mint(),
                            self._sim.now,
                            "fault_drop",
                            parent_id=parent,
                            key=peer,
                            message=message,
                            detail=action,
                        )
                    continue
                if draw < faults.drop + faults.duplicate:
                    counted.messages_duplicated.value += 1
                    copies = 2
                elif draw < faults.drop + faults.duplicate + faults.delay:
                    counted.messages_delayed.value += 1
                    copy_delay += faults.delay_by
                    delayed = True
            for copy in range(copies):
                rid = self._schedule(copy_delay, ROUTED, (peer, message))
                if trace is not None:
                    tid = trace.mint()
                    kind = (
                        "fault_dup"
                        if copy
                        else ("fault_delay" if delayed else "route")
                    )
                    trace.record(
                        tid,
                        self._sim.now,
                        kind,
                        parent_id=parent,
                        key=peer,
                        message=message,
                        detail=action,
                    )
                    self._tids[rid] = (tid,)

    # ------------------------------------------------------------------
    # faults & recovery
    # ------------------------------------------------------------------

    def _kill(self, shard: Optional[int]) -> None:
        if shard is None:
            shard = self._rng.randrange(KILL_SHARDS)
        fleet = self._fleet
        victims = [
            key
            for key in self._topology.keys
            if shard_of(key, KILL_SHARDS) == shard and key in fleet
        ]
        self._count.shards_killed.value += 1
        self._count.instances_lost.value += len(victims)
        if self._trace is not None:
            # Engine-level records use the reserved id 0 (mint starts at
            # 1), so a kill never perturbs the replayable id stream.
            self._trace.record(
                0,
                self._sim.now,
                "kill",
                detail=f"shard={shard} victims={len(victims)}",
            )
        # Fail-stop: the shard's instances vanish mid-burst, taking their
        # armed timers and addressed traffic down with them.
        for key in victims:
            self.despawn(key)
        snap = self._last_snapshot
        if snap is None:
            raise DeploymentError(
                "kill-shard fired with no scenario snapshot to restore from"
            )
        self.restore(snap)

    def snapshot(self) -> ScenarioSnapshot:
        """Capture the scenario at the current instant (fleet + future)."""
        pending = tuple(sorted(self._pending.values(), key=lambda r: (r[1], r[0])))
        snap = ScenarioSnapshot(
            fleet=self._fleet.snapshot(),
            now=self._sim.now,
            pending=pending,
            seen=tuple(sorted(self._seen.items())),
            rng_state=self._rng.getstate(),
            tids=tuple(sorted(self._tids.items())),
            last_tids=tuple(sorted(self._last_tid.items())),
            next_trace_id=(
                self._trace.next_id if self._trace is not None else None
            ),
        )
        self._last_snapshot = snap
        self._count.snapshots_taken.value += 1
        return snap

    def restore(self, snap: ScenarioSnapshot) -> None:
        """Rewind the whole scenario — fleet, clock, pending future, rng."""
        fleet = self._fleet
        fleet.restore(snap.fleet)
        sim = self._sim
        sim.reset()
        sim.run(until=snap.now)
        self._pending.clear()
        self._instants.clear()
        self._armed.clear()
        for rid, time, kind, payload in snap.pending:
            self._schedule_at(time, kind, payload, rid=rid)
            if kind == TIMER and payload[0] in fleet:
                # A pending timer is its key's armed one, armed in the
                # state the key was snapshotted (and is restored) in.
                self._armed[payload[0]] = (rid, fleet.state_name(payload[0]))
        self._seen = dict(snap.seen)
        self._rng.setstate(snap.rng_state)
        self._tids = {rid: tuple(tids) for rid, tids in snap.tids}
        self._last_tid = dict(snap.last_tids)
        if self._trace is not None and snap.next_trace_id is not None:
            # Rewind the mint so the replay allocates the same ids the
            # undisturbed run would have (the replay-exact trace claim).
            self._trace.next_id = snap.next_trace_id
            self._trace.record(
                0, self._sim.now, "restore", detail=f"now={snap.now}"
            )
        self._last_snapshot = snap
        self._count.snapshots_restored.value += 1


def run_scenario(fleet: Fleet, scenario: Scenario) -> ScenarioEngine:
    """Spawn, schedule and run one :class:`Scenario` on a fresh fleet."""
    engine = ScenarioEngine(
        fleet,
        scenario.wiring,
        scenario.topology,
        scenario.faults,
        seed=scenario.seed,
        snapshot_every=scenario.snapshot_every,
    )
    engine.spawn_topology()
    engine.schedule_events(scenario.events)
    engine.run(scenario.until)
    return engine


def scenario_traces(
    fleet: Fleet, scenario: Scenario
) -> dict[str, InstanceSnapshot]:
    """Run a scenario and return every topology key's final trace."""
    run_scenario(fleet, scenario)
    return {key: fleet.trace(key) for key in scenario.topology.keys}
