"""The fleet execution engine: many machine instances behind one API.

The paper's deployment story (§4) generates, compiles and binds a *single*
state machine; this module is the production-scale counterpart: it hosts
thousands-to-millions of instances of one generated machine and
dispatches events to them in batches.

Every event enters the same way: it is *interned at intake* — the session
key resolves to its dense store slot and the message to its column id
once, at :meth:`FleetEngine.post` or :meth:`FleetEngine.run` — so every
pending or arriving batch is a flat ``[slot, col, slot, col, ...]`` int
schedule and no dispatch loop hashes a string.  The three dispatch modes
differ only in what executes a pair:

* ``naive`` — the reference: each pair is delivered to a per-instance
  backend object (a :class:`~repro.runtime.interp.MachineInterpreter` or a
  compiled generated-class instance, selected by ``backend``), one full
  protocol walk per event.  The differential suites compare the other
  modes against it.
* ``encoded`` (the default) — pure int arithmetic on two flat arrays
  specialised from the shared :class:`~repro.opt.IndexedMachine` IR
  (``offset = states[slot] + column; next = jump[offset]``): no object
  per instance, no string in sight.
* ``vector`` — the encoded plane with the Python bytecode loop removed:
  the states column is a flat numpy array and each occurrence round
  executes as one gather/scatter over the jump table
  (:mod:`repro.serve.vector`).  Requires numpy (a soft dependency —
  construction raises the canonical error without it); the encoded
  path remains the always-on fallback and differential oracle.

All modes produce identical per-instance state/action traces (the
differential tests assert this against standalone interpreter replays),
so the table-dispatch planes are pure throughput optimisations.

``log_policy`` controls what the table-dispatch loops do with fired
actions — per-event tuple appends dominate profile time at 10k+
instances: ``full`` (default) retains every action chunk and is required
for traces, snapshots and differential comparison; ``off`` mutates
nothing per event.  The policy is data, not a second loop: an ``off``
fleet's acts table has no action to append, only the auto-recycle
sentinels.  ``naive`` backends always keep their logs.

Event intake has three doors and one dispatch tail.
:meth:`FleetEngine.post` appends one interned pair to the engine's one
pending schedule, in arrival order, and :meth:`FleetEngine.drain_all`
dispatches that schedule in one pass; :meth:`FleetEngine.run` dispatches
a materialised event list as one arrival batch, or — as
``run(schedule, encoding="flat")`` — a schedule *already* interned by
:meth:`FleetEngine.encode_flat`, so a generator can pay the interning
cost once per workload instead of once per run.  The queue is unbounded:
a producer that outruns the fleet drains it (every ``run`` starts with
:meth:`FleetEngine.drain_all`).

Snapshot/restore captures every instance's ``(key, state, action log)``
for recycling and failover; recycling itself rides the ``reset()``
protocol both backends implement, and :meth:`FleetEngine.despawn` returns
an instance's slot to the store's free list for reuse.

Every count lives in the engine's one
:class:`~repro.obs.metrics.MetricsRegistry`
(:meth:`FleetEngine.telemetry_registry`), bumped once per batch;
:attr:`FleetEngine.metrics` is the read-only view over it.  Telemetry is
opt-in: ``FleetEngine(telemetry=FleetTelemetry())`` attaches a
:mod:`repro.obs` context to that registry and the engine feeds it —
per-event queue wait (post to drain) into
``fleet_queue_latency_seconds``, per-batch dispatch wall time and size
into ``fleet_batch_*``, and (when the context carries a trace log) a
``post`` record under a trace id minted at :meth:`FleetEngine.post`.
The cost model is deliberate: the hot loops are untouched — batches pay
two clock reads and two histogram observations *per batch* — while
per-event stamping exists only on the posted path, which is already the
slower intake door.  The default ``telemetry=None`` leaves every path
exactly as before.  The queue depth, by contrast, is always observed:
every drain records the drained batch's depth into the
``fleet_shard_depth_*`` gauges, so ``shard_depths`` /
``peak_shard_depth`` are live without caller polling.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import FleetTelemetry
from repro.opt.indexed import IndexedMachine
from repro.serve.adapter import BACKENDS, import_backend, make_backend
from repro.serve.metrics import FleetMetrics, QueueDepths
from repro.serve.store import (
    LOG_POLICIES,
    InstanceSnapshot,
    InstanceStore,
    session_keys,
)
from repro.serve.vector import (
    VectorKernel,
    VectorSchedule,
    _flat_count,
    require_numpy,
)

#: Event dispatch modes.
DISPATCH_MODES = ("naive", "encoded", "vector")

#: Schedule encodings :meth:`FleetEngine.run` accepts.  ``auto`` sniffs
#: the batch (a flat int ``array`` or a
#: :class:`~repro.serve.vector.VectorSchedule` dispatches as ``flat``,
#: everything else as ``events``); the explicit names skip the sniff.
ENCODINGS = ("auto", "events", "flat")

#: The head of every refusal of a ``"flat"`` batch that is no schedule.
_NOT_A_SCHEDULE = (
    "encoding 'flat' needs a [slot, col, ...] int schedule from encode_flat(); "
)

#: Every fleet's refusal of a pre-encoded schedule run as ``"events"``.
_SCHEDULE_AS_EVENTS = (
    "encoding 'events' needs (key, message) pairs, but the batch is a "
    "pre-encoded schedule; run it with encoding 'flat' or 'auto'"
)


def raise_rejected(rejected: list[tuple[str, str]]) -> None:
    """Raise the canonical unknown instance/message dispatch error.

    One message shape for every fleet implementation — the in-process
    engine and the multiprocess fleet both reject through here, so a
    caller sees identical errors whichever side of the process boundary
    the validation ran on.
    """
    shown = ", ".join(f"({k!r}, {m!r})" for k, m in rejected[:3])
    suffix = f" (+{len(rejected) - 3} more)" if len(rejected) > 3 else ""
    raise DeploymentError(
        f"dispatch rejected {len(rejected)} event(s) with unknown "
        f"instance or message: {shown}{suffix}"
    )


def known(value, table) -> bool:
    """Whether ``value`` is in ``table``; an unhashable value is not."""
    try:
        return value in table
    except TypeError:
        return False


def check_key(key) -> None:
    """Refuse an instance key that is not a string, for both fleets."""
    if type(key) is not str:
        raise DeploymentError(f"instance key must be a string, got {key!r}")


def check_count(count, name: str = "count") -> None:
    """Refuse a count or a start index that is not a non-negative int."""
    if type(count) is not int or count < 0:
        raise DeploymentError(f"{name} must be a non-negative integer, got {count!r}")


def _check_options(mode: str, backend: str, log_policy: str) -> None:
    """Refuse a fleet configuration that cannot run or means nothing.

    Both fleet implementations call this before they build anything —
    the multiprocess one in the parent, before any worker is forked — so
    a bad option raises one :class:`~repro.core.errors.DeploymentError`
    whichever fleet was asked for.
    """
    if mode not in DISPATCH_MODES:
        raise DeploymentError(
            f"unknown dispatch mode {mode!r}; choose from {DISPATCH_MODES}"
        )
    if backend not in BACKENDS:
        raise DeploymentError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if backend != "interp" and mode != "naive":
        raise DeploymentError(
            f"backend {backend!r} is read only by dispatch mode 'naive'; "
            f"mode {mode!r} executes the dispatch table itself"
        )
    if log_policy not in LOG_POLICIES:
        raise DeploymentError(
            f"unknown log policy {log_policy!r}; choose from {LOG_POLICIES}"
        )
    if mode == "naive" and log_policy != "full":
        raise DeploymentError(
            "naive-mode backends always retain their action logs; "
            f"log_policy {log_policy!r} needs a table-dispatch mode"
        )
    if mode == "naive":
        # Here, not in the first make_backend: a multiprocess parent's
        # workers then share one import of the runtime they execute.
        import_backend(backend)
    if mode == "vector":
        # Fail here, not at first dispatch: numpy is a soft dependency
        # and a deployment can still pick a scalar mode.
        require_numpy("dispatch mode 'vector'")


class _Unlogged:
    """An ``off`` fleet's log column as the scalar loop reads it: every
    slot's log is one shared empty list, which the ``off`` acts table
    never appends to, so clearing it on an auto-recycle is a no-op."""

    def __getitem__(self, slot: int) -> list:
        return _EMPTY_LOG


_EMPTY_LOG: list = []
_UNLOGGED = _Unlogged()


@dataclass(frozen=True)
class FleetSnapshot:
    """Portable state of a whole fleet at a quiescent point.

    Pending (queued, undelivered) events are *not* part of a snapshot:
    :meth:`FleetEngine.snapshot` drains its queue first so the capture
    is consistent.

    ``instances`` are in spawn order in-process (a respawned key comes
    last) and worker by worker across processes: compare snapshots of
    different layouts as key -> record maps.

    ``lost`` is the manifest of a *partial* snapshot: keys whose shard
    partition was unavailable at capture time
    (``MultiprocessFleet.snapshot(allow_partial=True)``).  A snapshot
    with a non-empty manifest refuses to restore unless the caller
    explicitly accepts the loss with ``restore(..., allow_partial=True)``.
    """

    machine_name: str
    instances: tuple[InstanceSnapshot, ...]
    lost: tuple[str, ...] = ()


def resolve_snapshot(
    snapshot: FleetSnapshot,
    machine_name: str,
    state_index: dict,
    state_map: Optional[dict],
    allow_partial: bool,
) -> list[str]:
    """Check a whole snapshot before any population is touched.

    Returns the served state name of every instance, in snapshot order.
    One pass checks everything a restore relies on — the machine, the
    ``lost`` manifest, keys that are unique strings, states known to the
    machine (through ``state_map``), actions a sequence of strings — so a
    bad snapshot raises :class:`~repro.core.errors.DeploymentError` while
    the fleet still holds its old population.  Both fleet
    implementations restore through here, the multiprocess one in the
    parent before anything fans out to a worker.
    """
    if not isinstance(snapshot, FleetSnapshot):
        raise DeploymentError(
            f"restore needs a FleetSnapshot, got {type(snapshot).__name__}"
        )
    if snapshot.machine_name != machine_name:
        raise DeploymentError(
            f"snapshot is for machine {snapshot.machine_name!r}, "
            f"this fleet serves {machine_name!r}"
        )
    if snapshot.lost and not allow_partial:
        raise DeploymentError(
            f"snapshot is partial: {len(snapshot.lost)} instance(s) "
            "from lost partitions are missing; pass allow_partial=True "
            "to restore the survivors"
        )
    served: list[str] = []
    seen: set[str] = set()
    for inst in snapshot.instances:
        key, state, actions = inst.key, inst.state, inst.actions
        if type(key) is not str:
            raise DeploymentError(f"snapshot instance key {key!r} is not a string")
        if key in seen:
            raise DeploymentError(f"snapshot holds instance {key!r} more than once")
        seen.add(key)
        if type(state) is str and state_map is not None:
            state = state_map.get(state, state)
        if type(state) is not str or state not in state_index:
            raise DeploymentError(
                f"snapshot state {inst.state!r} does not exist in "
                f"machine {machine_name!r}"
            )
        if not isinstance(actions, (tuple, list)) or not all(
            type(action) is str for action in actions
        ):
            raise DeploymentError(
                f"snapshot actions of instance {key!r} must be a sequence "
                f"of strings, got {actions!r}"
            )
        served.append(state)
    return served


def optimized_ir(machine: StateMachine, optimize):
    """The indexed IR a fleet serves, and the optimizer's report.

    ``optimize`` is ``None``, a :class:`~repro.opt.PassPipeline`, a level
    or a pass-list spec; the report is ``None`` when no pipeline ran.  The
    pass pipeline is imported only when one is asked for.
    """
    indexed = IndexedMachine.from_machine(machine)
    if optimize is not None:
        from repro.opt.pipeline import as_pipeline

        pipeline = as_pipeline(optimize)
        if pipeline is not None:
            return pipeline.run(indexed)
    return indexed, None


class FleetEngine:
    """Host a population of instances of one machine; dispatch events to them."""

    def __init__(
        self,
        machine: StateMachine,
        *,
        backend: str = "interp",
        mode: str = "encoded",
        auto_recycle: bool = False,
        optimize=None,
        log_policy: str = "full",
        telemetry: Optional[FleetTelemetry] = None,
    ):
        _check_options(mode, backend, log_policy)
        self._machine = machine
        self._mode = mode
        self._backend_kind = backend
        self._auto_recycle = auto_recycle
        self._log_policy = log_policy
        # The shared indexed IR is the fleet's source of truth: the
        # dispatch arrays are specialised from its int arrays, and an
        # optimize= pipeline (a repro.opt.PassPipeline, a level, or a
        # pass-list spec) runs over it before anything is built.
        self._indexed, self.opt_report = optimized_ir(machine, optimize)
        # Materialised lazily from the IR: only the naive backend and the
        # serving_machine accessor ever need the full object graph.
        self._serving_machine: Optional[StateMachine] = None
        self._table = self._indexed.dispatch_table()
        self._width = self._table.width
        self._columns = self._table.message_index
        self._messages = self._table.messages
        self._final = self._table.final
        self._start = self._indexed.start * self._width
        # The specialised jump/acts arrays serve every table-dispatch
        # mode; naive fleets execute through backend objects instead.
        if mode == "naive":
            self._jump = self._acts = None
        else:
            self._jump, self._acts = self._indexed.jump_arrays(auto_recycle)
            if log_policy == "off":
                # Nothing to log: firing entries carry no actions, and
                # only the auto-recycle sentinels (None) stay.
                self._acts = [None if acts is None else () for acts in self._acts]
        # Backend objects only exist on the naive path; the table modes
        # execute instances as columns of the slot-indexed store.
        # Naive backends run the *serving* (optimized) machine so all
        # modes report identical state names under one optimize setting.
        self._adapter = (
            make_backend(backend, self.serving_machine)
            if mode == "naive"
            else None
        )
        self._store = InstanceStore(
            self._table,
            log_policy=log_policy,
            vector=(mode == "vector"),
        )
        # The vector kernel shares the scalar jump/acts tables.
        self._kernel = (
            VectorKernel(
                self._store, self._jump, self._acts, self._width, log_policy
            )
            if mode == "vector"
            else None
        )
        self._registry = MetricsRegistry()
        self._depths = QueueDepths(self._registry)
        #: The read-only live view over the registry's fleet counters.
        self.metrics = FleetMetrics(self._registry, self._depths)
        #: The counters themselves, which the engine bumps.
        self._count = self.metrics.handles()
        if telemetry is not None:
            telemetry.attach(self._registry)
        self._telemetry = telemetry
        self._discard_pending()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def machine(self) -> StateMachine:
        """The machine the fleet was constructed with (pre-optimization)."""
        return self._machine

    @property
    def serving_machine(self) -> StateMachine:
        """The machine actually served (optimized when ``optimize=`` ran)."""
        if self._serving_machine is None:
            self._serving_machine = (
                self._machine
                if self.opt_report is None
                else self._indexed.to_machine()
            )
        return self._serving_machine

    @property
    def indexed_machine(self) -> IndexedMachine:
        """The shared IR the dispatch arrays were specialised from."""
        return self._indexed

    @property
    def state_map(self) -> Optional[dict]:
        """Original -> served state-name map when an optimizer merged states.

        ``None`` when no pipeline ran or the run was an identity — the
        differential harness then compares state names directly.
        """
        if self.opt_report is None or self.opt_report.identity:
            return None
        return self.opt_report.state_map

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def backend(self) -> str:
        return self._backend_kind

    @property
    def auto_recycle(self) -> bool:
        return self._auto_recycle

    @property
    def log_policy(self) -> str:
        return self._log_policy

    @property
    def telemetry(self) -> Optional[FleetTelemetry]:
        """The attached telemetry context (``None`` when uninstrumented)."""
        return self._telemetry

    def telemetry_registry(self) -> MetricsRegistry:
        """The fleet's one registry: its counters and depth gauges, plus
        the telemetry histograms when instrumented.

        The protocol-level accessor every fleet answers the same way, so
        exposition code never reaches for ``.telemetry``.
        """
        return self._registry

    def close(self) -> None:
        """Release resources; a no-op for the in-process engine.

        Part of the :class:`~repro.serve.api.Fleet` protocol so callers
        can manage any fleet with one shutdown path (the multiprocess
        fleet tears down worker processes here).
        """

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def store(self) -> InstanceStore:
        """The columnar instance store backing this fleet.

        Exposed for planes layered on top of the engine (the scenario
        plane reads the timer columns and the membership directly);
        treat it as read-mostly — lifecycle goes through
        :meth:`spawn`/:meth:`despawn`.
        """
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    # ------------------------------------------------------------------
    # instance lifecycle
    # ------------------------------------------------------------------

    def spawn(self, key: str) -> int:
        """Create one instance at the machine's start state; returns its slot."""
        check_key(key)
        backend = self._adapter.new_instance() if self._adapter is not None else None
        slot = self._store.spawn(key, backend)
        self._count.instances_spawned.value += 1
        return slot

    def spawn_many(self, count: int, prefix: str = "session") -> list[str]:
        """Create ``count`` instances with generated session keys.

        The keys come from :func:`repro.serve.store.session_keys`, so a
        generated workload targets exactly the instances spawned here.
        """
        check_count(count)
        keys = session_keys(count, prefix)
        for key in keys:
            self.spawn(key)
        return keys

    def despawn(self, key: str) -> None:
        """Remove one instance; its slot returns to the free list for reuse.

        Queued events are dispatched first: they were interned to their
        keys' slots at :meth:`post`, so they reach the instances they
        were addressed to and never this slot's next occupant.
        """
        self._store.slot(key)  # an unknown key drains nothing
        self.drain_all()
        self._store.release(key)
        self._count.instances_released.value += 1

    def recycle(self, key: str) -> None:
        """Return one instance to the start state (the ``reset()`` protocol)."""
        store = self._store
        slot = store.slot(key)
        if self._mode == "naive":
            store.backends[slot].reset()
        else:
            store.states[slot] = self._start
            if self._log_policy == "full":
                store.logs[slot].clear()
        self._count.instances_recycled.value += 1

    def state_name(self, key: str) -> str:
        """The instance's current state name (works under every log policy)."""
        slot = self._store.slot(key)
        if self._mode == "naive":
            return self._store.backends[slot].get_state()
        return self._table.state_names[self._store.states[slot] // self._width]

    def actions_since(self, key: str, start: int = 0) -> tuple[str, ...]:
        """The instance's actions from index ``start`` onward, in fire order.

        The incremental form of :meth:`trace` for observers that poll
        after every batch (the scenario plane routes each *new* action
        once): callers remember the count they have seen and pass it as
        ``start``, a non-negative int.  Requires a retained log —
        ``naive`` backends always have one; table modes need
        ``log_policy='full'``.
        """
        store = self._store
        slot = store.slot(key)
        check_count(start, "start")
        if self._mode == "naive":
            return tuple(store.backends[slot].sent[start:])
        if self._log_policy != "full":
            raise DeploymentError(
                f"log_policy {self._log_policy!r} does not retain action "
                "logs; actions_since needs log_policy='full'"
            )
        out: list[str] = []
        skip = start
        for chunk in store.logs[slot]:
            if skip >= len(chunk):
                skip -= len(chunk)
                continue
            out.extend(chunk[skip:] if skip else chunk)
            skip = 0
        return tuple(out)

    def trace(self, key: str) -> InstanceSnapshot:
        """The instance's current state name and full action log."""
        store = self._store
        slot = store.slot(key)
        if self._mode == "naive":
            instance = store.backends[slot]
            return InstanceSnapshot(key, instance.get_state(), tuple(instance.sent))
        if self._log_policy != "full":
            raise DeploymentError(
                f"log_policy {self._log_policy!r} does not retain action "
                "logs; traces and snapshots need log_policy='full'"
            )
        return InstanceSnapshot(
            key,
            self._table.state_names[store.states[slot] // self._width],
            tuple(action for chunk in store.logs[slot] for action in chunk),
        )

    def is_finished(self, key: str) -> bool:
        """Whether the instance has reached a final state."""
        slot = self._store.slot(key)
        if self._mode == "naive":
            return self._store.backends[slot].is_finished()
        return self._final[self._store.states[slot] // self._width]

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------

    def _intern(self, events):
        """``(slots, cols, rejected)`` — the one walk from strings to ints.

        Keys resolve through the store's intern table and messages
        through the IR's message index into two parallel id lists, with
        no per-event tuple or call.  Bad events (an unknown or unhashable
        instance or message) are collected, not raised: the valid remainder
        still interns, so callers can dispatch it before rejecting.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        slot_of = self._store.slot_of
        columns = self._columns
        try:
            return (
                [slot_of[key] for key, _ in events],
                [columns[message] for _, message in events],
                (),
            )
        except (KeyError, TypeError):
            # Walk again only to name the offenders; a non-pair raises again.
            valid: list[tuple[str, str]] = []
            rejected: list[tuple[str, str]] = []
            for key, message in events:
                ok = known(key, slot_of) and known(message, columns)
                (valid if ok else rejected).append((key, message))
            slots, cols, _ = self._intern(valid)
            return slots, cols, rejected

    def encode_flat(self, events) -> array:
        """Intern events to a flat ``[slot, col, slot, col, ...]`` array.

        The one pre-encoded schedule form: keys and messages resolve
        exactly once, into one machine-int buffer — O(1) objects, not
        O(events), to build, keep and discard, at 16 bytes per event,
        which is what lets the scenario wheel keep one per future
        instant — and ``run(flat, encoding="flat")`` downstream never
        touches a string.
        Slot ids are fleet-specific: encode against the fleet that will
        run the schedule.  Unknown keys or messages raise one
        :class:`~repro.core.errors.DeploymentError` naming them.

        A ``vector`` fleet returns a
        :class:`~repro.serve.vector.VectorSchedule` instead of the raw
        buffer: the interned columns go straight into numpy and the
        batch's per-instance ordering rounds are computed here, at encode
        time, so repeated runs of the schedule pay only the
        gather/scatter.  It holds O(1) arrays in compact dtypes — 5 bytes
        per event below 65 536 instances, 256 messages and 65 536 events.
        The schedule rebuilds the flat buffer on each read of ``.flat``
        (it keeps no copy), and ``run`` accepts it anywhere a flat array
        is accepted — on a scalar fleet too.
        """
        slots, cols, rejected = self._intern(events)
        if rejected:
            raise_rejected(rejected)
        if self._kernel is not None:
            return VectorSchedule.of_columns(slots, cols)
        flat = array("q", bytes(16 * len(slots)))
        flat[0::2] = array("q", slots)
        flat[1::2] = array("q", cols)
        return flat

    def post(
        self,
        key: str,
        message: str,
        source: Optional[str] = None,
        trace_id: Optional[int] = None,
    ) -> bool:
        """Queue one event for the next drain; always ``True``.

        The event is interned here and its ``slot, column`` pair appended
        to the pending flat schedule, so an unknown key or message raises
        at intake, in every mode.  The queue is unbounded: the next
        :meth:`drain_all` dispatches every accepted event.

        With tracing attached, the event gets a trace id — minted here,
        or the caller-propagated ``trace_id`` when the event already has
        one (the scenario plane mints at schedule time) — and a ``post``
        record whose detail is ``source``, the enqueue's provenance (the
        scenario plane marks timed and routed traffic).
        """
        try:
            slot = self._store.slot_of[key]
        except (KeyError, TypeError):
            raise DeploymentError(f"unknown instance {key!r}") from None
        try:
            col = self._columns[message]
        except (KeyError, TypeError):
            raise DeploymentError(f"unknown message {message!r}") from None
        queue = self._queue
        queue.append(slot)
        queue.append(col)
        self._count.events_offered.value += 1
        telemetry = self._telemetry
        if telemetry is not None:
            now = perf_counter()
            self._post_times.append(now)
            trace = telemetry.trace
            if trace is not None:
                if trace_id is None:
                    trace_id = trace.mint()
                trace.record(
                    trace_id, now, "post", key=key, message=message, detail=source
                )
        return True

    def deliver(self, key: str, message: str) -> bool:
        """Dispatch one event immediately, bypassing the queue.

        This is the per-event path — full routing, dispatch and metrics
        accounting for a single event; in ``naive`` mode one complete
        backend protocol walk.  Returns whether a transition fired.  An
        unknown instance and an unknown message both raise
        :class:`~repro.core.errors.DeploymentError`, whatever the mode
        or backend.  The one-event form of :meth:`_run_pairs`, kept
        apart because a gateway calls it once per request.
        """
        store = self._store
        slot = store.slot(key)
        try:
            offset = self._columns[message]
        except (KeyError, TypeError):
            raise DeploymentError(f"unknown message {message!r}") from None
        counted = self._count
        counted.events_dispatched.value += 1
        if self._mode == "naive":
            instance = store.backends[slot]
            if not instance.receive(message):
                counted.events_ignored.value += 1
                return False
            if self._auto_recycle and instance.is_finished():
                instance.reset()
                counted.instances_recycled.value += 1
            counted.transitions_fired.value += 1
            return True
        offset += store.states[slot]
        next_state = self._jump[offset]
        if next_state < 0:
            counted.events_ignored.value += 1
            return False
        acts = self._acts[offset]
        if acts is None:
            if self._log_policy == "full":
                store.logs[slot].clear()
            counted.instances_recycled.value += 1
        elif acts:
            store.logs[slot].append(acts)
        store.states[slot] = next_state
        counted.transitions_fired.value += 1
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _batch_of(self, flat):
        """A trusted flat schedule in the form :meth:`_dispatch` runs.

        The vector kernel runs a :class:`~repro.serve.vector.VectorSchedule`;
        every other mode walks ``(slot, column)`` pairs formed inside
        ``zip``, whose result tuple the interpreter recycles, so the
        scalar loop neither allocates nor frees anything per event.
        """
        if self._kernel is not None:
            return flat if isinstance(flat, VectorSchedule) else VectorSchedule(flat)
        if isinstance(flat, VectorSchedule):
            flat = flat.flat
        it = iter(flat)
        return zip(it, it)

    def _checked_flat(self, events) -> array:
        """An untrusted flat schedule as the ``array('q')`` dispatch runs.

        Only what :meth:`encode_flat` and :meth:`post` build — an
        ``array('q')`` or a :class:`~repro.serve.vector.VectorSchedule` —
        reaches dispatch unchecked.  Anything else (a list, an array of
        another typecode) is converted here and refused with one
        :class:`~repro.core.errors.DeploymentError`, before anything is
        counted or dispatched, unless it holds whole pairs of ints, each
        a slot of this store and a column of this machine.  Three C
        passes per column; no Python loop.
        """
        try:
            flat = array("q", events)
        except (TypeError, OverflowError) as exc:
            raise DeploymentError(f"{_NOT_A_SCHEDULE}{exc}") from None
        _flat_count(flat)
        for name, ids, bound in (
            ("slot", flat[0::2], len(self._store.key_of)),
            ("column", flat[1::2], self._width),
        ):
            if ids and not 0 <= min(ids) <= max(ids) < bound:
                bad = min(ids) if min(ids) < 0 else max(ids)
                raise DeploymentError(
                    f"{_NOT_A_SCHEDULE}{name} {bad} is outside [0, {bound})"
                )
        return flat

    def _dispatch(self, batch, count: int) -> float:
        """The one dispatch tail of :meth:`run` and :meth:`drain_all`.

        Hands the batch of ``count`` events to the vector kernel or the
        scalar loop, counts it from the ``(ignored, recycled)`` tally
        either returns and, with telemetry attached, observes its size
        and wall time.  Returns the clock at dispatch start (``0.0``
        without telemetry), from which a drain measures queue waits.
        """
        telemetry = self._telemetry
        started = 0.0 if telemetry is None else perf_counter()
        if self._kernel is not None:
            ignored, recycled = self._kernel.dispatch(batch)
        else:
            ignored, recycled = self._run_pairs(batch)
        if telemetry is not None:
            telemetry.observe_batch(count, perf_counter() - started)
        counted = self._count
        counted.batches_drained.value += 1
        counted.events_dispatched.value += count
        counted.transitions_fired.value += count - ignored
        counted.events_ignored.value += ignored
        counted.instances_recycled.value += recycled
        return started

    def _run_pairs(self, pairs) -> tuple[int, int]:
        """The scalar hot loop over trusted ``(slot, column)`` pairs;
        returns ``(ignored, recycled)``.

        Pairs are interned (by :meth:`post`, :meth:`_intern` or
        :meth:`encode_flat`), so there is no error path inside the
        loops; ``pairs`` may be a one-shot iterable.  ``naive`` walks
        each instance's backend object; the table modes do pure int
        arithmetic on two flat arrays, in one loop for both log policies:
        under ``off`` the acts table holds no action to append and the
        log column is a shared empty list, so the same body mutates no
        log.
        """
        store = self._store
        ignored = 0
        recycled = 0
        if self._mode == "naive":
            backends = store.backends
            messages = self._messages
            auto = self._auto_recycle
            for slot, col in pairs:
                instance = backends[slot]
                if instance.receive(messages[col]):
                    if auto and instance.is_finished():
                        instance.reset()
                        recycled += 1
                else:
                    ignored += 1
        else:
            states = store.states
            jump = self._jump
            acts_table = self._acts
            logs = store.logs if self._log_policy == "full" else _UNLOGGED
            for slot, col in pairs:
                offset = states[slot] + col
                next_state = jump[offset]
                if next_state >= 0:
                    acts = acts_table[offset]
                    if acts:
                        logs[slot].append(acts)
                    elif acts is None:
                        logs[slot].clear()
                        recycled += 1
                    states[slot] = next_state
                else:
                    ignored += 1
        return ignored, recycled

    def _discard_pending(self) -> None:
        """Drop every queued event with its post stamps (restore, rehydrate)."""
        self._queue = array("q")
        #: post() timestamps, parallel to the queued pairs; only stamped
        #: when telemetry is attached, consumed at drain.
        self._post_times: list[float] = []

    def drain_all(self) -> int:
        """Dispatch every queued event, in arrival order, as one batch
        through the tail of ``run(flat)``; returns how many.

        The batch's depth lands in the depth gauges, so
        ``metrics.shard_depths`` / ``peak_shard_depth`` are live without
        caller polling.  With telemetry attached the pass is wall-clocked
        (two clock reads per batch) and every drained event's queue wait
        lands in ``fleet_queue_latency_seconds``.
        """
        queue = self._queue
        if not queue:
            return 0
        self._queue = array("q")
        count = len(queue) // 2
        self._depths.drained(0, count)
        started = self._dispatch(self._batch_of(queue), count)
        if self._telemetry is not None:
            times = self._post_times
            self._post_times = []
            observe = self._telemetry.queue_latency.observe
            for stamp in times:
                observe(started - stamp)
        return count

    def run(self, events, encoding: str = "auto") -> FleetMetrics:
        """Feed a whole workload through the engine — the one entry point.

        ``encoding`` names what ``events`` carries:

        * ``"events"`` — ``(key, message)`` string pairs.
        * ``"flat"`` — a flat ``[slot, col, slot, col, ...]`` int array
          (or a :class:`~repro.serve.vector.VectorSchedule`) from
          :meth:`encode_flat`; slot ids are fleet-specific.  Only
          ``encode_flat``'s forms — an ``array('q')`` or a
          ``VectorSchedule`` — are trusted; a list or an array of any
          other typecode is checked whole first.  A buffer of odd length
          (a slot with no column), of anything but ints, or naming a
          slot or column this fleet does not have is refused before
          anything is counted or runs.
        * ``"auto"`` (default) — sniff the batch: a flat int ``array``
          or a ``VectorSchedule`` dispatches as ``flat``, everything
          else as ``events``.

        Every path first drains anything already queued (FIFO with
        previously posted traffic), then dispatches ``events`` as one
        arrival batch through the same tail as a drain.  Bad string
        events (unknown instance or message) are collected and raised
        after the valid traffic dispatched.
        """
        if encoding not in ENCODINGS:
            raise DeploymentError(
                f"unknown encoding {encoding!r}; choose from {ENCODINGS}"
            )
        pre_encoded = isinstance(events, (array, VectorSchedule))
        if pre_encoded and encoding == "events":
            raise DeploymentError(_SCHEDULE_AS_EVENTS)
        rejected = ()
        if encoding == "flat" or pre_encoded:
            if isinstance(events, VectorSchedule):
                count = events.count
            elif isinstance(events, array) and events.typecode == "q":
                count = _flat_count(events)
            else:
                events = self._checked_flat(events)
                count = len(events) // 2
            self.drain_all()
            batch = self._batch_of(events) if count else ()
        else:
            if not isinstance(events, (list, tuple)):
                events = list(events)
            self.drain_all()
            # Intern before counting: a batch that raises here (a
            # non-pair) was never offered, and a rejected event is not
            # accepted for dispatch.
            slots, cols, rejected = self._intern(events)
            count = len(slots)
            batch = (
                zip(slots, cols)
                if self._kernel is None
                else VectorSchedule.of_columns(slots, cols)
            )
        if count:
            self._count.events_offered.value += count
            self._dispatch(batch, count)
        if rejected:
            raise_rejected(rejected)
        return self.metrics

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self, allow_partial: bool = False) -> FleetSnapshot:
        """Capture every instance's state, in spawn order, after a drain.

        ``allow_partial`` is accepted for protocol uniformity with the
        multiprocess fleet; an in-process engine cannot lose a
        partition, so its snapshots are always whole.
        """
        self.drain_all()
        instances = tuple(self.trace(key) for key in self._store.keys())
        self._count.snapshots_taken.value += 1
        return FleetSnapshot(machine_name=self._machine.name, instances=instances)

    def restore(
        self, snapshot: FleetSnapshot, allow_partial: bool = False
    ) -> None:
        """Rebuild the instance population from a snapshot.

        All or nothing: the whole snapshot is checked first
        (:func:`resolve_snapshot` — same machine, unique string keys,
        known states, string actions), and a bad one raises
        :class:`~repro.core.errors.DeploymentError` with the current
        population untouched.  Otherwise the current population —
        including any free slots accumulated by :meth:`despawn` — and any
        still-queued events are discarded, and the snapshot's instances
        are interned afresh in snapshot order, so per-key traces survive
        whatever spawn order and slot layout the source fleet had.
        Snapshots taken from an unoptimized fleet restore into an
        optimized one of the same machine: state names resolve through
        ``state_map``, so an instance parked in a merged-away state lands
        on the state that represents it.
        """
        self._load(snapshot, allow_partial)
        self._count.snapshots_restored.value += 1

    def _load(self, snapshot: FleetSnapshot, allow_partial: bool = False) -> None:
        """:meth:`restore` uncounted: a multiprocess worker's share of a
        fleet-wide restore, which its parent counts once."""
        states = resolve_snapshot(
            snapshot,
            self._machine.name,
            self._table.state_index,
            self.state_map,
            allow_partial,
        )
        self._discard_pending()
        store = self._store
        store.clear()
        adapter = self._adapter
        state_index = self._table.state_index
        full = self._log_policy == "full"
        for inst, state in zip(snapshot.instances, states):
            if adapter is not None:
                backend = adapter.new_instance()
                store.spawn(inst.key, backend)
                adapter.restore_instance(backend, state, inst.actions)
                continue
            slot = store.spawn(inst.key)
            store.states[slot] = state_index[state] * self._width
            if full:
                store.logs[slot] = [tuple(inst.actions)] if inst.actions else []
