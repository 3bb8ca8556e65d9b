"""Journal, checkpoint and supervision primitives for partition recovery.

The multiprocess fleet loses a whole shard partition when its worker
process dies; this module supplies the pieces that make that loss
*temporary*.  The design splits cleanly across the process boundary:

Parent side
    :class:`WorkerJournal` — a write-ahead log of the exact wire request
    tuples sent to one worker since its last checkpoint.  Bulk dispatch
    journals *before* fan-out (the entry is the same flat ``array('q')``
    buffer that crosses the pipe, so journaling costs one list append on
    the hot path); lifecycle operations journal *after* their reply
    (their effect died with the worker when no reply came, so a caller
    retry after recovery is exactly-once).  Replaying checkpoint +
    journal against a fresh worker therefore applies every acknowledged
    operation exactly once.

Worker side
    :func:`partition_checkpoint` / :func:`rehydrate` — capture and
    rebuild a partition at its *exact* slot layout: occupied slots in
    order, plus the free-list stack.  Layout-exactness is what makes the
    journal replayable verbatim (slot ids in journaled flat buffers stay
    valid) and keeps pre-encoded
    :class:`~repro.serve.mpfleet.EncodedFleetSchedule` objects usable
    across a recovery — slot assignment in the store is a deterministic
    function of (layout, operation sequence).

Shared
    :class:`FleetRecoveringError` — the transient flavour of
    :class:`~repro.core.errors.DeploymentError` raised while a partition
    is rehydrating; it carries a ``retry_after`` hint the gateway turns
    into ``503 + Retry-After``.  :class:`RecoveryPolicy` bounds the
    respawn retry/backoff loop, and :class:`RecoveryTelemetry` is the
    observability plane: MTTR histogram, restart/replay/checkpoint
    counters and die→respawn→replay→resume trace causality, all built on
    the existing :mod:`repro.obs` instruments.

The supervisor loop itself lives in
:class:`~repro.serve.mpfleet.MultiprocessFleet` (it owns the worker
handles and the population map); this module never imports ``mpfleet``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.core.errors import DeploymentError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceLog
from repro.serve.metrics import FleetMetrics

__all__ = [
    "FleetRecoveringError",
    "PartitionCheckpoint",
    "RecoveryPolicy",
    "RecoveryTelemetry",
    "WorkerJournal",
    "combine_metrics",
    "partition_checkpoint",
    "rehydrate",
]


class FleetRecoveringError(DeploymentError):
    """A partition is being rehydrated; retry shortly.

    Subclasses :class:`DeploymentError` so existing handlers keep
    working, but carries enough structure (``worker_id``,
    ``retry_after``) for callers that want to degrade gracefully instead
    of failing — the gateway maps this to ``503`` with a ``Retry-After``
    header, and programmatic callers can block on
    :meth:`~repro.serve.mpfleet.MultiprocessFleet.await_recovery`.
    """

    def __init__(self, message: str, *, worker_id: int, retry_after: float):
        super().__init__(message)
        self.worker_id = worker_id
        self.retry_after = retry_after


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounds for the supervisor's respawn loop."""

    #: Respawn attempts per death before the partition is declared lost.
    max_restarts: int = 3
    #: Delay before the first respawn attempt (seconds).
    backoff_s: float = 0.05
    #: Multiplier applied to the delay after each failed attempt.
    backoff_factor: float = 2.0
    #: ``Retry-After`` hint carried by :class:`FleetRecoveringError`.
    retry_after_s: float = 1.0


@dataclass(frozen=True)
class PartitionCheckpoint:
    """A worker partition frozen at its exact slot layout, columnar.

    Column ``i`` describes slot ``i``: ``keys[i]`` is the session key
    (``None`` when the slot was on the free list), ``states[i]`` its
    state name (``""`` for free slots) and ``actions[i]`` the retained
    action log (present under ``log_policy='full'`` and for naive
    backends); ``free`` is the free-list stack bottom-to-top.  The layout is
    columnar rather than one record object per slot because checkpoints
    cross the worker pipe on the dispatch clock: flat tuples pickle as
    memoized strings instead of thousands of per-slot object
    reconstructions, which keeps the cadence tax on hot-path throughput
    near zero.

    The parent attaches the worker's *effective* metrics and telemetry
    registry at capture time — they become the restart baseline of the
    next incarnation, so merged fleet counters stay monotonic across a
    die→respawn cycle.
    """

    keys: tuple[Optional[str], ...] = ()
    states: tuple[str, ...] = ()
    actions: tuple[tuple[str, ...], ...] = ()
    free: tuple[int, ...] = ()
    metrics: FleetMetrics = field(default_factory=FleetMetrics)
    registry: Optional[MetricsRegistry] = None


class WorkerJournal:
    """Write-ahead log of one worker's wire traffic since its checkpoint.

    Entries are ``(request_tuple, event_count)`` pairs holding the exact
    tuples sent over the pipe — for bulk dispatch that is a reference to
    the already-interned flat buffer, so the hot-path cost is one
    append.  ``events`` counts journaled dispatch events since the last
    checkpoint; the owning fleet checkpoints (and truncates) when it
    crosses ``checkpoint_every``.
    """

    __slots__ = ("checkpoint", "ops", "events")

    def __init__(self, checkpoint: Optional[PartitionCheckpoint] = None):
        self.checkpoint = checkpoint if checkpoint is not None else PartitionCheckpoint()
        self.ops: list[tuple[tuple, int]] = []
        self.events = 0

    def append(self, request: tuple, events: int = 0) -> None:
        self.ops.append((request, events))
        self.events += events

    def truncate(self, checkpoint: PartitionCheckpoint) -> None:
        """Install a fresh checkpoint; everything before it is obsolete."""
        self.checkpoint = checkpoint
        self.ops = []
        self.events = 0


def combine_metrics(base: FleetMetrics, fresh: FleetMetrics) -> FleetMetrics:
    """A worker's effective counters: restart baseline + this incarnation.

    Unlike :meth:`FleetMetrics.merge` (which *concatenates*
    ``shard_depths`` because each worker owns disjoint shards), both
    operands here describe the *same* partition at different times:
    counters add, the depth gauge takes the fresher observation, the
    peak takes the maximum.
    """
    merged = FleetMetrics()
    merged.merge(base)
    merged.shard_depths = []
    merged.peak_shard_depth = 0
    merged.merge(fresh)
    merged.shard_depths = list(fresh.shard_depths or base.shard_depths)
    merged.peak_shard_depth = max(base.peak_shard_depth, fresh.peak_shard_depth)
    return merged


def combine_registries(
    base: Optional[MetricsRegistry], fresh: Optional[MetricsRegistry]
) -> Optional[MetricsRegistry]:
    """Effective telemetry registry of one worker across restarts."""
    if base is None and fresh is None:
        return None
    merged = MetricsRegistry()
    if base is not None:
        merged.merge(base)
    if fresh is not None:
        merged.merge(fresh)
    return merged


# ---------------------------------------------------------------------------
# worker-side capture / rebuild (runs inside the worker process)
# ---------------------------------------------------------------------------


def partition_checkpoint(engine) -> PartitionCheckpoint:
    """Freeze a worker engine's partition at its exact slot layout.

    Unlike :meth:`FleetEngine.snapshot` this works under every log
    policy (capturing whatever the store retains), preserves slot
    numbering and the free-list stack, and deliberately does *not* count
    as a user-visible snapshot in the metrics — checkpoints are
    infrastructure, and a supervised fleet must report the same counters
    as an unsupervised twin.
    """
    store = engine._store
    keys = tuple(store.key_of)
    free = tuple(store.free_slots)
    if engine.mode == "naive":
        states = []
        actions = []
        for slot, key in enumerate(keys):
            if key is None:
                states.append("")
                actions.append(())
            else:
                backend = store.backends[slot]
                states.append(backend.get_state())
                actions.append(tuple(backend.sent))
        return PartitionCheckpoint(
            keys=keys, states=tuple(states), actions=tuple(actions), free=free
        )
    names = engine._table.state_names
    width = engine._width
    packed = store.states
    states = tuple(
        "" if key is None else names[packed[slot] // width]
        for slot, key in enumerate(keys)
    )
    if engine.log_policy != "full":
        return PartitionCheckpoint(keys=keys, states=states, free=free)
    logs = store.logs
    actions = tuple(
        ()
        if key is None
        else tuple(action for chunk in logs[slot] for action in chunk)
        for slot, key in enumerate(keys)
    )
    return PartitionCheckpoint(keys=keys, states=states, actions=actions, free=free)


def rehydrate(engine, checkpoint: PartitionCheckpoint) -> None:
    """Rebuild a fresh worker engine at a checkpoint's exact layout.

    Occupied slots are respawned in slot order, free slots are filled
    with placeholders and released in recorded stack order — afterwards
    ``store.free_slots == checkpoint.free`` and every key sits at its
    original slot, so journaled flat schedules (and future spawns, which
    pop the same stack) replay verbatim.  Metrics are deliberately left
    untouched: the parent accounts for pre-checkpoint history via the
    restart baseline, and journal replay re-counts the rest.
    """
    store = engine._store
    adapter = engine._adapter
    naive = engine.mode == "naive"
    full = engine.log_policy == "full"
    state_index = engine._table.state_index
    width = engine._width
    for mailbox in engine._mailboxes:
        mailbox.drain()
    store.clear()
    states = checkpoint.states
    actions_col = checkpoint.actions
    for slot, key in enumerate(checkpoint.keys):
        backend = adapter.new_instance() if adapter is not None else None
        if key is None:
            spawned = store.spawn(f"\x00rehydrate-free-{slot}", backend)
        else:
            spawned = store.spawn(key, backend)
        if spawned != slot:
            raise DeploymentError(
                f"rehydrate layout drift: slot {slot} spawned as {spawned}"
            )
        if key is None:
            continue
        state = states[slot]
        if naive:
            adapter.restore_instance(
                backend, state, actions_col[slot] if actions_col else ()
            )
            continue
        if state not in state_index:
            raise DeploymentError(
                f"checkpoint state {state!r} does not exist in "
                f"machine {engine.machine.name!r}"
            )
        store.states[slot] = state_index[state] * width
        if full:
            actions = actions_col[slot] if actions_col else ()
            store.logs[slot] = [actions] if actions else []
    for slot in checkpoint.free:
        placeholder = store.key_of[slot]
        if placeholder is None or not placeholder.startswith("\x00rehydrate-free-"):
            raise DeploymentError(
                f"rehydrate layout drift: slot {slot} is not free in the "
                "checkpoint layout"
            )
        store.release(placeholder)


# ---------------------------------------------------------------------------
# recovery observability (parent side)
# ---------------------------------------------------------------------------


class RecoveryTelemetry:
    """The supervisor's observability plane, on stock obs instruments.

    One registry (restart/replay/checkpoint counters, a
    ``workers_recovering`` gauge and the MTTR histogram
    ``fleet_recovery_seconds``) plus one :class:`TraceLog` whose records
    chain die→respawn→replay→resume under the death's trace id, so one
    ``trace_event(tid)`` read reconstructs the whole incident.
    """

    def __init__(self, trace_capacity: int = 4096):
        self.registry = MetricsRegistry()
        self.trace = TraceLog(capacity=trace_capacity)
        self._restarts = self.registry.counter(
            "fleet_worker_restarts_total",
            "worker processes respawned by the supervisor",
        )
        self._replayed = self.registry.counter(
            "fleet_events_replayed_total",
            "journaled events replayed into respawned workers",
        )
        self._checkpoints = self.registry.counter(
            "fleet_checkpoints_total", "partition checkpoints taken"
        )
        self._failures = self.registry.counter(
            "fleet_recovery_failures_total",
            "recoveries abandoned after exhausting the restart policy",
        )
        self._recovering = self.registry.gauge(
            "fleet_workers_recovering", "workers currently rehydrating"
        )
        self._mttr = self.registry.histogram(
            "fleet_recovery_seconds",
            "worker death to resumed service (MTTR)",
        )

    def worker_died(self, wid: int, recovering: int) -> int:
        """Record a death; returns the incident's trace id."""
        tid = self.trace.mint()
        self._recovering.set(recovering)
        self.trace.record(
            tid, perf_counter(), "worker_die", detail=f"worker={wid}"
        )
        return tid

    def respawned(self, tid: int, wid: int, attempt: int) -> None:
        self._restarts.add()
        self.trace.record(
            tid,
            perf_counter(),
            "worker_respawn",
            parent_id=tid,
            detail=f"worker={wid} attempt={attempt}",
        )

    def replayed(self, tid: int, wid: int, ops: int, events: int) -> None:
        self._replayed.add(events)
        self.trace.record(
            tid,
            perf_counter(),
            "worker_replay",
            parent_id=tid,
            detail=f"worker={wid} ops={ops} events={events}",
        )

    def resumed(self, tid: int, wid: int, mttr_s: float, recovering: int) -> None:
        self._mttr.observe(mttr_s)
        self._recovering.set(recovering)
        self.trace.record(
            tid,
            perf_counter(),
            "worker_resume",
            parent_id=tid,
            detail=f"worker={wid} mttr_s={mttr_s:.6f}",
        )

    def failed(self, tid: int, wid: int, reason: str, recovering: int) -> None:
        self._failures.add()
        self._recovering.set(recovering)
        self.trace.record(
            tid,
            perf_counter(),
            "worker_lost",
            parent_id=tid,
            detail=f"worker={wid}: {reason}",
        )

    def checkpointed(self, wid: int) -> None:
        self._checkpoints.add()
