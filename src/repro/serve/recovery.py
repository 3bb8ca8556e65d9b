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
    function of (layout, operation sequence).  A checkpoint is one
    ``bytes`` blob of the store's raw columns (slot keys, free list,
    premultiplied states, logs as stored) and the partition's registry —
    its counters, gauges and histograms — built where they live and read
    only by the next incarnation: checkpoints cross the pipe on the
    dispatch clock, so neither side re-keys slots by state name and the
    parent, which only journals the blob, never unpickles it.

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

from array import array
from dataclasses import dataclass
from time import perf_counter

from repro.core.errors import DeploymentError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceLog

__all__ = [
    "FleetRecoveringError",
    "RecoveryPolicy",
    "RecoveryTelemetry",
    "WorkerJournal",
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


class WorkerJournal:
    """Write-ahead log of one worker's wire traffic since its checkpoint.

    ``checkpoint`` is :func:`partition_checkpoint`'s blob exactly as it
    came off the pipe — the parent never unpickles it, it hands the
    bytes to the next incarnation's :func:`rehydrate`; ``b""`` is the
    empty partition every worker starts with.  Entries are
    ``(request_tuple, event_count)`` pairs holding the exact
    tuples sent over the pipe — for bulk dispatch that is a reference to
    the already-interned flat buffer, so the hot-path cost is one
    append.  ``events`` counts journaled dispatch events since the last
    checkpoint; the owning fleet checkpoints (and truncates) when it
    crosses ``checkpoint_every``.
    """

    __slots__ = ("checkpoint", "ops", "events")

    def __init__(self):
        self.checkpoint = b""
        self.ops: list[tuple[tuple, int]] = []
        self.events = 0

    def append(self, request: tuple, events: int = 0) -> None:
        self.ops.append((request, events))
        self.events += events

    def truncate(self, checkpoint: bytes) -> None:
        """Install a fresh checkpoint; everything before it is obsolete."""
        self.checkpoint = checkpoint
        self.ops = []
        self.events = 0


# ---------------------------------------------------------------------------
# worker-side capture / rebuild (runs inside the worker process)
# ---------------------------------------------------------------------------


def partition_checkpoint(engine) -> bytes:
    """Freeze a worker engine's partition at its exact slot layout.

    The result is one opaque blob, the store's raw columns pickled once:
    ``key_of`` (``None`` on free slots), the free-list stack and the
    premultiplied states as ``array('q')`` (on a vector fleet, the live
    prefix of the numpy column), and the logs as stored (``None`` under
    ``log_policy='off'``).  A naive fleet's states and logs are read from
    its backends into the same container.  The engine's registry rides
    along: its counters and histograms are partition state, so the next
    incarnation resumes counting where this one stood.

    Unlike :meth:`FleetEngine.snapshot` this works under every log
    policy, preserves slot numbering and the free-list stack, and
    deliberately does *not* count as a user-visible snapshot in the
    metrics — a supervised fleet must report the same counters as an
    unsupervised twin.
    """
    import pickle  # worker side only: an in-process gateway never loads it

    store = engine._store
    states = store.states
    logs = store.logs if engine.log_policy == "full" else None
    if engine.mode == "naive":
        index = engine._table.state_index
        width = engine._width
        backends = store.backends
        states = [0 if b is None else index[b.get_state()] * width for b in backends]
        logs = [None if b is None else b.sent for b in backends]
    elif store.vector:
        states = states.data[: states.size].tobytes()
    layout = (
        store.key_of,
        array("q", store.free_slots),
        array("q", states),
        logs,
        engine.telemetry_registry(),
    )
    return pickle.dumps(layout, pickle.HIGHEST_PROTOCOL)


def rehydrate(engine, blob: bytes) -> None:
    """Rebuild a fresh worker engine at a checkpoint blob's exact layout.

    The blob is checked before the store is touched: it must unpickle to
    the columns of one layout and a registry, and every state must be in
    range and a multiple of the table width, else
    :class:`~repro.core.errors.DeploymentError`.
    Occupied slots are then respawned in slot order, free slots are
    filled with placeholders and released in recorded stack order, so
    every key sits at its original slot and journaled flat schedules
    (and future spawns, which pop the same stack) replay verbatim.
    Finally the checkpoint's registry merges into the engine's — a fresh
    incarnation's has counted nothing yet — so journal replay counts on
    from the checkpoint, as the dead incarnation did.
    """
    import pickle

    naive = engine.mode == "naive"
    logged = naive or engine.log_policy == "full"
    try:
        key_of, free, states, logs, registry = pickle.loads(blob)
        if len(states) != len(key_of) or (logs is not None) != logged:
            raise ValueError("columns do not describe one layout")
        if logged and len(logs) != len(key_of):
            raise ValueError("log column does not describe the layout")
        if not isinstance(registry, MetricsRegistry):
            raise ValueError("registry slot holds no MetricsRegistry")
    except Exception as exc:  # corrupt pickle bytes can raise almost anything
        raise DeploymentError(f"corrupt partition checkpoint: {exc!r}") from None
    width = engine._width
    names = engine._table.state_names
    for state in set(states):
        if not 0 <= state < len(names) * width or state % width:
            raise DeploymentError(
                f"corrupt partition checkpoint: state {state} is not a "
                f"premultiplied state of machine {engine.machine.name!r}"
            )
    store = engine._store
    adapter = engine._adapter
    engine._discard_pending()
    store.clear()
    for slot, key in enumerate(key_of):
        backend = adapter.new_instance() if adapter is not None else None
        placeholder = f"\x00rehydrate-free-{slot}"
        spawned = store.spawn(placeholder if key is None else key, backend)
        if spawned != slot:
            raise DeploymentError(
                f"rehydrate layout drift: slot {slot} spawned as {spawned}"
            )
        if key is None:
            continue
        if naive:
            adapter.restore_instance(backend, names[states[slot] // width], logs[slot])
            continue
        store.states[slot] = states[slot]
        if logs is not None:
            store.logs[slot] = logs[slot]
    for slot in free:
        placeholder = store.key_of[slot]
        if placeholder is None or not placeholder.startswith("\x00rehydrate-free-"):
            raise DeploymentError(
                f"rehydrate layout drift: slot {slot} is not free in the "
                "checkpoint layout"
            )
        store.release(placeholder)
    engine.telemetry_registry().merge(registry)


# ---------------------------------------------------------------------------
# recovery observability (parent side)
# ---------------------------------------------------------------------------


class RecoveryTelemetry:
    """The supervisor's observability plane, on stock obs instruments.

    Restart/replay/checkpoint counters, a ``workers_recovering`` gauge
    and the MTTR histogram ``fleet_recovery_seconds``, declared in the
    supervised fleet's own registry, plus one :class:`TraceLog` whose
    records chain die→respawn→replay→resume under the death's trace id,
    so one ``trace_event(tid)`` read reconstructs the whole incident.
    """

    def __init__(self, registry: MetricsRegistry, trace_capacity: int = 4096):
        self.trace = TraceLog(capacity=trace_capacity)
        self._restarts = registry.counter(
            "fleet_worker_restarts_total",
            "worker processes respawned by the supervisor",
        )
        self._replayed = registry.counter(
            "fleet_events_replayed_total",
            "journaled events replayed into respawned workers",
        )
        self._checkpoints = registry.counter(
            "fleet_checkpoints_total", "partition checkpoints taken"
        )
        self._failures = registry.counter(
            "fleet_recovery_failures_total",
            "recoveries abandoned after exhausting the restart policy",
        )
        self._recovering = registry.gauge(
            "fleet_workers_recovering", "workers currently rehydrating"
        )
        self._mttr = registry.histogram(
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

    def _chain(self, tid: int, kind: str, detail: str) -> None:
        """One incident record, chained under the death's trace id."""
        self.trace.record(tid, perf_counter(), kind, parent_id=tid, detail=detail)

    def respawned(self, tid: int, wid: int, attempt: int) -> None:
        self._restarts.add()
        self._chain(tid, "worker_respawn", f"worker={wid} attempt={attempt}")

    def replayed(self, tid: int, wid: int, ops: int, events: int) -> None:
        self._replayed.add(events)
        self._chain(tid, "worker_replay", f"worker={wid} ops={ops} events={events}")

    def resumed(self, tid: int, wid: int, mttr_s: float, recovering: int) -> None:
        self._mttr.observe(mttr_s)
        self._recovering.set(recovering)
        self._chain(tid, "worker_resume", f"worker={wid} mttr_s={mttr_s:.6f}")

    def failed(self, tid: int, wid: int, reason: str, recovering: int) -> None:
        self._failures.add()
        self._recovering.set(recovering)
        self._chain(tid, "worker_lost", f"worker={wid}: {reason}")

    def checkpointed(self, wid: int) -> None:
        self._checkpoints.add()
