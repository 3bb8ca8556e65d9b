"""Process-parallel fleet: key partitions pinned to worker processes.

Every dispatch plane built so far runs on one CPU core; this module is
the scale-out step, and the fleet's one partition layer.  A
:class:`MultiprocessFleet` partitions the session key space across ``N``
worker processes by a stable CRC-32 bucket
(:func:`~repro.serve.store.shard_of` over the worker count), so one key
always lives in exactly one worker and per-key event order is preserved
end to end.  Each worker owns a full private
:class:`~repro.serve.fleet.FleetEngine` — one partition's columnar
:class:`~repro.serve.store.InstanceStore` — so nothing is shared
between processes.

The wire protocol is deliberately small.  Parent and worker speak
request tuples ``(op, *operands)`` and replies ``(status, payload,
counts)`` through a :class:`~repro.serve.channel.Channel`: hand-made
frames over the descriptor of one duplex :func:`multiprocessing.Pipe`,
whose ``Connection`` objects only carry the descriptor to the worker and
close it.  Every reply piggybacks the worker's current counters as a
flat int tuple (:meth:`~repro.obs.metrics.CounterView.counts`), and the
parent moves the fleet's own ``fleet_*_total`` counters by the change,
so :attr:`MultiprocessFleet.metrics` — the same read-only view the
in-process engine has, over the parent's one registry — is always
current without extra round trips.  Bulk dispatch fans out *flat*
``array('q')`` schedules, and a ``run_flat`` request's frame body is the
buffer's raw bytes — nothing on the bulk path is pickled, so the
per-event IPC cost is two machine ints, not two Python objects.  The
parent interns keys and messages itself, in one walk: its routing table
maps each key to one int, ``slot * workers + wid``, and the columns come
from the same :class:`~repro.opt.IndexedMachine` the workers build,
which also keeps the canonical unknown instance/message
:class:`DeploymentError` identical on both sides of the boundary.

Telemetry follows the sharding design the obs plane documents: each
worker feeds its own :class:`~repro.obs.telemetry.FleetTelemetry`
(tracing off — trace logs do not cross processes; ``telemetry=True``
asks for it, and a caller's instance is refused because no process
would feed it), and :meth:`MultiprocessFleet.telemetry_registry` folds
the workers' histograms into the parent's registry with the bucketwise
:meth:`~repro.obs.metrics.MetricsRegistry.merge`, so latency histograms
aggregate exactly.

Failure semantics come in two flavours.  *Unsupervised* (the default):
a worker that dies mid-batch (pipe hits ``EOFError``/``BrokenPipeError``)
is marked dead and the operation raises a :class:`DeploymentError`
naming it; traffic already fanned out to the surviving workers is
dispatched in full first, so the surviving shard partitions stay
internally consistent and keep serving.  The dead worker's partition is
lost — restore a snapshot to recover it (or take a *partial* snapshot of
the survivors with ``snapshot(allow_partial=True)``).

*Supervised* (``journal=True``): every mutating request is also written
to a per-worker :class:`~repro.serve.recovery.WorkerJournal` — bulk
dispatch journals the already-interned flat buffer *before* fan-out (one
list append on the hot path), lifecycle operations journal after their
acknowledgement — and each partition is checkpointed at its exact slot
layout every ``checkpoint_every`` journaled events, in one round trip
that returns the worker's raw columns and registry as opaque bytes (the
parent journals them unread).  When a worker dies,
a supervisor thread respawns it with bounded retry/backoff
(:class:`~repro.serve.recovery.RecoveryPolicy`), rehydrates the
partition from the last checkpoint, replays the journal verbatim (slot
ids stay valid because the layout is exact — pre-encoded
:class:`EncodedFleetSchedule` objects survive a recovery), and swaps the
fresh worker in.  During the window callers see a *transient*
:class:`~repro.serve.recovery.FleetRecoveringError` (a
:class:`DeploymentError` subclass carrying ``retry_after``) for
operations that need a round trip, while bulk dispatch and ``post`` are
accepted and deferred through the journal; :meth:`await_recovery`
blocks until the fleet is whole.  The fleet's counters and histograms
never fall across the respawn: a partition's registry is partition
state, so the next incarnation resumes it from the checkpoint and
replay counts the rest, while the parent keeps counting each
partition's last report until the fresh worker is swapped in.
Recovery itself is observable in the same registry (restarts, replayed
events, the MTTR histogram) and in :attr:`recovery_trace`
(die→respawn→replay→resume causality).

Posted traffic queues parent-side as one flat ``array('q')`` schedule
per worker, which :meth:`MultiprocessFleet.drain_all` fans out: these
pending buffers are this fleet's queues, so their depths at each drain
feed the ``fleet_shard_depth_*`` gauges (workers never queue).  Live
trace logs do not cross the process boundary.
"""

from __future__ import annotations

import multiprocessing
import threading
import weakref
from array import array
from contextlib import suppress
from itertools import chain
from time import perf_counter, sleep
from typing import Optional

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import FleetTelemetry
from repro.serve.channel import Channel
from repro.serve.fleet import (
    _SCHEDULE_AS_EVENTS,
    ENCODINGS,
    FleetEngine,
    FleetSnapshot,
    _check_options,
    check_count,
    check_key,
    known,
    optimized_ir,
    raise_rejected,
    resolve_snapshot,
)
from repro.serve.metrics import FleetMetrics, QueueDepths
from repro.serve.recovery import (
    FleetRecoveringError,
    RecoveryPolicy,
    RecoveryTelemetry,
    WorkerJournal,
    partition_checkpoint,
    rehydrate,
)
from repro.serve.store import InstanceSnapshot, session_keys, shard_of
from repro.serve.vector import VectorSchedule

__all__ = ["EncodedFleetSchedule", "MultiprocessFleet"]

#: Worker lifecycle states (the recovery state machine's vocabulary).
WORKER_LIVE = "live"
WORKER_RECOVERING = "recovering"
WORKER_DEAD = "dead"


class EncodedFleetSchedule:
    """A pre-encoded schedule partitioned by worker.

    The multiprocess counterpart of the engine's flat ``[slot, col,
    ...]`` schedules: :meth:`MultiprocessFleet.encode_flat` interns every
    event to its owning worker's flat buffer once, so a repeated
    :meth:`MultiprocessFleet.run` pays only the fan-out.
    Schedules are fleet-specific (slot ids live in worker stores);
    encode against the fleet that will run the schedule.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts) // 2

    def __bool__(self) -> bool:
        return any(self.parts)


#: A fresh partition's counts: nothing counted yet.
_UNCOUNTED = (0,) * len(FleetMetrics.COUNTERS)


class _Worker:
    """Parent-side handle of one worker process (one incarnation)."""

    __slots__ = ("process", "channel", "status", "counts", "registry")

    def __init__(self, process, channel: Channel):
        self.process = process
        self.channel = channel
        self.status = WORKER_LIVE
        #: The partition's counter values as last reported (piggybacked
        #: on every reply; a respawned worker resumes them from its
        #: checkpoint, so they include every earlier incarnation).
        self.counts = _UNCOUNTED
        #: The partition's registry as last fetched, for its histograms.
        self.registry: Optional[MetricsRegistry] = None

    @property
    def alive(self) -> bool:
        return self.status == WORKER_LIVE


def _worker_main(conn, machine, options, inherited) -> None:
    """Worker process body: one private engine, one request loop.

    ``inherited`` holds the parent-side pipe ends a forked worker got a
    copy of, its own and every other live worker's.  Closing them first
    leaves the parent the only holder, so its death, however abrupt,
    reads as end of file here and the loop ends.
    """
    for parent_end in inherited:
        parent_end.close()
    channel = Channel(conn)
    try:
        # The options are the engine's keywords; telemetry is a flag
        # here, since each worker feeds a context of its own.
        telemetry = FleetTelemetry(tracing=False) if options["telemetry"] else None
        engine = FleetEngine(machine, **(options | {"telemetry": telemetry}))
    except Exception as exc:  # construction failed: report, then exit
        _reply(channel, "fail", f"{type(exc).__name__}: {exc}", None)
        channel.close()
        return
    _reply(channel, "ok", "ready", engine)
    while True:
        try:
            request = channel.recv_request()
        except (EOFError, OSError):
            break
        op = request[0]
        if op == "stop":
            _reply(channel, "ok", None, engine)
            break
        try:
            payload = _handle(engine, request)
        except DeploymentError as exc:
            _reply(channel, "err", str(exc), engine)
        except Exception as exc:
            _reply(channel, "fail", f"{type(exc).__name__}: {exc}", engine)
        else:
            _reply(channel, "ok", payload, engine)
    channel.close()


def _reply(channel: Channel, status: str, payload, engine) -> None:
    counts = engine.metrics.counts() if engine is not None else None
    try:
        channel.send_reply(status, payload, counts)
    except OSError:  # the parent is gone; the next read ends the loop
        pass


def _handle(engine: FleetEngine, request: tuple):
    """Execute one parent request against the worker's engine."""
    op = request[0]
    if op == "run_flat":
        engine.run(request[1], encoding="flat")
        return None
    if op == "spawn":
        return engine.spawn(request[1])
    if op == "spawn_keys":
        return [engine.spawn(key) for key in request[1]]
    if op == "despawn":
        engine.despawn(request[1])
        return None
    if op == "recycle":
        engine.recycle(request[1])
        return None
    if op == "deliver":
        return engine.deliver(request[1], request[2])
    if op == "state":
        return engine.state_name(request[1])
    if op == "actions_since":
        return engine.actions_since(request[1], request[2])
    if op == "trace":
        return engine.trace(request[1])
    if op == "finished":
        return engine.is_finished(request[1])
    # A partition's share of a fleet-wide snapshot or restore is not one
    # itself: the parent counts the fleet-wide operation once.
    if op == "snapshot":
        return tuple(map(engine.trace, engine.store.keys()))
    if op == "restore":
        engine._load(request[1])
        return dict(engine.store.slot_of)
    if op == "registry":
        return engine.telemetry_registry()
    if op == "checkpoint":
        return partition_checkpoint(engine)
    if op == "rehydrate":
        rehydrate(engine, request[1])
        return None
    raise DeploymentError(f"unknown worker op {op!r}")


class MultiprocessFleet:
    """Host one machine's instances across worker processes.

    Satisfies the :class:`~repro.serve.api.Fleet` protocol; see the
    module docstring for routing, wire protocol and failure semantics.
    ``journal=True`` enables the write-ahead journal, periodic partition
    checkpoints (every ``checkpoint_every`` journaled events) and the
    self-healing supervisor governed by ``recovery``
    (a :class:`~repro.serve.recovery.RecoveryPolicy`).
    """

    def __init__(
        self,
        machine: StateMachine,
        *,
        workers: int = 2,
        backend: str = "interp",
        mode: str = "encoded",
        log_policy: str = "full",
        optimize=None,
        auto_recycle: bool = False,
        telemetry=None,
        start_method: Optional[str] = None,
        journal: bool = False,
        checkpoint_every: int = 50_000,
        recovery: Optional[RecoveryPolicy] = None,
        join_timeout: float = 5.0,
    ):
        # Every worker would build its engine with these options: check
        # them here, with the engine's own check, before anything forks.
        _check_options(mode, backend, log_policy)
        if workers < 1:
            raise DeploymentError(f"workers must be >= 1, got {workers}")
        if checkpoint_every < 1:
            raise DeploymentError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if isinstance(telemetry, FleetTelemetry):
            raise DeploymentError(
                "each worker feeds a FleetTelemetry of its own, so no process "
                "would feed this one; pass telemetry=True"
            )
        self._machine = machine
        self._mode = mode
        self._backend_kind = backend
        self._log_policy = log_policy
        self._auto_recycle = auto_recycle
        self._telemetry_enabled = telemetry is not None and telemetry is not False
        # The parent interns keys/messages itself, so it builds the same
        # (optimized) IR the workers will — column ids and state names
        # are deterministic functions of (machine, optimize).
        self._indexed, self.opt_report = optimized_ir(machine, optimize)
        self._table = self._indexed.dispatch_table()
        self._columns = self._table.message_index
        #: key -> ``slot * workers + wid`` (worker-local slot, owning
        #: worker) as one int; the authoritative population map —
        #: workers never report membership back.
        self._route: dict[str, int] = {}
        #: The fleet's one registry: every partition's last report, plus
        #: the fleet-wide snapshots and restores counted once here.
        self._registry = MetricsRegistry()
        self._depths = QueueDepths(self._registry)
        self.metrics = FleetMetrics(self._registry, self._depths)
        self._count = self.metrics.handles()
        self._closed = False
        self._closing = False
        self._join_timeout = join_timeout

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._options = {
            "backend": backend,
            "mode": mode,
            "log_policy": log_policy,
            "optimize": optimize,
            "auto_recycle": auto_recycle,
            "telemetry": self._telemetry_enabled,
        }
        # Supervision plane (journal=True): write-ahead journals, the
        # recovery policy/telemetry and the lock guarding journal state,
        # worker status transitions and the worker-handle swap.  Built
        # before the workers so a death during the startup handshake
        # already has the full failure machinery available.
        self._journal_enabled = journal
        self._checkpoint_every = checkpoint_every
        self._policy = recovery if recovery is not None else RecoveryPolicy()
        self._lock = threading.RLock()
        self._recovery_threads: dict[int, threading.Thread] = {}
        self._journals = (
            [WorkerJournal() for _ in range(workers)] if journal else []
        )
        self._recovery = RecoveryTelemetry(self._registry) if journal else None

        #: Every process this fleet ever started (respawns included) —
        #: the GC finalizer sweeps this list so no incarnation leaks.
        self._processes: list = []
        #: The parent-side pipe end of every worker not yet dropped; a
        #: forked worker closes its copies (see ``_worker_main``).
        self._parent_ends: weakref.WeakSet = weakref.WeakSet()
        self._workers: list[_Worker] = [
            self._launch_worker() for _ in range(workers)
        ]
        self._finalizer = weakref.finalize(
            self, _terminate_workers, self._processes
        )
        # Startup handshake: surfaces worker-side construction errors
        # here instead of as an EOF on the first real request.
        for wid in range(workers):
            self._recv(wid)
        #: Parent-side pending buffers, one flat ``[slot, col, ...]``
        #: schedule per worker (post() -> drain).
        self._pending = [array("q") for _ in range(workers)]
        if journal:
            # Initial checkpoints: the journal's replay base is the
            # empty population each worker starts with.
            for wid in range(workers):
                self._take_checkpoint(wid)

    # ------------------------------------------------------------------
    # wire helpers
    # ------------------------------------------------------------------

    def _launch_worker(self) -> _Worker:
        """Start one worker process (no handshake — callers recv it)."""
        parent_conn, child_conn = self._ctx.Pipe()
        inherited = ()
        with self._lock:  # recovery threads launch concurrently
            self._parent_ends.add(parent_conn)
            if self._ctx.get_start_method() == "fork":
                inherited = tuple(self._parent_ends)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._machine, self._options, inherited),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._processes.append(process)
        return _Worker(process, Channel(parent_conn))

    def _mark_dead(self, wid: int) -> None:
        worker = self._workers[wid]
        worker.status = WORKER_DEAD
        with suppress(OSError):
            worker.channel.close()

    def _worker_failed(self, wid: int) -> bool:
        """A worker stopped responding: start recovery when supervised.

        Returns ``True`` when a recovery is (already) underway — the
        caller raises the transient :class:`FleetRecoveringError` —
        ``False`` when the partition is permanently lost (unsupervised,
        closing, or the restart policy was exhausted earlier).
        """
        with self._lock:
            worker = self._workers[wid]
            if worker.status == WORKER_RECOVERING:
                return True
            if worker.status == WORKER_DEAD:
                return False
            if not self._journal_enabled or self._closing:
                self._mark_dead(wid)
                return False
            worker.status = WORKER_RECOVERING
            with suppress(OSError):
                worker.channel.close()
            tid = self._recovery.worker_died(wid, self._recovering_count())
            thread = threading.Thread(
                target=self._recover_worker,
                args=(wid, tid, perf_counter()),
                daemon=True,
                name=f"fleet-recovery-{wid}",
            )
            self._recovery_threads[wid] = thread
            thread.start()
            return True

    def _recovering_count(self) -> int:
        return sum(
            1 for worker in self._workers
            if worker.status == WORKER_RECOVERING
        )

    def _raise_unavailable(self, wid: int, died: bool):
        """The canonical error for a worker that cannot serve right now."""
        if self._workers[wid].status == WORKER_RECOVERING:
            raise FleetRecoveringError(
                f"fleet worker {wid} is recovering; its shard partition is "
                "being rehydrated from checkpoint + journal — retry shortly",
                worker_id=wid,
                retry_after=self._policy.retry_after_s,
            ) from None
        if died:
            raise DeploymentError(
                f"fleet worker {wid} died mid-request; "
                "its shard partition is lost"
            ) from None
        raise DeploymentError(
            f"fleet worker {wid} is not available (process terminated); "
            "its shard partition is lost"
        )

    def _send(self, wid: int, request: tuple) -> None:
        worker = self._workers[wid]
        if self._closed:
            raise DeploymentError("fleet is closed")
        if not worker.alive:
            self._raise_unavailable(wid, died=False)
        try:
            worker.channel.send_request(request)
        except OSError:
            self._worker_failed(wid)
            self._raise_unavailable(wid, died=True)

    def _recv(self, wid: int):
        worker = self._workers[wid]
        try:
            status, payload, counts = worker.channel.recv_reply()
        except (EOFError, OSError):
            self._worker_failed(wid)
            self._raise_unavailable(wid, died=True)
        if counts is not None and counts != worker.counts:
            self._absorb(worker.counts, counts)
            worker.counts = counts
        if status == "ok":
            return payload
        if status == "err":
            # A DeploymentError crossing the boundary keeps its exact
            # message: the caller sees the same error shape in-process
            # and out.
            raise DeploymentError(payload)
        self._worker_failed(wid)
        raise DeploymentError(f"fleet worker {wid} failed: {payload}")

    def _request(self, wid: int, *request):
        self._send(wid, request)
        return self._recv(wid)

    def _absorb(self, was: tuple, now: tuple) -> None:
        """Move the fleet counters by one partition's change of report.

        Each partition counts as its last report, so a partition
        mid-recovery (or lost) keeps its dead worker's until the rebuilt
        one is swapped in, and no counter falls.  Under the fleet lock:
        a recovery thread swaps while the main thread counts replies.
        """
        with self._lock:
            for counter, new, old in zip(self.metrics.counters, now, was):
                if new != old:
                    counter.value += new - old

    def _fan_out(
        self, requests: dict[int, tuple], landed=None, defer: bool = False
    ) -> dict:
        """Send to every addressed worker first, then collect replies.

        The send/collect split is where the parallelism comes from: all
        workers chew their partitions concurrently.  Errors (worker
        death, worker-side rejections) are collected so one failing
        worker never strands traffic already fanned out to the others,
        then re-raised as one :class:`DeploymentError` — or as the
        transient :class:`FleetRecoveringError` when a recovery window
        was the only failure.  Returns ``{wid: payload}``; ``landed(wid,
        payload)`` is called for each reply as it arrives, so a caller
        can record the workers that succeeded before anything raises.
        ``defer=True`` (journaled bulk dispatch) drops recovery-window
        errors instead: journal replay applies those shares.
        """
        sent: list[int] = []
        errors: list[DeploymentError] = []
        payloads: dict = {}
        for wid, request in requests.items():
            try:
                self._send(wid, request)
                sent.append(wid)
            except DeploymentError as exc:
                errors.append(exc)
        for wid in sent:
            try:
                payloads[wid] = self._recv(wid)
            except DeploymentError as exc:
                errors.append(exc)
            else:
                if landed is not None:
                    landed(wid, payloads[wid])
        if defer:
            errors = [e for e in errors if not isinstance(e, FleetRecoveringError)]
        if len(errors) == 1 and isinstance(errors[0], FleetRecoveringError):
            raise errors[0]
        if errors:
            raise DeploymentError("; ".join(map(str, errors)))
        return payloads

    # -- journal plumbing ----------------------------------------------

    def _journal_record(self, wid: int, request: tuple, events: int) -> None:
        """Journal one *acknowledged* lifecycle operation (write-behind)."""
        if not self._journal_enabled:
            return
        with self._lock:
            self._journals[wid].append(request, events)
        self._maybe_checkpoint((wid,))

    def _dispatch_fan_out(self, requests: dict[int, tuple]) -> None:
        """Fan out ``run_flat`` requests with write-ahead journaling.

        Every share is journaled *before* it is sent, so a worker dying
        mid-batch (or already recovering) costs the caller nothing: the
        share is applied by journal replay instead, and the call returns
        as accepted.  Unsupervised fleets keep the historical behaviour
        (a :class:`DeploymentError` naming the dead worker, after the
        surviving shares were dispatched in full).
        """
        if self._journal_enabled:
            with self._lock:
                for wid, request in requests.items():
                    self._journals[wid].append(request, len(request[1]) // 2)
        self._fan_out(requests, defer=True)
        self._maybe_checkpoint(requests)

    def _maybe_checkpoint(self, wids) -> None:
        """Checkpoint workers whose journal crossed the cadence.

        Runs after the dispatch round trip (off the dispatch clock); a
        worker that slipped into recovery meanwhile is skipped — the
        recovery finalizer takes its own fresh checkpoint.
        """
        if not self._journal_enabled:
            return
        for wid in wids:
            with self._lock:
                due = (
                    self._workers[wid].alive
                    and self._journals[wid].events >= self._checkpoint_every
                )
            if due:
                try:
                    self._take_checkpoint(wid)
                except DeploymentError:
                    pass  # death/recovery mid-checkpoint; replay covers it

    def _take_checkpoint(self, wid: int) -> None:
        """Checkpoint one live worker's partition and truncate its journal."""
        blob = self._request(wid, "checkpoint")
        with self._lock:
            self._journals[wid].truncate(blob)
        self._recovery.checkpointed(wid)

    # -- the supervisor (runs on a background thread per incident) -----

    def _recover_worker(self, wid: int, tid: int, died_at: float) -> None:
        """Respawn → rehydrate → replay → swap, with bounded retry."""
        policy = self._policy
        delay = policy.backoff_s
        # The old incarnation may still be running (a "fail" reply marks
        # the worker failed without the process exiting) — remove it
        # before its replacement arrives.
        old = self._workers[wid].process
        _reap(old, timeout=self._join_timeout)
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_restarts + 1):
            if self._closing:
                last_error = DeploymentError("fleet is closing")
                break
            handle: Optional[_Worker] = None
            try:
                handle = self._launch_worker()
                status, payload, _counts = handle.channel.recv_reply()
                if status != "ok":
                    raise DeploymentError(
                        f"respawned worker {wid} failed to start: {payload}"
                    )
                self._recovery.respawned(tid, wid, attempt)
                self._rehydrate_and_replay(wid, handle, tid, died_at)
            except (DeploymentError, EOFError, OSError) as exc:
                last_error = exc
                if handle is not None:
                    with suppress(OSError):
                        handle.channel.close()
                    _reap(handle.process, timeout=self._join_timeout)
                sleep(delay)
                delay *= policy.backoff_factor
                continue
            return
        with self._lock:
            self._workers[wid].status = WORKER_DEAD
            self._recovery_threads.pop(wid, None)
        self._recovery.failed(
            tid, wid, str(last_error), self._recovering_count()
        )

    def _rehydrate_and_replay(
        self, wid: int, handle: _Worker, tid: int, died_at: float
    ) -> None:
        """Rebuild one partition on a fresh worker and swap it live.

        The journal may keep growing while this runs (dispatch to a
        recovering partition is journaled-and-deferred), so replay
        chases a cursor; once the journal is drained the finalization —
        fresh checkpoint, journal truncation, handle swap — happens
        under the fleet lock so no entry can slip in between.
        """
        journal = self._journals[wid]
        if journal.checkpoint:  # a fresh worker already is the empty partition
            self._worker_roundtrip(handle, ("rehydrate", journal.checkpoint))
        replayed_ops = 0
        replayed_events = 0
        cursor = 0
        while True:
            with self._lock:
                pending = journal.ops[cursor:]
                if not pending:
                    self._recovery.replayed(
                        tid, wid, replayed_ops, replayed_events
                    )
                    self._finalize_recovery(wid, handle, tid, died_at)
                    break
            for request, events in pending:
                payload = self._worker_roundtrip(
                    handle, request, tolerate_err=True
                )
                self._verify_replay(wid, request, payload)
                replayed_ops += 1
                replayed_events += events
            cursor += len(pending)

    def _finalize_recovery(
        self, wid: int, handle: _Worker, tid: int, died_at: float
    ) -> None:
        """Checkpoint the rebuilt partition and swap the handle in.

        Caller holds the fleet lock with an empty replay backlog: the
        round trips here are to the new worker only, and no caller can
        append to the journal or observe a half-swapped worker while
        they run.  The incident's resume record (and its MTTR
        observation) is written *before* the swap, so a caller returning
        from :meth:`await_recovery` always finds the full
        die→respawn→replay→resume chain in the trace log.
        """
        self._journals[wid].truncate(self._worker_roundtrip(handle, ("checkpoint",)))
        self._recovery.checkpointed(wid)
        handle.status = WORKER_LIVE
        self._recovery_threads.pop(wid, None)
        self._recovery.resumed(
            tid, wid, perf_counter() - died_at, self._recovering_count() - 1
        )
        self._absorb(self._workers[wid].counts, handle.counts)
        self._workers[wid] = handle

    def _worker_roundtrip(self, handle: _Worker, request: tuple, tolerate_err=False):
        """One request/reply on a not-yet-swapped worker handle.

        Replay tolerates ``err`` replies: a journaled batch that was
        rejected the first time (unknown message on the deferred-
        validation path) rejects identically on replay — that *is* the
        original behaviour, not a recovery failure.
        """
        handle.channel.send_request(request)
        status, payload, counts = handle.channel.recv_reply()
        if counts is not None:
            handle.counts = counts
        if status == "ok":
            return payload
        if status == "err" and tolerate_err:
            return None
        raise DeploymentError(
            f"worker replay rejected {request[0]!r}: {payload}"
        )

    def _verify_replay(self, wid: int, request: tuple, payload) -> None:
        """Replayed spawns must land on their original slots.

        Slot assignment is a deterministic function of the rehydrated
        layout and the journaled operation sequence; a mismatch means
        the journal and the population map diverged, and the recovery
        attempt must fail loudly rather than serve a scrambled
        partition.
        """
        op = request[0]
        if op == "spawn" and payload is not None:
            landed = {request[1]: payload}
        elif op == "spawn_keys" and payload is not None:
            landed = dict(zip(request[1], payload))
        else:
            return
        workers = len(self._workers)
        for key, slot in landed.items():
            if self._route.get(key) != slot * workers + wid:
                raise DeploymentError(f"replay slot drift for instance {key!r}")

    def _locate(self, key: str) -> tuple[int, int]:
        """``(worker id, worker-local slot)`` of an existing key."""
        try:
            slot, wid = divmod(self._route[key], len(self._workers))
        except (KeyError, TypeError):
            raise DeploymentError(f"unknown instance {key!r}") from None
        return wid, slot

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def machine(self) -> StateMachine:
        return self._machine

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def backend(self) -> str:
        return self._backend_kind

    @property
    def log_policy(self) -> str:
        return self._log_policy

    @property
    def auto_recycle(self) -> bool:
        return self._auto_recycle

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def state_map(self) -> Optional[dict]:
        if self.opt_report is None or self.opt_report.identity:
            return None
        return self.opt_report.state_map

    def telemetry_registry(self) -> MetricsRegistry:
        """The fleet's one registry, every worker's histograms folded in.

        Its counters are always current (see :meth:`_absorb`).  The
        histograms are fetched here from every live worker; a partition
        mid-recovery (or lost) contributes the registry it sent last.  On
        supervised fleets the supervisor's instruments live here too.
        """
        if self._telemetry_enabled:
            partitions = MetricsRegistry()
            for wid, worker in enumerate(self._workers):
                if worker.alive:
                    worker.registry = self._request(wid, "registry")
                if worker.registry is not None:
                    partitions.merge(worker.registry)
            self._registry.histograms.update(partitions.histograms)
        return self._registry

    @property
    def recovery_trace(self):
        """Die→respawn→replay→resume trace log (``None`` unsupervised)."""
        return None if self._recovery is None else self._recovery.trace

    def __len__(self) -> int:
        return len(self._route)

    def __contains__(self, key: str) -> bool:
        return key in self._route

    def worker_of(self, key: str) -> int:
        """The worker a session key routes to (stable across fleets)."""
        return shard_of(key, len(self._workers))

    def worker_pids(self) -> list[Optional[int]]:
        """Current worker process ids (chaos harnesses aim signals here)."""
        return [worker.process.pid for worker in self._workers]

    def worker_states(self) -> list[str]:
        """Each worker's lifecycle state: ``live``/``recovering``/``dead``."""
        return [worker.status for worker in self._workers]

    def check_workers(self) -> list[str]:
        """Poll worker processes, starting recovery for silent deaths.

        A worker that was SIGKILLed between requests never surfaces as a
        pipe error until the next request touches it; health checks call
        this to detect (and, supervised, heal) such deaths proactively.
        Returns the post-check :meth:`worker_states`.
        """
        for wid, worker in enumerate(self._workers):
            if worker.alive and not worker.process.is_alive():
                self._worker_failed(wid)
        return self.worker_states()

    def is_recovering(self) -> bool:
        """Whether any partition is currently rehydrating."""
        with self._lock:
            return self._recovering_count() > 0

    def await_recovery(self, timeout: Optional[float] = None) -> bool:
        """Block until no partition is recovering (or ``timeout`` runs out).

        Returns ``True`` when the fleet is whole — every worker either
        live or permanently dead — ``False`` on timeout.  The idiomatic
        caller retry after a :class:`FleetRecoveringError`::

            fleet.await_recovery(timeout=err.retry_after * 10)
            fleet.deliver(key, message)
        """
        deadline = None if timeout is None else perf_counter() + timeout
        while True:
            if not self.is_recovering():
                return True
            if deadline is not None and perf_counter() >= deadline:
                return False
            sleep(0.002)

    # ------------------------------------------------------------------
    # instance lifecycle
    # ------------------------------------------------------------------

    def spawn(self, key: str) -> int:
        """Create one instance on its owning worker; returns the
        worker-local slot (slots are not fleet-unique — address
        instances by key)."""
        check_key(key)
        if key in self._route:
            raise DeploymentError(f"instance {key!r} already exists")
        wid = self.worker_of(key)
        slot = self._request(wid, "spawn", key)
        self._route[key] = slot * len(self._workers) + wid
        self._journal_record(wid, ("spawn", key), 0)
        return slot

    def spawn_many(self, count: int, prefix: str = "session") -> list[str]:
        """Create ``count`` instances with generated session keys, one
        request per worker (one round trip per worker, not per key).

        Keys that already exist are skipped rather than re-spawned: the
        generated key sequence is deterministic, so this is the retry
        path after a :class:`FleetRecoveringError` left a previous call
        partially applied — the retry finishes the job exactly once.
        """
        check_count(count)
        keys = session_keys(count, prefix)
        per_worker: dict[int, list[str]] = {}
        for key in keys:
            if key in self._route:
                continue
            per_worker.setdefault(self.worker_of(key), []).append(key)
        workers = len(self._workers)

        def landed(wid: int, slots: list) -> None:
            for key, slot in zip(per_worker[wid], slots):
                self._route[key] = slot * workers + wid
            self._journal_record(wid, ("spawn_keys", per_worker[wid]), 0)

        requests = {wid: ("spawn_keys", ks) for wid, ks in per_worker.items()}
        self._fan_out(requests, landed)
        return keys

    def despawn(self, key: str) -> None:
        wid, _slot = self._locate(key)
        if self._pending[wid]:
            # Posted traffic was interned to this slot: deliver it before
            # the slot can pass to another key.
            self.drain_all()
        self._request(wid, "despawn", key)
        del self._route[key]
        self._journal_record(wid, ("despawn", key), 0)

    def recycle(self, key: str) -> None:
        wid, _slot = self._locate(key)
        self._request(wid, "recycle", key)
        self._journal_record(wid, ("recycle", key), 0)

    # ------------------------------------------------------------------
    # per-instance observation
    # ------------------------------------------------------------------

    def state_name(self, key: str) -> str:
        return self._request(self._locate(key)[0], "state", key)

    def actions_since(self, key: str, start: int = 0) -> tuple[str, ...]:
        wid = self._locate(key)[0]
        check_count(start, "start")
        return self._request(wid, "actions_since", key, start)

    def trace(self, key: str) -> InstanceSnapshot:
        return self._request(self._locate(key)[0], "trace", key)

    def is_finished(self, key: str) -> bool:
        return self._request(self._locate(key)[0], "finished", key)

    # ------------------------------------------------------------------
    # event intake and dispatch
    # ------------------------------------------------------------------

    def _partition(self, events) -> tuple[list, list]:
        """``(parts, rejected)`` — events interned into one flat
        ``[slot, col, ...]`` buffer per owning worker in one walk (a
        routing int and a column per event); bad events (an unknown or
        unhashable instance or message) are collected, not raised: only a
        ``KeyError`` or ``TypeError`` walks again, as in the engine's ``_intern``."""
        if not isinstance(events, (list, tuple)):
            events = list(events)
        workers = len(self._workers)
        route = self._route
        columns = self._columns
        parts = [[] for _ in range(workers)]
        appends = [part.append for part in parts]
        try:
            for key, message in events:
                code = route[key]
                append = appends[code % workers]
                append(code // workers)
                append(columns[message])
        except (KeyError, TypeError):
            valid: list[tuple[str, str]] = []
            rejected: list[tuple[str, str]] = []
            for key, message in events:
                ok = known(key, route) and known(message, columns)
                (valid if ok else rejected).append((key, message))
            return self._partition(valid)[0], rejected
        return [array("q", part) for part in parts], ()

    def encode_flat(self, events) -> EncodedFleetSchedule:
        """Intern ``(key, message)`` events into per-worker flat buffers.

        Same validation contract as the engine's ``encode_flat``:
        unknown keys or messages raise one canonical
        :class:`DeploymentError` naming them.
        """
        parts, rejected = self._partition(events)
        if rejected:
            raise_rejected(rejected)
        return EncodedFleetSchedule(tuple(parts))

    def post(
        self,
        key: str,
        message: str,
        source: Optional[str] = None,
        trace_id: Optional[int] = None,
    ) -> bool:
        """Buffer one event parent-side for its owning worker.

        Validation timing mirrors the in-process engine: the event is
        interned here, so unknown instances/messages raise the canonical
        errors at post time.  The buffered traffic flushes on the next
        :meth:`drain_all` / :meth:`run`.  Buffers are unbounded, so the
        answer is always ``True``; ``source``/``trace_id`` are accepted
        for protocol compatibility but not traced across the process
        boundary.  Posting never blocks on a recovering partition: the
        buffer is parent-side and the flush defers through the journal.
        """
        wid, slot = self._locate(key)
        col = self._column(message)
        buffer = self._pending[wid]
        buffer.append(slot)
        buffer.append(col)
        return True

    def _column(self, message: str) -> int:
        """The column of a known message (:class:`DeploymentError` otherwise)."""
        try:
            return self._columns[message]
        except (KeyError, TypeError):
            raise DeploymentError(f"unknown message {message!r}") from None

    def deliver(self, key: str, message: str) -> bool:
        """Dispatch one event on its owning worker, checked here first."""
        wid, _slot = self._locate(key)
        self._column(message)
        result = self._request(wid, "deliver", key, message)
        self._journal_record(wid, ("deliver", key, message), 1)
        return result

    def drain_all(self) -> int:
        """Flush every worker's pending buffer; returns events flushed.

        On a supervised fleet a recovering worker's share is journaled
        and applied by replay instead of being dispatched directly — the
        events still count as flushed (they have left the pending
        buffer and are durably scheduled).
        """
        requests = {
            wid: ("run_flat", buffer)
            for wid, buffer in enumerate(self._pending)
            if buffer
        }
        if not requests:
            return 0
        for wid, (_op, buffer) in requests.items():
            self._pending[wid] = array("q")
            self._depths.drained(wid, len(buffer) // 2)
        self._dispatch_fan_out(requests)
        return sum(len(request[1]) for request in requests.values()) // 2

    def run(self, events, encoding: str = "auto") -> FleetMetrics:
        """Fan a workload out to the workers; returns :attr:`metrics`.

        Accepts ``(key, message)`` batches (``"events"``/``"auto"``) or
        an :class:`EncodedFleetSchedule` from :meth:`encode_flat`
        (``"flat"``/``"auto"``).  Raw ``[slot, col, ...]`` buffers and
        :class:`~repro.serve.vector.VectorSchedule` objects are
        meaningless across fleets and are refused with one error under
        ``"flat"`` and ``"auto"`` alike, before anything dispatches.
        Pending posted traffic flushes first (FIFO), and per-key order
        is preserved — a key maps to one worker.
        """
        if encoding not in ENCODINGS:
            raise DeploymentError(
                f"unknown encoding {encoding!r}; choose from {ENCODINGS}"
            )
        pre_encoded = isinstance(events, EncodedFleetSchedule)
        raw = isinstance(events, (array, VectorSchedule))
        if (pre_encoded or raw) and encoding == "events":
            raise DeploymentError(_SCHEDULE_AS_EVENTS)
        if raw or (encoding == "flat" and not pre_encoded):
            raise DeploymentError(
                "encoding 'flat' on a multiprocess fleet needs an "
                "EncodedFleetSchedule from this fleet's encode_flat(); "
                "raw slot schedules are worker-local"
            )
        if pre_encoded and len(events.parts) != len(self._workers):
            raise DeploymentError(
                "schedule was encoded for a fleet with "
                f"{len(events.parts)} worker(s); this fleet has "
                f"{len(self._workers)}"
            )
        self.drain_all()
        if pre_encoded:
            parts, rejected = events.parts, ()
        else:
            # String events: validate parent-side (canonical error
            # shape), partition by owning worker, fan out, then raise for
            # rejects — valid traffic is never stranded behind bad events.
            parts, rejected = self._partition(events)
        requests = {
            wid: ("run_flat", part) for wid, part in enumerate(parts) if part
        }
        if requests:
            self._dispatch_fan_out(requests)
        if rejected:
            raise_rejected(rejected)
        return self.metrics

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self, allow_partial: bool = False) -> FleetSnapshot:
        """One portable snapshot of the whole population.

        Pending parent-side traffic flushes first, then every worker
        snapshots its partition; the merged
        :class:`~repro.serve.fleet.FleetSnapshot` restores into any
        fleet of the same machine — including a single-process
        :class:`~repro.serve.fleet.FleetEngine`.

        With a dead worker the strict default refuses (a snapshot must
        not silently lie about the population); ``allow_partial=True``
        instead captures the surviving partitions and lists the lost
        keys in the snapshot's ``lost`` manifest.  On a supervised fleet
        the strict path first waits out any in-flight recovery, so a
        snapshot taken moments after a worker death is still whole.
        """
        self.drain_all()
        # Detect silent deaths first: a SIGKILLed worker that has not
        # been touched since would otherwise surface as a mid-request
        # pipe error instead of the canonical refusal/manifest.
        self.check_workers()
        if self._journal_enabled and not allow_partial:
            self.await_recovery()
        unavailable = [
            wid for wid, worker in enumerate(self._workers) if not worker.alive
        ]
        if unavailable and not allow_partial:
            raise DeploymentError(
                f"cannot snapshot: worker(s) {unavailable} are not available; "
                "their shard partitions are lost "
                "(snapshot(allow_partial=True) captures the survivors)"
            )
        requests = {
            wid: ("snapshot",)
            for wid in range(len(self._workers))
            if self._workers[wid].alive
        }
        instances = tuple(chain.from_iterable(self._fan_out(requests).values()))
        self._count.snapshots_taken.value += 1
        workers = len(self._workers)
        lost = tuple(
            key for key, code in self._route.items()
            if code % workers in unavailable
        )
        return FleetSnapshot(
            machine_name=self._machine.name, instances=instances, lost=lost
        )

    def restore(
        self, snapshot: FleetSnapshot, allow_partial: bool = False
    ) -> None:
        """Rebuild the population from a snapshot, partitioned by routing.

        All or nothing: the whole snapshot is checked here, in the
        parent, before anything fans out
        (:func:`~repro.serve.fleet.resolve_snapshot`), so a bad snapshot
        raises with every partition still on its old population.
        Otherwise the current population and any pending parent-side
        traffic are discarded; each worker restores the partition its
        keys route to, so a snapshot taken under any worker layout
        lands correctly here.  A *partial* snapshot (non-empty ``lost``
        manifest) is refused unless ``allow_partial=True`` — restoring
        one silently drops the lost instances.
        """
        resolve_snapshot(
            snapshot,
            self._machine.name,
            self._table.state_index,
            self.state_map,
            allow_partial,
        )
        if self._journal_enabled:
            self.await_recovery()
        per_worker: list[list[InstanceSnapshot]] = [
            [] for _ in self._workers
        ]
        for inst in snapshot.instances:
            per_worker[self.worker_of(inst.key)].append(inst)
        requests = {
            wid: (
                "restore",
                FleetSnapshot(
                    machine_name=snapshot.machine_name,
                    instances=tuple(instances),
                ),
            )
            for wid, instances in enumerate(per_worker)
        }
        self._pending = [array("q") for _ in self._workers]
        workers = len(self._workers)
        self._route = {
            key: slot * workers + wid
            for wid, slot_of in self._fan_out(requests).items()
            for key, slot in slot_of.items()
        }
        self._count.snapshots_restored.value += 1
        # A restore rewrites every partition wholesale: journals recording
        # the pre-restore history are obsolete, so re-baseline them.
        if self._journal_enabled:
            for wid in range(len(self._workers)):
                if self._workers[wid].alive:
                    self._take_checkpoint(wid)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker process and release the pipes (idempotent).

        Shutdown escalates rather than hangs: each process gets
        ``join(join_timeout)``, then ``terminate()`` (SIGTERM), then
        ``kill()`` (SIGKILL) — a worker wedged in uninterruptible user
        code can delay ``close()`` but never deadlock it.
        """
        if self._closed:
            return
        self._closing = True
        for thread in list(self._recovery_threads.values()):
            thread.join(timeout=max(self._join_timeout, 1.0))
        stopping = []
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.channel.send_request(("stop",))
            except OSError:
                worker.status = WORKER_DEAD
                continue
            stopping.append(worker)
        for worker in stopping:
            try:
                _status, _payload, counts = worker.channel.recv_reply()
            except (EOFError, OSError):
                continue
            if counts is not None:
                self._absorb(worker.counts, counts)
                worker.counts = counts
        self._closed = True
        for worker in self._workers:
            with suppress(OSError):
                worker.channel.close()
            _reap(worker.process, timeout=self._join_timeout)
            worker.status = WORKER_DEAD
        # Invoke (not detach) the finalizer: it sweeps every process this
        # fleet ever started, catching respawns an interrupted recovery
        # left behind.
        self._finalizer()

    def __enter__(self) -> "MultiprocessFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _reap(process, timeout: float = 5.0) -> None:
    """Join a worker process, escalating terminate → kill, never hanging."""
    process.join(timeout=timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout=timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout=timeout)


def _terminate_workers(processes) -> None:
    """GC fallback: never leave orphaned worker processes behind."""
    for process in processes:
        if process.is_alive():
            process.terminate()
