"""Self-healing fleet: journal, checkpoint, supervised recovery, chaos.

The contract under test is the tentpole of the recovery subsystem: a
supervised fleet (``journal=True``) that loses a worker to SIGKILL
rebuilds the partition from checkpoint + journal replay and ends
*indistinguishable* from an unkilled twin — traces via ``diff_fleets``
AND the fleet's ``FleetMetrics`` counters — across bundled models and
seeded kill schedules.  Around it: the transient
:class:`FleetRecoveringError` window, kill-during-recovery retries,
restart-policy exhaustion, partial snapshots of survivors, shutdown
escalation with a wedged worker, and telemetry monotonicity across the
die→respawn cycle.
"""

import contextlib
import os
import pickle
import signal
import sys
import threading
import time
from array import array
from dataclasses import replace

import pytest

from repro.core.errors import DeploymentError
from repro.serve import (
    HAS_NUMPY,
    FleetRecoveringError,
    RecoveryPolicy,
    diff_against_standalone,
    diff_fleets,
    make_fleet,
    mpfleet,
)
from repro.serve.recovery import partition_checkpoint, rehydrate
from repro.serve.workload import WorkloadSpec, generate_workload

#: The dispatch modes this environment can build.
MODES = ["naive", "encoded"] + (["vector"] if HAS_NUMPY else [])


def workload(machine, instances, events, seed=11):
    spec = WorkloadSpec(instances=instances, events=events, seed=seed)
    return generate_workload(machine, spec)


def sigkill_worker(fleet, wid):
    """SIGKILL one worker and wait until the process is truly gone."""
    process = fleet._workers[wid].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def supervised(model="commit", **kwargs):
    kwargs.setdefault("mode", "encoded")
    kwargs.setdefault("workers", 2)
    return make_fleet(model, journal=True, **kwargs)


# ---------------------------------------------------------------------------
# journaling is a no-op when nothing dies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_journaled_flat_run_matches_standalone(mode):
    # The journal records the same interned buffers the workers run:
    # a pre-encoded schedule through a journaled fleet still replays.
    fleet = supervised(mode=mode, checkpoint_every=500)
    try:
        keys = fleet.spawn_many(60)
        events = workload(fleet.machine, 60, 2_000, seed=3)
        metrics = fleet.run(fleet.encode_flat(events), encoding="flat")
        assert metrics.events_dispatched == len(events)
        assert diff_against_standalone(fleet, keys, events) == []
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# the acceptance criterion: SIGKILL mid-burst == unkilled twin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model", ["commit", "chandra-toueg"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigkill_mid_burst_recovers_to_twin_parity(model, seed, mode):
    # Every mode journals and replays the same interned int buffers.
    fleet = supervised(model, mode=mode, checkpoint_every=120)
    twin = make_fleet(model, mode=mode, workers=2)
    try:
        keys = fleet.spawn_many(16)
        twin.spawn_many(16)
        events = workload(fleet.machine, 16, 400, seed=seed)
        cut = 100 + (seed * 67) % 150  # seeded kill point
        fleet.run(events[:cut])
        twin.run(events[:cut])
        sigkill_worker(fleet, seed % fleet.workers)
        # The burst continues straight through the death: the dead
        # worker's share is journaled-and-deferred, the survivor's share
        # dispatches live.
        fleet.run(events[cut:])
        twin.run(events[cut:])
        assert fleet.await_recovery(timeout=30)
        assert fleet.worker_states() == ["live", "live"]
        assert diff_fleets(fleet, twin, keys) == []
        assert fleet.metrics.as_dict() == twin.metrics.as_dict()
        restarts = fleet.telemetry_registry().counters[
            "fleet_worker_restarts_total"
        ]
        assert restarts.value >= 1
    finally:
        fleet.close()
        twin.close()


def test_spawn_started_worker_recovers_to_inprocess_twin():
    # A respawn started without fork gets its end of the pipe pickled
    # across: the channel must come up on it and replay the journal.
    fleet = supervised(start_method="spawn", checkpoint_every=100)
    twin = make_fleet("commit", mode="encoded")
    try:
        fleet.spawn_many(16)
        twin.spawn_many(16)
        events = workload(fleet.machine, 16, 300, seed=4)
        fleet.run(events[:150])
        twin.run(events[:150])
        sigkill_worker(fleet, 1)
        fleet.run(events[150:])
        twin.run(events[150:])
        assert fleet.await_recovery(timeout=60)
        assert fleet.worker_states() == ["live", "live"]
        snapshots = [
            {one.key: one for one in each.snapshot().instances}
            for each in (fleet, twin)
        ]
        assert snapshots[0] == snapshots[1] and len(snapshots[0]) == 16
    finally:
        fleet.close()
        twin.close()


def test_all_workers_killed_recover_to_twin_parity():
    fleet = supervised(checkpoint_every=90)
    twin = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(16)
        twin.spawn_many(16)
        events = workload(fleet.machine, 16, 360, seed=13)
        half = len(events) // 2
        fleet.run(events[:half])
        twin.run(events[:half])
        for wid in range(fleet.workers):
            sigkill_worker(fleet, wid)
        fleet.run(events[half:])  # fully deferred through the journal
        twin.run(events[half:])
        assert fleet.await_recovery(timeout=30)
        assert diff_fleets(fleet, twin, keys) == []
        assert fleet.metrics.as_dict() == twin.metrics.as_dict()
    finally:
        fleet.close()
        twin.close()


def test_checkpoint_cadence_bounds_replay():
    fleet = supervised(checkpoint_every=60)
    try:
        fleet.spawn_many(8)
        events = workload(fleet.machine, 8, 400, seed=2)
        fleet.run(events)
        registry = fleet.telemetry_registry()
        # Initial checkpoints (one per worker) plus at least one cadence
        # checkpoint: 400 journaled events with a 60-event cadence.
        assert registry.counters["fleet_checkpoints_total"].value > 2
        sigkill_worker(fleet, 0)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        replayed = registry.counters["fleet_events_replayed_total"].value
        # The journal was truncated at every checkpoint, so replay covers
        # only the post-checkpoint suffix, not the whole history.
        assert replayed < len(events)
    finally:
        fleet.close()


def test_lifecycle_ops_survive_recovery():
    """Spawn/despawn/recycle/deliver journal after their ack and replay."""
    fleet = supervised(checkpoint_every=10_000)
    twin = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(12)
        twin.spawn_many(12)
        fleet.despawn(keys[3])
        twin.despawn(keys[3])
        fleet.deliver(keys[0], "update")
        twin.deliver(keys[0], "update")
        fleet.recycle(keys[0])
        twin.recycle(keys[0])
        survivors = [k for k in keys if k != keys[3]]
        events = [(k, "update") for k in survivors]
        fleet.run(events)
        twin.run(events)
        sigkill_worker(fleet, 1)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        assert diff_fleets(fleet, twin, survivors) == []
        assert fleet.metrics.as_dict() == twin.metrics.as_dict()
        assert keys[3] not in fleet
    finally:
        fleet.close()
        twin.close()


# ---------------------------------------------------------------------------
# routing: the parent's one int per key is each worker's own slot layout
# ---------------------------------------------------------------------------


def worker_layouts(fleet):
    """``key -> (wid, slot)`` as each worker's store lays it out, read from
    the worker's own checkpoint columns."""
    layout = {}
    for wid in range(fleet.workers):
        key_of = pickle.loads(fleet._request(wid, "checkpoint"))[0]
        for slot, key in enumerate(key_of):
            if key is not None:
                layout[key] = (wid, slot)
    return layout


def assert_routing_agrees(fleet, twins):
    """The parent's routing table, each worker's store and one in-process
    engine per worker (fed the same operations) name the same slots."""
    routed = {key: fleet._locate(key) for key in fleet._route}
    expected = {
        key: (wid, slot)
        for wid, twin in enumerate(twins)
        for key, slot in twin.store.slot_of.items()
    }
    assert routed == worker_layouts(fleet) == expected


def test_mp_routing_equals_inprocess_routing():
    fleet = supervised(checkpoint_every=50)
    reference = make_fleet("commit", mode="encoded")
    twins = [make_fleet("commit", mode="encoded") for _ in range(fleet.workers)]
    try:
        keys = fleet.spawn_many(12)
        reference.spawn_many(12)
        for key in keys:
            twins[fleet.worker_of(key)].spawn(key)
        # Despawn, then spawn into the freed slots (LIFO reuse).
        for key in (keys[2], keys[7], keys[5]):
            for target in (fleet, reference, twins[fleet.worker_of(key)]):
                target.despawn(key)
        for key in ("late-a", "late-b"):
            for target in (fleet, reference, twins[fleet.worker_of(key)]):
                target.spawn(key)
        assert_routing_agrees(fleet, twins)
        live = sorted(fleet._route)
        messages = [message for _, message in workload(fleet.machine, 12, 200, seed=5)]
        events = [(live[i % len(live)], m) for i, m in enumerate(messages)]
        fleet.run(events)
        reference.run(events)
        assert diff_fleets(fleet, reference, live) == []

        # A restore lays each partition out in snapshot order.
        snapshot = reference.snapshot()
        snapshot = replace(snapshot, instances=snapshot.instances[::-1])
        fleet.restore(snapshot)
        for wid, twin in enumerate(twins):
            mine = tuple(i for i in snapshot.instances if fleet.worker_of(i.key) == wid)
            twin.restore(replace(snapshot, instances=mine))
        assert_routing_agrees(fleet, twins)

        # A SIGKILLed worker comes back at the same layout.
        fleet.run(events)
        reference.run(events)
        sigkill_worker(fleet, 1)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        assert_routing_agrees(fleet, twins)
        assert diff_fleets(fleet, reference, live) == []
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# checkpoint blobs: raw columns, round trip, refusal of a bad blob
# ---------------------------------------------------------------------------

CHECKPOINTED = [("naive", "full"), ("encoded", "full"), ("encoded", "off")] + (
    [("vector", "full"), ("vector", "off")] if HAS_NUMPY else []
)


def churned_engine(mode, log_policy):
    """An engine with traffic behind it and two slots on its free list."""
    engine = make_fleet("commit", mode=mode, log_policy=log_policy, auto_recycle=True)
    keys = engine.spawn_many(10)
    engine.run(workload(engine.machine, 10, 150, seed=3))
    engine.despawn(keys[6])
    engine.despawn(keys[2])
    return engine


def layout_of(engine):
    """Slot keys, free-list stack, and each instance in slot order."""
    store = engine.store
    observed = [
        engine.trace(key) if engine.log_policy == "full" else engine.state_name(key)
        for key in store.key_of
        if key is not None
    ]
    return list(store.key_of), list(store.free_slots), observed


@pytest.mark.parametrize("mode,log_policy", CHECKPOINTED)
def test_checkpoint_round_trip_keeps_the_layout(mode, log_policy):
    source = churned_engine(mode, log_policy)
    blob = partition_checkpoint(source)
    assert type(blob) is bytes
    rebuilt = make_fleet("commit", mode=mode, log_policy=log_policy, auto_recycle=True)
    rebuilt.spawn_many(3)  # whatever was there is replaced
    rehydrate(rebuilt, blob)
    assert layout_of(rebuilt) == layout_of(source)
    # The rebuilt partition keeps serving identically: spawns pop the
    # same free slots and the same traffic lands the same way.
    more = workload(source.machine, 10, 100, seed=8)
    more = [(key, message) for key, message in more if key in source]
    for engine in (source, rebuilt):
        engine.spawn("after")
        engine.run(more)
    assert layout_of(rebuilt) == layout_of(source)
    assert rebuilt.store.slot_of["after"] == source.store.slot_of["after"]


def test_bad_checkpoint_blob_is_refused_before_anything_changes():
    source = churned_engine("encoded", "full")
    blob = partition_checkpoint(source)
    key_of, free, states, logs, registry = pickle.loads(blob)
    width = source._width
    out_of_range = array("q", states)
    out_of_range[0] = len(source._table.state_names) * width
    misaligned = array("q", states)
    misaligned[0] += 1
    bad = {
        "truncated": blob[: len(blob) // 2],
        "out of range": pickle.dumps((key_of, free, out_of_range, logs, registry)),
        "misaligned": pickle.dumps((key_of, free, misaligned, logs, registry)),
        "short column": pickle.dumps((key_of, free, states[:-1], logs, registry)),
        # The registry carries the partition's counters: it is required.
        "no registry": pickle.dumps((key_of, free, states, logs, None)),
        "registry slot": pickle.dumps(
            (key_of, free, states, logs, {"fleet_batch_events": 1})
        ),
    }
    target = make_fleet("commit", mode="encoded")
    target.spawn_many(4)
    before = target.snapshot()
    for label, corrupt in bad.items():
        with pytest.raises(DeploymentError, match="corrupt partition checkpoint"):
            rehydrate(target, corrupt)
        assert target.snapshot().instances == before.instances, label


# ---------------------------------------------------------------------------
# the RECOVERING window
# ---------------------------------------------------------------------------


def slow_launch(fleet, delay=0.4):
    """Make respawns slow so tests can observe the RECOVERING window."""
    original = fleet._launch_worker

    def launch():
        time.sleep(delay)
        return original()

    fleet._launch_worker = launch


def test_sync_ops_raise_transient_error_during_recovery():
    fleet = supervised(recovery=RecoveryPolicy(retry_after_s=0.5))
    twin = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(8)
        twin.spawn_many(8)
        warmup = workload(fleet.machine, 8, 60, seed=3)
        fleet.run(warmup)
        twin.run(warmup)
        slow_launch(fleet)
        victim_wid = 0
        victim_keys = [k for k in keys if fleet.worker_of(k) == victim_wid]
        assert victim_keys
        sigkill_worker(fleet, victim_wid)
        fleet.check_workers()
        assert fleet.worker_states()[victim_wid] == "recovering"
        assert fleet.is_recovering()
        with pytest.raises(FleetRecoveringError) as err:
            fleet.deliver(victim_keys[0], "update")
        assert err.value.worker_id == victim_wid
        assert err.value.retry_after == 0.5
        # The transient error is still a DeploymentError: existing
        # handlers that catch the permanent flavour keep working.
        assert isinstance(err.value, DeploymentError)
        with pytest.raises(FleetRecoveringError):
            fleet.state_name(victim_keys[0])
        # Bulk dispatch is accepted and deferred, not refused.
        fleet.run([(victim_keys[0], "update")])
        twin.run([(victim_keys[0], "update")])
        assert fleet.await_recovery(timeout=30)
        # The deferred event landed during replay: the healed fleet
        # matches a twin that dispatched the same event live.
        assert diff_fleets(fleet, twin, keys) == []
        assert fleet.metrics.as_dict() == twin.metrics.as_dict()
    finally:
        fleet.close()
        twin.close()


def test_kill_during_recovery_retries_and_heals():
    fleet = supervised(
        recovery=RecoveryPolicy(max_restarts=4, backoff_s=0.02)
    )
    twin = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(12)
        twin.spawn_many(12)
        events = workload(fleet.machine, 12, 200, seed=9)
        fleet.run(events)
        twin.run(events)
        original = fleet._launch_worker
        sabotaged = []

        def flaky_launch():
            handle = original()
            if not sabotaged:  # first respawn attempt dies immediately
                sabotaged.append(True)
                handle.process.kill()
            return handle

        fleet._launch_worker = flaky_launch
        sigkill_worker(fleet, 1)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        assert sabotaged  # the sabotage actually fired
        assert fleet.worker_states() == ["live", "live"]
        assert diff_fleets(fleet, twin, keys) == []
    finally:
        fleet.close()
        twin.close()


def never_starting(fleet, monkeypatch, on_launch=lambda: None):
    """Make every respawn a worker that never starts, and record the
    supervisor's back-off sleeps instead of sleeping them.  Returns the
    lists the launches and the delays are appended to."""
    launches, delays = [], []
    real_sleep = time.sleep

    def launch():
        launches.append(True)
        on_launch()
        raise DeploymentError("respawned worker never started")

    def recorded_sleep(seconds):
        if threading.current_thread().name.startswith("fleet-recovery"):
            delays.append(seconds)
        else:
            real_sleep(seconds)

    fleet._launch_worker = launch
    monkeypatch.setattr(mpfleet, "sleep", recorded_sleep)
    return launches, delays


def lose_worker(fleet, wid=0):
    fleet.spawn_many(4)
    sigkill_worker(fleet, wid)
    fleet.check_workers()


def test_backoff_delay_grows_by_its_factor(monkeypatch):
    fleet = supervised(
        recovery=RecoveryPolicy(max_restarts=3, backoff_s=0.01, backoff_factor=3.0)
    )
    try:
        _, delays = never_starting(fleet, monkeypatch)
        lose_worker(fleet)
        assert fleet.await_recovery(timeout=30)
        assert delays == pytest.approx([0.01, 0.03, 0.09])
    finally:
        fleet.close()


def test_worker_that_never_starts_is_launched_max_restarts_times(monkeypatch):
    fleet = supervised(recovery=RecoveryPolicy(max_restarts=3, backoff_s=0.0))
    try:
        launches, _ = never_starting(fleet, monkeypatch)
        lose_worker(fleet)
        assert fleet.await_recovery(timeout=30)
        assert len(launches) == 3
        assert fleet.worker_states()[0] == "dead"
        registry = fleet.telemetry_registry()
        assert registry.counters["fleet_recovery_failures_total"].value == 1
        # Back to the permanent-loss contract of the unsupervised fleet.
        victim = next(key for key in fleet._route if fleet.worker_of(key) == 0)
        with pytest.raises(DeploymentError, match="shard partition is lost"):
            fleet.deliver(victim, "update")
    finally:
        fleet.close()


def test_close_during_recovery_launches_nothing_after_it(monkeypatch):
    fleet = supervised(recovery=RecoveryPolicy(max_restarts=4, backoff_s=0.0))
    closers = []

    def close_meanwhile():
        if closers:
            return
        closer = threading.Thread(target=fleet.close)
        closers.append(closer)
        closer.start()
        deadline = time.perf_counter() + 10
        while not fleet._closing and time.perf_counter() < deadline:
            time.sleep(0.001)

    try:
        launches, _ = never_starting(fleet, monkeypatch, close_meanwhile)
        lose_worker(fleet)
        assert fleet.await_recovery(timeout=30)
        closers[0].join(timeout=30)
        assert not closers[0].is_alive()
        assert len(launches) == 1
        assert fleet.worker_states()[0] == "dead"
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# recovery observability
# ---------------------------------------------------------------------------


def test_recovery_trace_chains_incident_causality():
    fleet = supervised()
    try:
        fleet.spawn_many(8)
        events = workload(fleet.machine, 8, 100)
        fleet.run(events)
        sigkill_worker(fleet, 1)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        trace = fleet.recovery_trace
        tid = trace.records()[0].trace_id
        assert trace.kinds(tid) == (
            "worker_die",
            "worker_respawn",
            "worker_replay",
            "worker_resume",
        )
        # A second incident mints a fresh trace id with its own chain —
        # trace-id streams stay replay-exact across recoveries.
        sigkill_worker(fleet, 1)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        incidents = {record.trace_id for record in trace.records()}
        assert len(incidents) == 2
        second = (incidents - {tid}).pop()
        assert trace.kinds(second) == (
            "worker_die",
            "worker_respawn",
            "worker_replay",
            "worker_resume",
        )
        registry = fleet.telemetry_registry()
        assert registry.counters["fleet_worker_restarts_total"].value == 2
        assert registry.histograms["fleet_recovery_seconds"].count == 2
    finally:
        fleet.close()


def counter_readings(fleet):
    """Every count a supervised, instrumented fleet reports: its
    ``FleetMetrics`` but its shard-depth gauge, the fleet registry's
    counters, and the batch-size histogram's count and sum."""
    readings = fleet.metrics.as_dict()
    del readings["shard_depths"]
    registry = fleet.telemetry_registry()
    readings.update(
        (name, counter.value) for name, counter in registry.counters.items()
    )
    batches = registry.histograms["fleet_batch_events"]
    readings["fleet_batch_events_count"] = batches.count
    readings["fleet_batch_events_sum"] = batches.total
    return readings


def test_no_counter_falls_during_a_recovery_window():
    # Only the initial checkpoint exists: the dead worker's partition is
    # rebuilt from an empty layout plus the whole journal.
    fleet = supervised(telemetry=True, checkpoint_every=10_000)
    twin = make_fleet("commit", mode="encoded", workers=2, telemetry=True)
    try:
        fleet.spawn_many(12)
        twin.spawn_many(12)
        events = workload(fleet.machine, 12, 300, seed=4)
        fleet.run(events)
        twin.run(events)
        readings = [counter_readings(fleet)]
        slow_launch(fleet, delay=1.0)
        sigkill_worker(fleet, 0)
        fleet.check_workers()
        assert fleet.worker_states()[0] == "recovering"
        readings.append(counter_readings(fleet))
        assert fleet.worker_states()[0] == "recovering"
        assert fleet.await_recovery(timeout=30)
        readings.append(counter_readings(fleet))
        for name in readings[0]:
            values = [reading[name] for reading in readings]
            assert values == sorted(values), (name, values)
        assert readings[0]["events_dispatched"] == len(events)
        assert fleet.metrics.as_dict() == twin.metrics.as_dict()
        healed = fleet.telemetry_registry().histograms["fleet_batch_events"]
        unkilled = twin.telemetry_registry().histograms["fleet_batch_events"]
        assert (healed.count, healed.total) == (unkilled.count, unkilled.total)
    finally:
        fleet.close()
        twin.close()


def test_the_swap_loses_no_count_under_a_tiny_switch_interval():
    # The recovery thread moves the fleet counters when it swaps the
    # rebuilt partition in, while the main thread keeps counting the
    # survivors' replies: a lost update would leave them off the twin's.
    fleet = supervised(workers=3, checkpoint_every=10_000)
    twin = make_fleet("commit", mode="encoded", workers=3)
    interval = sys.getswitchinterval()
    try:
        keys = fleet.spawn_many(30)
        twin.spawn_many(30)
        events = workload(fleet.machine, 30, 600, seed=5)
        fleet.run(events)
        twin.run(events)
        survivors = [key for key in keys if fleet.worker_of(key) != 0]
        sys.setswitchinterval(1e-6)
        slow_launch(fleet, delay=0.2)
        sigkill_worker(fleet, 0)
        fleet.check_workers()
        deadline = time.monotonic() + 30
        while fleet.is_recovering() and time.monotonic() < deadline:
            for key in survivors:
                fleet.deliver(key, "update")
                twin.deliver(key, "update")
        assert fleet.await_recovery(timeout=30)
        assert fleet.worker_states() == ["live"] * 3
        assert fleet.metrics.as_dict() == twin.metrics.as_dict()
    finally:
        sys.setswitchinterval(interval)
        fleet.close()
        twin.close()


def test_snapshot_counts_survive_recovery():
    # Fleet-wide snapshots and restores are counted once, by the parent,
    # so a worker's death neither doubles nor loses them.
    fleet = supervised()
    try:
        fleet.spawn_many(8)
        fleet.restore(fleet.snapshot())
        counts = (fleet.metrics.snapshots_taken, fleet.metrics.snapshots_restored)
        assert counts == (1, 1)
        sigkill_worker(fleet, 0)
        fleet.check_workers()
        assert fleet.await_recovery(timeout=30)
        assert fleet.worker_states() == ["live", "live"]
        counts = (fleet.metrics.snapshots_taken, fleet.metrics.snapshots_restored)
        assert counts == (1, 1)
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# partial snapshots of survivors
# ---------------------------------------------------------------------------


def test_partial_snapshot_survivors_and_manifest():
    fleet = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(16)
        events = workload(fleet.machine, 16, 200)
        fleet.run(events)
        survivors = [k for k in keys if fleet.worker_of(k) == 0]
        casualties = [k for k in keys if fleet.worker_of(k) == 1]
        traces = {k: fleet.trace(k) for k in survivors}
        sigkill_worker(fleet, 1)
        with pytest.raises(DeploymentError, match="cannot snapshot"):
            fleet.snapshot()
        partial = fleet.snapshot(allow_partial=True)
        assert sorted(partial.lost) == sorted(casualties)
        captured = {inst.key for inst in partial.instances}
        assert captured == set(survivors)

        # Restore-side validation: a partial snapshot refuses to restore
        # silently, then restores the survivors when the loss is
        # explicitly accepted.
        target = make_fleet("commit", mode="encoded")
        try:
            with pytest.raises(DeploymentError, match="snapshot is partial"):
                target.restore(partial)
            target.restore(partial, allow_partial=True)
            assert len(target) == len(survivors)
            for key in survivors:
                assert target.trace(key) == traces[key]
        finally:
            target.close()

        mp_target = make_fleet("commit", mode="encoded", workers=2)
        try:
            with pytest.raises(DeploymentError, match="snapshot is partial"):
                mp_target.restore(partial)
            mp_target.restore(partial, allow_partial=True)
            assert len(mp_target) == len(survivors)
        finally:
            mp_target.close()
    finally:
        fleet.close()


def test_whole_snapshot_has_empty_manifest():
    fleet = make_fleet("commit", mode="encoded", workers=2)
    try:
        fleet.spawn_many(8)
        snapshot = fleet.snapshot(allow_partial=True)
        assert snapshot.lost == ()
    finally:
        fleet.close()


def test_supervised_snapshot_waits_out_recovery():
    fleet = supervised()
    twin = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(12)
        twin.spawn_many(12)
        events = workload(fleet.machine, 12, 200, seed=6)
        fleet.run(events)
        twin.run(events)
        sigkill_worker(fleet, 0)
        fleet.check_workers()
        # Strict snapshot right after a death: blocks until healed, then
        # captures the whole population.
        snapshot = fleet.snapshot()
        assert snapshot.lost == ()
        assert {inst.key for inst in snapshot.instances} == set(keys)
        assert snapshot == twin.snapshot()
    finally:
        fleet.close()
        twin.close()


# ---------------------------------------------------------------------------
# shutdown escalation (satellite: close() can never hang)
# ---------------------------------------------------------------------------


def _stubborn(ready):
    """A worker stand-in that ignores SIGTERM and never exits."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    while True:
        time.sleep(0.05)


def test_close_escalates_past_wedged_worker():
    import multiprocessing

    fleet = make_fleet("commit", mode="encoded", workers=2, join_timeout=0.2)
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    ready = ctx.Event()
    stuck = ctx.Process(target=_stubborn, args=(ready,), daemon=True)
    stuck.start()
    assert ready.wait(timeout=10)
    # Swap the wedged process in for worker 0's and sever the handle so
    # close() goes straight to the join/terminate/kill ladder.
    real = fleet._workers[0].process
    fleet._workers[0].process = stuck
    fleet._workers[0].status = "dead"
    fleet._workers[0].channel.close()
    started = time.perf_counter()
    fleet.close()
    elapsed = time.perf_counter() - started
    # join(0.2) fails, terminate() is ignored, kill() ends it — well
    # under the multi-second hang a second blocking join would cost.
    assert not stuck.is_alive()
    assert elapsed < 5.0
    real.join(timeout=10)  # the displaced real worker exits on conn EOF
    assert not real.is_alive()


# ---------------------------------------------------------------------------
# a worker never outlives its parent
# ---------------------------------------------------------------------------

#: Builds a journaled 2-worker fleet, has one worker killed and respawned,
#: prints every live worker's pid, then waits to be killed itself.
ORPHAN_PARENT = """
import os, signal, sys, time
from repro.serve import make_fleet

fleet = make_fleet(
    "commit", mode="encoded", workers=2, journal=True,
    start_method=sys.argv[1],
)
victim = fleet._workers[0].process
os.kill(victim.pid, signal.SIGKILL)
victim.join(timeout=10)
fleet.check_workers()
assert fleet.await_recovery(timeout=30)
print(*fleet.worker_pids(), flush=True)
time.sleep(60)
"""


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
@pytest.mark.parametrize(
    "start_method, signum",
    [("fork", signal.SIGKILL), ("spawn", signal.SIGTERM)],
    ids=["fork-sigkill", "spawn-sigterm"],
)
def test_workers_never_outlive_their_parent(start_method, signum):
    import multiprocessing
    import pathlib
    import subprocess
    import sys

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} start method here")
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    parent = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_PARENT, start_method],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2, pids
        os.kill(parent.pid, signum)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [pid for pid in pids if running(pid)] == []
    finally:
        for pid in [parent.pid, *pids]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        parent.wait(timeout=10)
        parent.stdout.close()
