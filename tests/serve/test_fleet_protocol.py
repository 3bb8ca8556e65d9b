"""Shared conformance suite for the :class:`~repro.serve.api.Fleet` protocol.

Every test here runs against the in-process :class:`FleetEngine` and
the :class:`MultiprocessFleet`, each in every dispatch mode (``naive``,
``encoded``, ``vector``), via the ``any_fleet`` fixture.  This is the
contract both implementations
must honour: one dispatch entry point (``run(events, encoding=...)``),
one intake (every dispatch mode interns at ``post``/``run`` and runs
``encode_flat`` schedules), one error shape (:class:`DeploymentError`
with identical messages), portable snapshots, mergeable metrics,
explicit shutdown.  A new Fleet implementation earns its place by
passing this file unchanged.
"""

from array import array

import pytest

from repro.core.errors import DeploymentError
from repro.serve import (
    DISPATCH_MODES,
    ENCODINGS,
    HAS_NUMPY,
    EncodedFleetSchedule,
    Fleet,
    FleetEngine,
    MultiprocessFleet,
    VectorSchedule,
    diff_against_standalone,
    make_fleet,
)
from repro.serve.workload import WorkloadSpec, generate_workload

#: Implementation x dispatch plane matrix the whole suite runs over:
#: ``encoded`` unsuffixed, the ``naive`` reference mode, and the vector
#: planes, which require numpy (a soft dependency) and are skipped, not
#: silently dropped, where it is absent.
IMPLEMENTATIONS = (
    "inproc",
    "mp",
    "inproc-naive",
    "mp-naive",
    pytest.param(
        "inproc-vector",
        marks=pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available"),
    ),
    pytest.param(
        "mp-vector",
        marks=pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available"),
    ),
)


#: Multiprocess fleets on one and on four workers, in every dispatch
#: mode: a differential run must not depend on how keys are partitioned.
WORKER_COUNTS = tuple(
    pytest.param(
        f"{kind}-{mode}" if mode != "encoded" else kind,
        marks=pytest.mark.skipif(
            mode == "vector" and not HAS_NUMPY, reason="numpy not available"
        ),
    )
    for mode in DISPATCH_MODES
    for kind in ("mp1", "mp4")
)


def build_fleet(impl: str, **overrides):
    """One fleet of the requested implementation, encoded mode by default.

    ``mp`` runs two workers; ``mp1``/``mp4`` name another worker count.
    """
    kind, _, mode = impl.partition("-")
    kwargs = dict(mode=mode or "encoded")
    if kind.startswith("mp"):
        kwargs["workers"] = int(kind[2:] or 2)
    kwargs.update(overrides)
    return make_fleet("commit", **kwargs)


@pytest.fixture(params=IMPLEMENTATIONS)
def any_fleet(request):
    fleet = build_fleet(request.param)
    yield fleet
    fleet.close()


def workload(fleet, instances=12, events=120, seed=3):
    keys = fleet.spawn_many(instances)
    spec = WorkloadSpec(instances=instances, events=events, seed=seed)
    return keys, generate_workload(fleet.machine, spec)


def test_satisfies_protocol(any_fleet):
    assert isinstance(any_fleet, Fleet)


def test_implementations_are_distinct_types():
    # Guard against the fixture silently building the same class twice.
    inproc, mp = build_fleet("inproc"), build_fleet("mp")
    try:
        assert isinstance(inproc, FleetEngine)
        assert isinstance(mp, MultiprocessFleet)
    finally:
        inproc.close()
        mp.close()


def test_spawn_observe_lifecycle(any_fleet):
    fleet = any_fleet
    fleet.spawn("solo")
    assert "solo" in fleet
    assert len(fleet) == 1
    assert fleet.state_name("solo") == fleet.machine.start_state.name
    assert fleet.actions_since("solo", 0) == ()
    assert not fleet.is_finished("solo")
    trace = fleet.trace("solo")
    assert trace.key == "solo" and trace.actions == ()
    fleet.despawn("solo")
    assert "solo" not in fleet and len(fleet) == 0


@pytest.mark.parametrize("any_fleet", IMPLEMENTATIONS + WORKER_COUNTS, indirect=True)
def test_run_events_matches_standalone(any_fleet):
    keys, events = workload(any_fleet)
    metrics = any_fleet.run(events)
    assert metrics.events_dispatched == len(events)
    assert diff_against_standalone(any_fleet, keys, events) == []


@pytest.mark.parametrize("any_fleet", IMPLEMENTATIONS + WORKER_COUNTS, indirect=True)
def test_preencoded_runs_match_event_runs(any_fleet):
    keys, events = workload(any_fleet)
    metrics = any_fleet.run(any_fleet.encode_flat(events), encoding="flat")
    assert metrics.events_dispatched == len(events)
    assert diff_against_standalone(any_fleet, keys, events) == []


def test_auto_encoding_sniffs_preencoded_schedules(any_fleet):
    keys, events = workload(any_fleet)
    flat = any_fleet.encode_flat(events)
    metrics = any_fleet.run(flat)  # encoding="auto" sniffs the schedule
    assert metrics.events_dispatched == len(events)
    assert diff_against_standalone(any_fleet, keys, events) == []


def test_unknown_encoding_is_rejected(any_fleet):
    # "pairs" is gone, not deprecated: flat buffers are the one
    # pre-encoded form.
    for encoding in ("morse", "pairs"):
        with pytest.raises(DeploymentError) as err:
            any_fleet.run([], encoding=encoding)
        assert str(err.value) == (
            f"unknown encoding {encoding!r}; choose from {ENCODINGS}"
        )


def test_schedule_run_as_events_is_refused(any_fleet):
    # The explicit name is never overridden by a sniff: the in-process
    # engine used to fail unpacking an int, the multiprocess fleet ran
    # the schedule anyway.
    _, events = workload(any_fleet)
    schedule = any_fleet.encode_flat(events)
    with pytest.raises(DeploymentError) as err:
        any_fleet.run(schedule, encoding="events")
    assert str(err.value) == (
        "encoding 'events' needs (key, message) pairs, but the batch is a "
        "pre-encoded schedule; run it with encoding 'flat' or 'auto'"
    )
    assert any_fleet.metrics.events_dispatched == 0


def with_dangling_slot(schedule):
    """``schedule`` with one more slot and no column to go with it."""
    if isinstance(schedule, EncodedFleetSchedule):
        parts = [array("q", part) for part in schedule.parts]
        live = next(part for part in parts if part)
        live.append(live[0])
        return EncodedFleetSchedule(tuple(parts))
    if isinstance(schedule, VectorSchedule):
        schedule = schedule.flat
    flat = array("q", schedule)
    flat.append(flat[0])
    return flat


def test_odd_length_flat_schedule_is_rejected(any_fleet):
    # A dangling slot must be neither dropped (the scalar loop's zip)
    # nor paired with a neighbouring column (numpy broadcasting): every
    # mode refuses the buffer with one text before anything dispatches.
    keys, _ = workload(any_fleet, instances=3, events=0)
    odd = with_dangling_slot(any_fleet.encode_flat([(keys[0], "update")]))
    with pytest.raises(DeploymentError) as err:
        any_fleet.run(odd, encoding="flat")
    assert str(err.value) == (
        "flat schedule has odd length 3: a [slot, col, ...] "
        "buffer must hold whole pairs"
    )
    assert any_fleet.metrics.events_dispatched == 0
    start = any_fleet.machine.start_state.name
    assert [any_fleet.state_name(key) for key in keys] == [start] * 3


def test_string_pairs_run_as_flat_are_rejected(any_fleet):
    # String pairs are not a slot schedule: both fleets refuse them with
    # the protocol's error, before the queued post drains.
    keys, _ = workload(any_fleet, instances=2, events=0)
    any_fleet.post(keys[1], "update")
    for batch in ([(keys[0], "update")], [[keys[0], "update"]]):
        with pytest.raises(DeploymentError, match="encode_flat"):
            any_fleet.run(batch, encoding="flat")
    assert any_fleet.metrics.events_dispatched == 0


def test_non_int64_flat_schedule_is_rejected(any_fleet):
    # A list that no int64 buffer can hold (a float, an int past 2**63)
    # is refused like string pairs, before the queued post drains.
    keys, _ = workload(any_fleet, instances=2, events=0)
    any_fleet.post(keys[1], "update")
    for batch in ([0.5, 0.0], [2**70, 0]):
        with pytest.raises(DeploymentError, match="encode_flat"):
            any_fleet.run(batch, encoding="flat")
    assert any_fleet.metrics.events_dispatched == 0
    assert any_fleet.state_name(keys[0]) == any_fleet.machine.start_state.name


def test_unknown_instance_error_shape(any_fleet):
    with pytest.raises(DeploymentError, match="^unknown instance 'ghost'$"):
        any_fleet.deliver("ghost", "update")
    with pytest.raises(DeploymentError, match="^unknown instance 'ghost'$"):
        any_fleet.trace("ghost")
    with pytest.raises(DeploymentError, match="^unknown instance 'ghost'$"):
        any_fleet.post("ghost", "update")


def test_unknown_message_error_shape(any_fleet):
    any_fleet.spawn("one")
    with pytest.raises(DeploymentError, match="unknown message 'flarp'"):
        any_fleet.deliver("one", "flarp")
    # Interned at post, so the bad event never queues.
    with pytest.raises(DeploymentError, match="^unknown message 'flarp'$"):
        any_fleet.post("one", "flarp")
    assert any_fleet.drain_all() == 0
    assert any_fleet.metrics.events_dispatched == 0


def test_batch_rejection_error_shape(any_fleet):
    any_fleet.spawn("one")
    with pytest.raises(DeploymentError) as err:
        any_fleet.run([("one", "update"), ("ghost", "update")])
    assert "dispatch rejected 1 event(s)" in str(err.value)
    assert "'ghost'" in str(err.value)


def test_offered_counts_only_accepted_events(any_fleet):
    # events_offered is "accepted for dispatch" on both sides of the
    # process boundary: an unknown key or message is rejected, not offered.
    (key,) = any_fleet.spawn_many(1)
    with pytest.raises(DeploymentError, match="dispatch rejected 1 event"):
        any_fleet.run([(1, "update")])
    metrics = any_fleet.metrics
    assert (metrics.events_offered, metrics.events_dispatched) == (0, 0)
    assert metrics.batches_drained == 0
    with pytest.raises(DeploymentError, match="dispatch rejected 1 event"):
        any_fleet.run([(key, "update"), ("ghost", "update")])
    metrics = any_fleet.metrics
    assert (metrics.events_offered, metrics.events_dispatched) == (1, 1)


def test_non_string_key_is_refused(any_fleet):
    with pytest.raises(DeploymentError) as err:
        any_fleet.spawn(5)
    assert str(err.value) == "instance key must be a string, got 5"
    assert len(any_fleet) == 0


def test_negative_spawn_count_is_refused(any_fleet):
    with pytest.raises(DeploymentError) as err:
        any_fleet.spawn_many(-1)
    assert str(err.value) == "count must be a non-negative integer, got -1"
    assert any_fleet.spawn_many(0) == []


def test_restore_of_a_non_snapshot_is_refused(any_fleet):
    keys = any_fleet.spawn_many(2)
    with pytest.raises(DeploymentError) as err:
        any_fleet.restore("junk")
    assert str(err.value) == "restore needs a FleetSnapshot, got str"
    assert sorted(key for key in keys if key in any_fleet) == keys


def test_duplicate_spawn_error_shape(any_fleet):
    any_fleet.spawn("twin")
    with pytest.raises(DeploymentError, match="instance 'twin' already exists"):
        any_fleet.spawn("twin")


def test_post_then_drain(any_fleet):
    keys, _ = workload(any_fleet, instances=4, events=0)
    for key in keys:
        assert any_fleet.post(key, "update")
    assert any_fleet.drain_all() == len(keys)
    start = any_fleet.machine.start_state.name
    for key in keys:
        assert any_fleet.state_name(key) != start


def test_snapshot_restore_roundtrip(any_fleet):
    keys, events = workload(any_fleet)
    any_fleet.run(events)
    snapshot = any_fleet.snapshot()
    before = {key: any_fleet.trace(key) for key in keys}
    # Mutate, then restore: the fleet must rewind to the snapshot.
    any_fleet.despawn(keys[0])
    any_fleet.restore(snapshot)
    assert len(any_fleet) == len(keys)
    for key in keys:
        assert any_fleet.trace(key) == before[key]


@pytest.mark.parametrize("any_fleet", IMPLEMENTATIONS + WORKER_COUNTS, indirect=True)
def test_fleet_wide_snapshot_and_restore_count_once(any_fleet):
    # However many workers hold a share of the population, one snapshot
    # and one restore of the fleet are one of each in its counters.
    workload(any_fleet, events=0)
    any_fleet.restore(any_fleet.snapshot())
    metrics = any_fleet.metrics
    assert metrics.snapshots_taken == metrics.snapshots_restored == 1


def test_metrics_counts_dispatches(any_fleet):
    _, events = workload(any_fleet)
    any_fleet.run(events)
    metrics = any_fleet.metrics
    assert metrics.events_dispatched == len(events)
    assert metrics.transitions_fired + metrics.events_ignored == len(events)


def test_close_is_idempotent_and_context_managed(request):
    impls = ["inproc", "mp", "inproc-naive", "mp-naive"] + (
        ["inproc-vector", "mp-vector"] if HAS_NUMPY else []
    )
    for impl in impls:
        with build_fleet(impl) as fleet:
            fleet.spawn("x")
        fleet.close()  # second close is a no-op


#: The multiprocess builds: raw slot schedules mean nothing to them.
MP_IMPLEMENTATIONS = ("mp", "mp-naive", IMPLEMENTATIONS[-1])


@pytest.mark.parametrize("impl", MP_IMPLEMENTATIONS)
def test_multiprocess_refuses_raw_schedules_under_every_encoding(impl):
    # The in-process engine sniffs an array or a VectorSchedule as
    # "flat"; across processes its slots name no worker's instances, so
    # "auto" refuses it with the same text as an explicit "flat".
    with build_fleet(impl) as fleet:
        (key,) = fleet.spawn_many(1)
        raws = [array("q", [0, 0])]
        if HAS_NUMPY:
            raws.append(VectorSchedule(array("q", [0, 0])))
        for raw in raws:
            for encoding in ("auto", "flat"):
                with pytest.raises(DeploymentError) as err:
                    fleet.run(raw, encoding=encoding)
                assert str(err.value) == (
                    "encoding 'flat' on a multiprocess fleet needs an "
                    "EncodedFleetSchedule from this fleet's encode_flat(); "
                    "raw slot schedules are worker-local"
                )
        assert fleet.metrics.events_dispatched == 0
        assert fleet.state_name(key) == fleet.machine.start_state.name


@pytest.mark.parametrize("workers", [None, 1], ids=["inproc", "mp"])
@pytest.mark.parametrize(
    "options,error",
    [
        (
            {"backend": "compiled"},
            "backend 'compiled' is read only by dispatch mode 'naive'; "
            "mode 'encoded' executes the dispatch table itself",
        ),
        (
            {"backend": "compiled", "mode": "vector"},
            "backend 'compiled' is read only by dispatch mode 'naive'; "
            "mode 'vector' executes the dispatch table itself",
        ),
        (
            {"mode": "warp"},
            f"unknown dispatch mode 'warp'; choose from {DISPATCH_MODES}",
        ),
        (
            {"backend": "quantum", "mode": "naive"},
            "unknown backend 'quantum'; choose from ('interp', 'compiled')",
        ),
        (
            {"mode": "naive", "log_policy": "off"},
            "naive-mode backends always retain their action logs; "
            "log_policy 'off' needs a table-dispatch mode",
        ),
        (
            {"log_policy": "verbose"},
            "unknown log policy 'verbose'; choose from ('full', 'off')",
        ),
    ],
    ids=[
        "compiled-encoded",
        "compiled-vector",
        "unknown-mode",
        "unknown-backend",
        "naive-off",
        "unknown-log-policy",
    ],
)
def test_both_fleets_refuse_options_with_one_error(workers, options, error):
    # One check, run before anything is built: the multiprocess fleet
    # refuses in the parent, so no worker is forked to fail instead.
    with pytest.raises(DeploymentError) as err:
        make_fleet("commit", workers=workers, **options)
    assert str(err.value) == error


@pytest.mark.parametrize("workers", [None, 2], ids=["inproc", "mp"])
def test_telemetry_false_is_off_and_anything_else_is_refused(workers):
    # make_fleet reads telemetry= once for both fleets: False is None,
    # and a value that is neither a flag nor a FleetTelemetry is refused
    # before anything is built, not at the first dispatch.
    with make_fleet("commit", workers=workers, telemetry=False) as fleet:
        keys = fleet.spawn_many(4)
        fleet.run([(key, "update") for key in keys])
        assert fleet.post(keys[0], "vote")
        assert fleet.drain_all() == 1
        # Uninstrumented: the fleet's registry holds no histograms.
        registry = fleet.telemetry_registry()
        assert registry.histograms == {}
        assert registry.counter("fleet_events_dispatched_total").value == 5
    with pytest.raises(DeploymentError) as err:
        make_fleet("commit", workers=workers, telemetry="yes")
    assert str(err.value) == (
        "telemetry must be None, True, False or a FleetTelemetry, got 'yes'"
    )
