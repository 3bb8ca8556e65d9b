"""Fleet engine tests: differential equivalence, lifecycle, snapshots."""

from array import array

import pytest

from repro.core.errors import DeploymentError
from repro.serve import (
    HAS_NUMPY,
    FleetMetrics,
    FleetSnapshot,
    InstanceSnapshot,
    SCENARIOS,
    WorkloadSpec,
    diff_against_standalone,
    generate_workload,
)
from tests.serve.conftest import BUNDLED_MODELS, machine_for

#: The dispatch modes this environment can build.
MODES = ["naive", "encoded"] + (["vector"] if HAS_NUMPY else [])

#: The table-dispatch modes (the ones a log policy applies to).
TABLE_MODES = ["encoded"] + (["vector"] if HAS_NUMPY else [])

#: (mode, backend) pairs that run different code: only ``naive`` reads
#: ``backend``, so the table modes are built with the interpreter alone.
CONFIGS = [("naive", "interp"), ("naive", "compiled")] + [
    (mode, "interp") for mode in TABLE_MODES
]


class TestDifferential:
    """A fleet run equals a standalone interpreter replay, per instance."""

    @pytest.mark.parametrize("model", BUNDLED_MODELS)
    @pytest.mark.parametrize("engine", ["eager", "lazy"])
    @pytest.mark.parametrize("mode,backend", CONFIGS)
    def test_fleet_equals_standalone(self, make_fleet, model, engine, backend, mode):
        machine = machine_for(model, engine)
        events = generate_workload(
            machine, WorkloadSpec(instances=23, events=1_500, seed=11)
        )
        fleet = make_fleet(machine, dispatch=mode, backend=backend, auto_recycle=True)
        keys = fleet.spawn_many(23)
        fleet.run(events)
        assert diff_against_standalone(fleet, keys, events) == []
        assert fleet.metrics.events_dispatched == len(events)

    @pytest.mark.parametrize("model", BUNDLED_MODELS)
    @pytest.mark.parametrize("mode", MODES)
    def test_pre_encoded_schedule_equals_standalone(self, make_fleet, model, mode):
        """A run of a once-interned flat schedule matches the replay."""
        machine = machine_for(model)
        events = generate_workload(
            machine, WorkloadSpec(instances=17, events=1_200, seed=29)
        )
        fleet = make_fleet(machine, dispatch=mode, auto_recycle=True)
        keys = fleet.spawn_many(17)
        fleet.run(fleet.encode_flat(events), encoding="flat")
        assert diff_against_standalone(fleet, keys, events) == []

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_arrival_scenario_equals_standalone(
        self, make_fleet, scenario, mode
    ):
        """Hot keys and bursts reorder cross-key work, never per-key order."""
        machine = machine_for("commit")
        events = generate_workload(
            machine,
            WorkloadSpec(scenario=scenario, instances=120, events=3_000, seed=3),
        )
        fleet = make_fleet(machine, dispatch=mode, auto_recycle=True)
        keys = fleet.spawn_many(120)
        fleet.run(events)
        assert diff_against_standalone(fleet, keys, events) == []
        assert fleet.metrics.events_dispatched == len(events)

    @pytest.mark.parametrize("mode", MODES)
    def test_without_auto_recycle(self, make_fleet, mode):
        machine = machine_for("commit")
        events = generate_workload(
            machine, WorkloadSpec(instances=10, events=400, seed=2)
        )
        fleet = make_fleet(dispatch=mode, auto_recycle=False)
        keys = fleet.spawn_many(10)
        fleet.run(events)
        assert diff_against_standalone(fleet, keys, events) == []

    @pytest.mark.parametrize("mode", MODES)
    def test_posted_events_dispatch_before_bulk_run(self, make_fleet, mode):
        fleet = make_fleet(dispatch=mode)
        fleet.spawn("s")
        fleet.post("s", "free")
        fleet.run([("s", "update")])
        # free then update: both fired, in order.
        trace = fleet.trace("s")
        assert trace.actions == ("vote", "not_free")
        assert fleet.metrics.transitions_fired == 2


class TestLifecycle:
    @pytest.fixture(autouse=True)
    def _setup(self, make_fleet):
        self.make_fleet = make_fleet
        self.machine = machine_for("commit")

    @pytest.mark.parametrize("mode", MODES)
    def test_spawn_duplicate_preserves_existing_instance(self, mode):
        """A rejected duplicate must not clobber the live instance's state."""
        fleet = self.make_fleet(dispatch=mode)
        fleet.spawn("a")
        fleet.deliver("a", "update")
        before = fleet.trace("a")
        with pytest.raises(DeploymentError, match="already exists"):
            fleet.spawn("a")
        assert fleet.trace("a") == before
        assert len(fleet) == 1
        # Counted once, and the key still snapshots exactly once.
        assert fleet.metrics.instances_spawned == 1
        assert len(fleet.snapshot().instances) == 1

    @pytest.mark.parametrize("mode,backend", CONFIGS)
    def test_bad_event_does_not_poison_batch(self, mode, backend):
        fleet = self.make_fleet(dispatch=mode, backend=backend)
        fleet.spawn("a")
        with pytest.raises(DeploymentError, match="unknown message"):
            fleet.post("a", "bogus")
        fleet.post("a", "free")
        with pytest.raises(DeploymentError, match="unknown instance"):
            fleet.post("ghost", "free")
        fleet.post("a", "update")
        # The refused posts left the valid events around them queued.
        assert fleet.drain_all() == 2
        assert fleet.trace("a").actions == ("vote", "not_free")
        assert fleet.metrics.events_dispatched == 2
        assert fleet.metrics.transitions_fired == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_run_skips_bad_events_and_reports(self, mode):
        fleet = self.make_fleet(dispatch=mode)
        fleet.spawn("a")
        with pytest.raises(DeploymentError, match="2 event"):
            fleet.run(
                [("a", "bogus"), ("ghost", "free"), ("a", "free"), ("a", "update")]
            )
        # The valid events behind the bad ones were still dispatched.
        assert fleet.trace("a").actions == ("vote", "not_free")
        assert fleet.metrics.events_dispatched == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_run_counts_no_batch(self, mode):
        fleet = self.make_fleet(dispatch=mode)
        fleet.run([])
        assert fleet.metrics.batches_drained == 0
        assert fleet.metrics.events_dispatched == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_recycle_returns_to_start(self, mode):
        fleet = self.make_fleet(dispatch=mode)
        fleet.spawn("a")
        fleet.deliver("a", "free")
        fleet.deliver("a", "update")
        assert fleet.trace("a").actions == ("vote", "not_free")
        fleet.recycle("a")
        trace = fleet.trace("a")
        assert trace.state == self.machine.start_state.name
        assert trace.actions == ()
        assert fleet.metrics.instances_recycled == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_auto_recycle_counts_completions(self, mode):
        fleet = self.make_fleet(dispatch=mode, auto_recycle=True)
        fleet.spawn("a")
        for message in ["free", "update", "vote", "vote", "commit", "commit"]:
            fleet.deliver("a", message)
        trace = fleet.trace("a")
        assert trace.state == self.machine.start_state.name
        assert trace.actions == ()
        assert fleet.metrics.instances_recycled == 1
        assert not fleet.is_finished("a")


class TestDeliverNormalisation:
    """Unknown instance and unknown message raise the same API error type
    on every mode x backend combination — never a bare KeyError/ValueError."""

    @pytest.fixture(autouse=True)
    def _setup(self, make_fleet):
        self.make_fleet = make_fleet
        self.machine = machine_for("commit")

    @pytest.mark.parametrize("mode,backend", CONFIGS)
    def test_deliver_unknown_instance(self, mode, backend):
        fleet = self.make_fleet(dispatch=mode, backend=backend)
        fleet.spawn("a")
        with pytest.raises(DeploymentError, match="unknown instance"):
            fleet.deliver("ghost", "free")

    @pytest.mark.parametrize("mode,backend", CONFIGS)
    def test_deliver_unknown_message(self, mode, backend):
        fleet = self.make_fleet(dispatch=mode, backend=backend)
        fleet.spawn("a")
        with pytest.raises(DeploymentError, match="unknown message"):
            fleet.deliver("a", "bogus")
        # The failed delivery counted nothing and moved nothing.
        assert fleet.metrics.events_dispatched == 0
        assert fleet.trace("a").state == self.machine.start_state.name


class TestEncodedIntake:
    """Every mode interns events at intake: the queue carries (slot,
    column) int pairs and unknown keys/messages fail fast."""

    @pytest.fixture(autouse=True)
    def _setup(self, make_fleet):
        self.make_fleet = make_fleet
        self.machine = machine_for("commit")

    def test_queues_carry_int_pairs(self):
        # The reference mode too: its backends receive the message the
        # column names, but the queue holds no string — it is the flat
        # schedule run(flat) takes.
        fleet = self.make_fleet(dispatch="naive")
        slot = fleet.spawn("a")
        fleet.post("a", "free")
        column = fleet.indexed_machine.message_index()["free"]
        assert fleet._queue == array("q", [slot, column])
        fleet.post("a", "update")
        fleet.drain_all()
        assert fleet.trace("a").actions == ("vote", "not_free")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "bad_event,error",
        [(("a", "update", "extra"), ValueError), (5, TypeError)],
        ids=["non-pair", "non-iterable"],
    )
    def test_batch_that_raises_at_intake_is_not_counted(self, mode, bad_event, error):
        # Interning comes before accounting: such a batch dispatches
        # nothing, so it was neither offered nor drained.
        fleet = self.make_fleet(dispatch=mode)
        fresh = self.make_fleet(dispatch=mode)
        for each in (fleet, fresh):
            each.spawn("a")
        with pytest.raises(error):
            fleet.run([("a", "free"), bad_event, ("a", "update")])
        assert fleet.metrics.as_dict() == fresh.metrics.as_dict()
        assert fleet.trace("a") == fresh.trace("a")

    def test_encode_flat_is_the_pairwise_flattening(self):
        fleet = self.make_fleet(dispatch="encoded")
        fleet.spawn("a")
        fleet.spawn("b")
        slot_of = fleet.store.slot_of
        columns = fleet.indexed_machine.message_index()
        events = [("a", "free"), ("b", "update"), ("a", "update")]
        assert list(fleet.encode_flat(events)) == [
            slot_of["a"], columns["free"],
            slot_of["b"], columns["update"],
            slot_of["a"], columns["update"],
        ]  # fmt: skip

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "batch,reason",
        [
            ([-1, 0], "slot -1 is outside [0, 3)"),
            ([5, 0], "slot 5 is outside [0, 3)"),
            ([70000, 0], "slot 70000 is outside [0, 3)"),
            ([0, 0, 1, 99], "column 99 is outside [0, 5)"),
            ([0, -1], "column -1 is outside [0, 5)"),
            (array("i", [0, 0, 5, 0]), "slot 5 is outside [0, 3)"),
            (array("b", [0, -1]), "column -1 is outside [0, 5)"),
            (array("d", [0, 0]), "'float' object cannot be interpreted"),
        ],
        ids=[
            "slot-negative",
            "slot-past-end",
            "slot-wide",
            "column-past-end",
            "column-negative",
            "array-i",
            "array-b",
            "array-d",
        ],
    )
    def test_untrusted_flat_batch_is_refused_before_it_counts(
        self, mode, batch, reason
    ):
        # Only encode_flat's array('q') (or VectorSchedule) is trusted;
        # any other batch is checked whole, so a bad id neither wraps to
        # another instance, reads a foreign row, nor half-counts a batch.
        fleet = self.make_fleet(dispatch=mode)
        fresh = self.make_fleet(dispatch=mode)
        for each in (fleet, fresh):
            each.spawn_many(3)
        assert len(fleet.indexed_machine.message_index()) == 5
        for encoding in ("flat", "auto"):
            if encoding == "auto" and isinstance(batch, list):
                continue  # "auto" runs a list as (key, message) events
            with pytest.raises(DeploymentError) as err:
                fleet.run(batch, encoding=encoding)
            assert str(err.value).startswith(
                "encoding 'flat' needs a [slot, col, ...] int schedule "
                f"from encode_flat(); {reason}"
            )
        assert fleet.metrics.as_dict() == fresh.metrics.as_dict()
        assert fleet.snapshot().instances == fresh.snapshot().instances

    @pytest.mark.parametrize("mode", MODES)
    def test_untrusted_flat_batch_in_range_runs_like_the_trusted_one(self, mode):
        # The conversion path changes nothing about a good batch: a list
        # or a narrow array of valid ids runs as its array('q') twin.
        fleets = []
        for batch in (
            array("q", [0, 1, 2, 4, 0, 3]),
            [0, 1, 2, 4, 0, 3],
            array("i", [0, 1, 2, 4, 0, 3]),
            array("B", [0, 1, 2, 4, 0, 3]),
        ):
            fleet = self.make_fleet(dispatch=mode)
            keys = fleet.spawn_many(3)
            fleet.run(batch, encoding="flat")
            fleets.append(fleet)
        trusted, *converted = fleets
        assert trusted.metrics.events_dispatched == 3
        for fleet in converted:
            assert fleet.metrics.as_dict() == trusted.metrics.as_dict()
            assert [fleet.trace(k) for k in keys] == [trusted.trace(k) for k in keys]


class TestLogPolicies:
    @pytest.fixture(autouse=True)
    def _setup(self, make_fleet):
        self.make_fleet = make_fleet
        self.machine = machine_for("commit")
        self.events = generate_workload(
            self.machine, WorkloadSpec(instances=15, events=900, seed=21)
        )
        self.keys = [f"session-{i:07d}" for i in range(15)]

    @pytest.mark.parametrize("mode", TABLE_MODES)
    def test_off_policy_tracks_states_only(self, mode):
        full = self.make_fleet(dispatch=mode, auto_recycle=True)
        off = self.make_fleet(dispatch=mode, auto_recycle=True, log_policy="off")
        full.spawn_many(15)
        off.spawn_many(15)
        full.run(self.events)
        off.run(self.events)
        for key in self.keys:
            assert off.state_name(key) == full.state_name(key)
        assert off.metrics.as_dict() == full.metrics.as_dict()
        with pytest.raises(DeploymentError, match="log"):
            off.actions_since(self.keys[0])

    def test_reduced_policies_reject_traces_and_snapshots(self):
        fleet = self.make_fleet(dispatch="encoded", log_policy="off")
        fleet.spawn("a")
        with pytest.raises(DeploymentError, match="log_policy"):
            fleet.trace("a")
        with pytest.raises(DeploymentError, match="log_policy"):
            fleet.snapshot()
        with pytest.raises(DeploymentError, match="log_policy"):
            diff_against_standalone(fleet, ["a"], [])


class TestSlotRecycling:
    @pytest.fixture(autouse=True)
    def _setup(self, make_fleet):
        self.make_fleet = make_fleet
        self.machine = machine_for("commit")

    @pytest.mark.parametrize("mode", MODES)
    def test_despawn_frees_and_reuses_slot_without_leaking(self, mode):
        fleet = self.make_fleet(dispatch=mode)
        slot = fleet.spawn("a")
        fleet.deliver("a", "free")
        fleet.deliver("a", "update")
        assert fleet.trace("a").actions == ("vote", "not_free")
        fleet.despawn("a")
        assert "a" not in fleet
        assert len(fleet) == 0
        assert fleet.metrics.instances_released == 1
        # The reused slot starts pristine: no leaked state or action log.
        assert fleet.spawn("b") == slot
        trace = fleet.trace("b")
        assert trace.state == self.machine.start_state.name
        assert trace.actions == ()

    @pytest.mark.parametrize("mode", MODES)
    def test_despawn_delivers_every_queued_event_to_its_own_instance(self, mode):
        """Despawn drains the one queue whole: other keys' queued events
        reach their instances, and none reaches the slot's next occupant."""
        fleet = self.make_fleet(dispatch=mode)
        slots = {key: fleet.spawn(key) for key in (f"k{i}" for i in range(16))}
        for key in slots:
            fleet.post(key, "free")
            fleet.post(key, "update")
        fleet.despawn("k5")
        assert fleet.metrics.events_dispatched == 2 * len(slots)
        assert fleet.metrics.transitions_fired == 2 * len(slots)
        assert fleet.spawn("heir") == slots["k5"]
        assert fleet.drain_all() == 0
        assert fleet.trace("heir").actions == ()
        for key in slots.keys() - {"k5"}:
            assert fleet.trace(key).actions == ("vote", "not_free")

    @pytest.mark.parametrize("mode", MODES)
    def test_drain_all_dispatches_one_batch(self, mode):
        fleet = self.make_fleet(dispatch=mode)
        keys = fleet.spawn_many(40)
        for key in keys:
            fleet.post(key, "free")
        assert fleet.drain_all() == len(keys)
        assert fleet.metrics.batches_drained == 1
        assert fleet.metrics.shard_depths == [len(keys)]

    def test_posts_dispatch_after_spawn_and_recycle_churn(self):
        """After despawn churn hands slots to new keys, one post per
        live key dispatches exactly once per key."""
        fleet = self.make_fleet(dispatch="encoded")
        keys = fleet.spawn_many(64)
        for key in keys[::3]:
            fleet.despawn(key)
        replacements = [f"replacement-{i}" for i in range(10)]
        for key in replacements:
            fleet.spawn(key)
        for key in [k for k in keys if k in fleet] + replacements:
            fleet.post(key, "free")
        fleet.drain_all()
        assert fleet.metrics.events_dispatched == len(fleet)


class TestSnapshotRestore:
    @pytest.fixture(autouse=True)
    def _setup(self, make_fleet):
        self.make_fleet = make_fleet
        self.machine = machine_for("commit")
        self.events = generate_workload(
            self.machine, WorkloadSpec(instances=12, events=600, seed=5)
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_round_trip_resumes_identically(self, mode):
        midpoint = len(self.events) // 2
        fleet = self.make_fleet(dispatch=mode, auto_recycle=True)
        keys = fleet.spawn_many(12)
        fleet.run(self.events[:midpoint])
        snapshot = fleet.snapshot()

        fleet.run(self.events[midpoint:])
        expected = {key: fleet.trace(key) for key in keys}

        fleet.restore(snapshot)
        fleet.run(self.events[midpoint:])
        assert {key: fleet.trace(key) for key in keys} == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_snapshot_lists_instances_in_spawn_order(self, mode):
        fleet = self.make_fleet(dispatch=mode)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            fleet.spawn(key)
        # A despawned and respawned key moves to the end.
        fleet.despawn("k3")
        fleet.spawn("k3")
        order = [inst.key for inst in fleet.snapshot().instances]
        assert order == keys[:3] + keys[4:] + ["k3"]

    def test_restore_rejects_foreign_machine(self):
        fleet = self.make_fleet()
        fleet.spawn_many(3)
        snapshot = fleet.snapshot()
        other = self.make_fleet(model="termination")
        with pytest.raises(DeploymentError):
            other.restore(snapshot)

    def test_snapshot_drains_pending_events(self):
        fleet = self.make_fleet()
        fleet.spawn("a")
        fleet.post("a", "free")
        snapshot = fleet.snapshot()
        (inst,) = snapshot.instances
        assert inst.state != self.machine.start_state.name
        assert fleet.metrics.snapshots_taken == 1

    def test_restore_into_different_spawn_order_preserves_traces(self):
        """Slot assignment is an internal detail: a fleet whose intern
        table grew in a different order (and through despawn churn, so
        reused slots shuffle the layout further) must restore every
        per-key trace exactly."""
        fleet = self.make_fleet(dispatch="encoded")
        keys = fleet.spawn_many(12)
        fleet.run(self.events[:300])
        snapshot = fleet.snapshot()

        other = self.make_fleet(dispatch="encoded")
        for key in reversed(keys):
            other.spawn(key)
        for key in keys[::4]:
            other.despawn(key)  # punch free-list holes before the restore
        other.restore(snapshot)
        assert {k: other.trace(k) for k in keys} == {
            k: fleet.trace(k) for k in keys
        }
        # Both fleets keep executing identically after the restore, even
        # though their key -> slot layouts differ.
        fleet.run(self.events[300:])
        other.run(self.events[300:])
        assert {k: other.trace(k) for k in keys} == {
            k: fleet.trace(k) for k in keys
        }

    def test_restore_slot_reuse_does_not_leak_action_logs(self):
        """A restored population re-interns from slot zero; logs of the
        pre-restore occupants (including recycled slots) must not bleed
        into the restored instances."""
        fleet = self.make_fleet(dispatch="encoded")
        fleet.spawn("old-a")
        fleet.spawn("old-b")
        fleet.deliver("old-a", "free")
        fleet.deliver("old-b", "free")
        fleet.despawn("old-b")

        pristine = self.make_fleet(dispatch="encoded")
        pristine.spawn("new-a")
        pristine.spawn("new-b")
        snapshot = pristine.snapshot()

        fleet.restore(snapshot)
        for key in ("new-a", "new-b"):
            trace = fleet.trace(key)
            assert trace.state == self.machine.start_state.name
            assert trace.actions == ()
        assert "old-a" not in fleet
        assert len(fleet) == 2

    def test_restore_across_encoded_and_string_planes(self):
        fleet = self.make_fleet(dispatch="encoded")
        keys = fleet.spawn_many(12)
        fleet.run(self.events[:300])
        snapshot = fleet.snapshot()
        for mode, backend in CONFIGS:
            other = self.make_fleet(dispatch=mode, backend=backend)
            other.restore(snapshot)
            assert {k: other.trace(k) for k in keys} == {
                k: fleet.trace(k) for k in keys
            }

    @pytest.mark.parametrize("mode", MODES)
    def test_restore_after_recycle_rewinds_recycled_instances(self, mode):
        """Restoring a snapshot whose keys were recycled *after* the
        capture must rewind them to their snapshotted state and log."""
        fleet = self.make_fleet(dispatch=mode)
        keys = fleet.spawn_many(12)
        fleet.run(self.events[:300])
        snapshot = fleet.snapshot()
        expected = {inst.key: inst for inst in snapshot.instances}
        # Some snapshotted instances must be mid-protocol, or the
        # recycle below would be a no-op and prove nothing.
        moved = [
            k for k in keys
            if expected[k].state != self.machine.start_state.name
        ]
        assert moved

        for key in keys[::2]:
            fleet.recycle(key)
        start = self.machine.start_state.name
        assert all(fleet.trace(k).state == start for k in keys[::2])

        fleet.restore(snapshot)
        for key in keys:
            trace = fleet.trace(key)
            assert trace.state == expected[key].state
            assert trace.actions == expected[key].actions
        # Restored instances keep executing correctly from the rewound state.
        fleet.run(self.events[300:])
        replacement = self.make_fleet(dispatch=mode)
        replacement.restore(snapshot)
        replacement.run(self.events[300:])
        assert {k: fleet.trace(k) for k in keys} == {
            k: replacement.trace(k) for k in keys
        }


    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "kind", ["duplicate-key", "unknown-state", "int-key", "str-actions"]
    )
    def test_restore_is_all_or_nothing(self, mode, kind):
        """A snapshot that fails validation anywhere leaves the whole
        population as it was — never cleared and half respawned."""
        fleet = self.make_fleet(dispatch=mode)
        fleet.spawn_many(12)
        fleet.run(self.events[:300])
        before = fleet.snapshot()
        last, start = before.instances[-1], self.machine.start_state.name
        bad = {
            "duplicate-key": InstanceSnapshot(last.key, start, ()),
            "unknown-state": InstanceSnapshot("fresh", "NoSuchState", ()),
            "int-key": InstanceSnapshot(5, start, ()),
            "str-actions": InstanceSnapshot("fresh", start, "ab"),
        }[kind]
        torn = FleetSnapshot(before.machine_name, (*before.instances[1:], bad))
        with pytest.raises(DeploymentError):
            fleet.restore(torn)
        assert fleet.metrics.snapshots_restored == 0
        assert fleet.snapshot().instances == before.instances
        # The untouched population keeps serving.
        fleet.run(self.events[300:])
        assert fleet.metrics.events_dispatched == len(self.events)


class TestMetricsSurface:
    def test_metrics_are_slotted(self, make_fleet):
        metrics = make_fleet().metrics
        assert isinstance(metrics, FleetMetrics)
        with pytest.raises(AttributeError):
            metrics.events_dispactched = 1  # typo'd counters must not pass silently
        # A read-only view: the count lives in the registry, not here.
        with pytest.raises(AttributeError):
            metrics.events_dispatched = 1
