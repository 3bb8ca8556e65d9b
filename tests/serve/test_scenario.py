"""Scenario plane unit tests: wheel, timers, routing, faults, recovery."""

import math

import pytest

from repro.core import Wiring
from repro.core.errors import DeploymentError, ModelDefinitionError, SimulationError
from repro.models import CommitModel, CoordinatorRoundModel
from repro.obs import FleetTelemetry
from repro.serve import (
    HAS_NUMPY,
    GroupTopology,
    Scenario,
    ScenarioEngine,
    ScenarioFaultPlan,
    ScenarioSpec,
    TimedEvent,
    WorkloadSpec,
    diff_fleets,
    generate_scenario,
    generate_workload,
    run_scenario,
    session_keys,
)
from repro.serve.scenario import EXTERNAL
from tests.serve.conftest import machine_for

#: The dispatch modes this environment can build.
MODES = ["naive", "encoded"] + (["vector"] if HAS_NUMPY else [])

COMMIT_WIRING = CommitModel.wiring
CT_WIRING = CoordinatorRoundModel.wiring
LOSSY_KILL = ScenarioFaultPlan(kill_at=20.0, drop=0.05, duplicate=0.05, delay=0.05)


def _events(*triples):
    return tuple(TimedEvent(t, k, m) for t, k, m in triples)


class TestRuleValidation:
    def test_timer_delay_must_be_positive(self):
        with pytest.raises(SimulationError):
            Wiring(timer=("free", 0.0))
        with pytest.raises(SimulationError):
            Wiring(timer=("free", -1.0))

    def test_route_delay_must_be_non_negative(self):
        with pytest.raises(SimulationError):
            Wiring(peers=(("vote", "vote", -0.5),))
        Wiring(peers=(("vote", "vote", 0.0),))  # zero is legal: same-instant

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delays_refused(self, bad):
        # A nan delay once hung the wheel (nan never compares due) and
        # an inf route left its copies pending forever.
        with pytest.raises(SimulationError, match="timer delay must be finite"):
            Wiring(timer=("suspect", bad))
        with pytest.raises(SimulationError, match="route delay must be finite"):
            Wiring(peers=(("vote", "vote", bad),))
        with pytest.raises(SimulationError, match="delay_by must be finite"):
            ScenarioFaultPlan(delay=0.1, delay_by=bad)
        with pytest.raises(SimulationError, match="kill_at must be finite"):
            ScenarioFaultPlan(kill_at=bad)

    def test_kill_at_must_be_non_negative(self):
        with pytest.raises(SimulationError, match="kill_at must be finite and >= 0"):
            ScenarioFaultPlan.kill(at=-1.0)
        ScenarioFaultPlan.kill(at=0.0)

    @pytest.mark.parametrize("shard", [-1, 8, 99])
    def test_kill_shard_out_of_range_refused_at_construction(self, make_fleet, shard):
        fleet = make_fleet()
        with pytest.raises(SimulationError, match=r"kill_shard must be in range\(8\)"):
            ScenarioEngine(
                fleet,
                COMMIT_WIRING,
                GroupTopology.regular(1, 4),
                ScenarioFaultPlan.kill(at=50.0, shard=shard),
            )

    def test_peer_action_declared_once(self):
        with pytest.raises(ModelDefinitionError, match="twice"):
            Wiring(peers=(("vote", "vote", 1.0), ("vote", "commit", 1.0)))

    def test_fault_rates_validated(self):
        with pytest.raises(SimulationError):
            ScenarioFaultPlan(drop=1.5)
        with pytest.raises(SimulationError):
            ScenarioFaultPlan(drop=0.6, duplicate=0.6)
        with pytest.raises(SimulationError):
            ScenarioFaultPlan(delay=0.1, delay_by=-1.0)

    def test_fault_plan_activity_flags(self):
        assert not ScenarioFaultPlan().active
        assert ScenarioFaultPlan.kill(at=10.0).active
        assert ScenarioFaultPlan.lossy(drop=0.1).message_faults
        assert not ScenarioFaultPlan.kill(at=10.0).message_faults


class TestGroupTopology:
    def test_regular_generates_disjoint_groups(self):
        topo = GroupTopology.regular(3, 4)
        assert len(topo) == 12
        assert len(topo.groups) == 3
        assert topo.peers("g0001-m2") == ("g0001-m0", "g0001-m1", "g0001-m3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DeploymentError, match="more than one"):
            GroupTopology([["a", "b"], ["b", "c"]])

    def test_unknown_key_has_no_peers(self):
        assert GroupTopology.regular(1, 2).peers("ghost") == ()

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DeploymentError):
            GroupTopology.regular(0, 4)
        with pytest.raises(DeploymentError):
            GroupTopology.regular(4, 0)


class TestEngineValidation:
    def test_observing_scenario_needs_full_logs(self, make_fleet):
        fleet = make_fleet(dispatch="encoded", log_policy="off")
        wiring = Wiring(timer=("free", 5.0))
        with pytest.raises(DeploymentError, match="observable"):
            ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 2))

    def test_observing_scenario_rejects_auto_recycle(self, make_fleet):
        fleet = make_fleet(auto_recycle=True)
        wiring = Wiring(peers=(("vote", "vote", 1.0),))
        with pytest.raises(DeploymentError, match="auto_recycle"):
            ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 2))

    def test_passthrough_allows_reduced_logs(self, make_fleet):
        fleet = make_fleet(dispatch="encoded", log_policy="off")
        engine = ScenarioEngine(fleet, topology=GroupTopology.regular(1, 2))
        engine.spawn_topology()
        engine.schedule_event(1.0, "g0000-m0", "update")
        engine.run(until=10.0)
        assert engine.metrics.external_delivered == 1

    def test_kill_without_snapshot_raises(self, make_fleet):
        # Constructing the engine directly (not via run_scenario) and
        # forcing a kill with no snapshot on file must fail loudly.
        fleet = make_fleet()
        engine = ScenarioEngine(fleet, topology=GroupTopology.regular(1, 2))
        engine.spawn_topology()
        with pytest.raises(DeploymentError, match="no scenario snapshot"):
            engine._kill(0)


class TestPassthrough:
    """No timers, no routes, no faults: the wheel is a thin timed front."""

    @pytest.mark.parametrize("mode", MODES)
    def test_recorded_workload_matches_raw_flat_run(self, make_fleet, mode):
        """A recorded workload spread over 50 instants, one key per group,
        leaves the traces of one pre-encoded run of the same schedule."""
        machine = machine_for("commit")
        schedule = generate_workload(
            machine, WorkloadSpec(instances=100, events=2_500, seed=0)
        )
        per_tick = len(schedule) // 50
        scenario = Scenario(
            wiring=Wiring(),
            topology=GroupTopology([[key] for key in session_keys(100)]),
            events=tuple(
                TimedEvent(float(i // per_tick), key, message)
                for i, (key, message) in enumerate(schedule)
            ),
            until=50.0,
        )
        timed = make_fleet(machine, dispatch=mode, auto_recycle=True)
        engine = ScenarioEngine(timed, scenario.wiring, scenario.topology)
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.run(scenario.until)

        raw = make_fleet(machine, dispatch=mode, auto_recycle=True)
        raw.spawn_many(100)
        raw.run(raw.encode_flat(schedule), encoding="flat")
        assert diff_fleets(timed, raw, scenario.topology.keys) == []
        assert timed.metrics.events_dispatched == len(schedule)

    def test_same_instant_events_share_a_wheel_record(self, make_fleet):
        fleet = make_fleet(dispatch="encoded")
        engine = ScenarioEngine(fleet, topology=GroupTopology.regular(1, 3))
        engine.spawn_topology()
        engine.schedule_events(
            _events(
                (5.0, "g0000-m0", "free"),
                (5.0, "g0000-m1", "free"),
                (5.0, "g0000-m2", "free"),
                (9.0, "g0000-m0", "update"),
            )
        )
        assert engine.pending_records == 2  # two distinct instants
        engine.run(until=10.0)
        assert engine.metrics.instants == 2
        assert engine.metrics.external_delivered == 4
        assert engine.now == 10.0

    def test_run_advances_clock_even_when_idle(self, make_fleet):
        engine = ScenarioEngine(make_fleet(), topology=GroupTopology.regular(1, 1))
        engine.spawn_topology()
        engine.run(until=123.0)
        assert engine.now == 123.0
        assert engine.metrics.instants == 0


class TestTimers:
    def test_timer_fires_after_delay_in_place(self, make_fleet):
        fleet = make_fleet()
        wiring = Wiring(timer=("free", 5.0))
        engine = ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 1))
        engine.spawn_topology()
        engine.schedule_event(1.0, "g0000-m0", "update")
        engine.run(until=4.0)
        # Armed at priming, cancelled and re-armed when 'update' moved
        # the state at t=1; the re-armed timer is due at t=6.
        assert engine.metrics.timers_armed == 2
        assert engine.metrics.timers_cancelled == 1
        assert engine.metrics.timers_fired == 0
        engine.run(until=6.0)
        # Sat in the post-update state for 5 units: 'free' landed and
        # completed the update+free pair, firing the vote.
        assert engine.metrics.timers_fired == 1
        assert fleet.trace("g0000-m0").actions == ("vote", "not_free")

    def test_timer_cancelled_on_state_exit(self, make_fleet):
        fleet = make_fleet()
        wiring = Wiring(timer=("free", 50.0))
        engine = ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 1))
        engine.spawn_topology()
        engine.schedule_event(10.0, "g0000-m0", "update")
        engine.run(until=100.0)
        # The 'update' at t=10 left the armed state: the original timer
        # was cancelled and a fresh one armed for the new state.
        assert engine.metrics.timers_cancelled >= 1
        assert engine.metrics.timers_armed >= 2

    def test_fired_timer_rearms_for_periodic_behaviour(self, make_fleet):
        fleet = make_fleet()
        # 'vote' in the start state is ignored (no transition): the
        # instance never moves, so the any-state timer re-arms each fire.
        wiring = Wiring(timer=("vote", 10.0))
        engine = ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 1))
        engine.spawn_topology()
        engine.run(until=45.0)
        assert engine.metrics.timers_fired == 4  # t=10, 20, 30, 40

    def test_timer_identity_is_the_key_not_the_slot(self, make_fleet):
        """A timer that outlives its instance must raise, never deliver
        to the slot's next occupant."""
        fleet = make_fleet()
        wiring = Wiring(timer=("free", 20.0))
        engine = ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 2))
        engine.spawn_topology()
        engine.run(until=1.0)  # primes: both instances arm timers
        victim_slot = fleet.store.slot("g0000-m0")
        # Despawn behind the engine's back: its TIMER record stays live.
        fleet.despawn("g0000-m0")
        assert fleet.spawn("intruder") == victim_slot  # LIFO slot reuse
        with pytest.raises(DeploymentError):
            engine.run(until=30.0)
        # The reused slot was never touched: the intruder is pristine.
        assert fleet.trace("intruder").state == machine_for("commit").start_state.name
        assert fleet.trace("intruder").actions == ()

    def test_engine_despawn_cancels_pending_traffic(self, make_fleet):
        """The engine-level despawn is the safe form: the dead key's
        timer is cancelled with it, so nothing fires later."""
        fleet = make_fleet()
        wiring = Wiring(timer=("free", 20.0))
        engine = ScenarioEngine(fleet, wiring, GroupTopology.regular(1, 2))
        engine.spawn_topology()
        engine.run(until=1.0)
        engine.despawn("g0000-m0")
        engine.run(until=25.0)  # must not raise
        assert engine.metrics.timers_fired == 1  # only the survivor's

    def test_wheel_holds_one_entry_per_instant(self, make_fleet):
        """However many records share an instant, the wheel holds one
        entry for it; a cancelled record leaves its instant's entry in
        place, and an instant whose records were all cancelled passes
        uncounted."""
        machine = machine_for("chandra-toueg")
        scenario = generate_scenario(
            machine, CT_WIRING, ScenarioSpec(groups=4, group_size=5, seed=1)
        )
        engine = ScenarioEngine(
            make_fleet(machine), scenario.wiring, scenario.topology, seed=1
        )
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.schedule_event(500.0, "g0000-m0", "suspect")
        engine.schedule_event(500.0, "g0000-m1", "suspect")
        shared = False
        for until in (0.0, 5.0, 20.0, 60.0, 250.0):
            engine.run(until=until)
            entries = engine._sim.pending_events()
            assert entries == len(engine._instants)
            assert {rec[1] for rec in engine._pending.values()} <= set(engine._instants)
            shared |= engine.pending_records > entries
        assert shared
        for rid in [r for r, rec in engine._pending.items() if rec[1] == 500.0]:
            engine._cancel(rid)
        counted = engine.metrics.instants
        engine.run(until=500.0)
        assert engine.now == 500.0
        assert engine.metrics.instants == counted
        assert engine._sim.pending_events() == 0


class TestRouting:
    def test_routing_respects_topology_boundaries(self, make_fleet):
        fleet = make_fleet()
        wiring = Wiring(peers=(("vote", "vote", 1.0),))
        engine = ScenarioEngine(fleet, wiring, GroupTopology.regular(2, 3))
        engine.spawn_topology()
        engine.schedule_event(1.0, "g0000-m0", "update")
        engine.schedule_event(2.0, "g0000-m0", "free")
        engine.run(until=10.0)
        # Only the two same-group peers heard about it.
        assert engine.metrics.messages_routed == 2
        for key in ("g0001-m0", "g0001-m1", "g0001-m2"):
            assert fleet.trace(key).actions == ()

    def test_creation_message_delivered_at_spawn(self, make_fleet):
        fleet = make_fleet()
        engine = ScenarioEngine(
            fleet, Wiring(on_create="free"), GroupTopology.regular(2, 2)
        )
        engine.spawn_topology()
        engine.schedule_event(0.0, "g0000-m0", "update")
        engine.run(until=1.0)
        # Everyone was freed first, so m0's same-instant update votes.
        assert engine.metrics.external_delivered == 5
        assert fleet.trace("g0000-m0").actions == ("vote", "not_free")
        start = machine_for("commit").start_state.name
        assert all(fleet.trace(k).state != start for k in engine.fleet.store.keys())

    def test_commit_group_completes_from_kicks_alone(self, make_fleet):
        """The headline behaviour: one client update per member and the
        whole commit peer set runs machine-to-machine to COMMITTED —
        the deployed wiring, with no timer: each instance receives its
        creation ``free``, one update, three votes and three commits."""
        machine = machine_for("commit")
        scenario = generate_scenario(
            machine, COMMIT_WIRING, ScenarioSpec(groups=3, group_size=4, seed=0)
        )
        fleet = make_fleet(machine)
        engine = run_scenario(fleet, scenario)
        assert all(fleet.is_finished(k) for k in scenario.topology.keys)
        assert engine.metrics.events_delivered == 12 * 8
        assert engine.metrics.timers_armed == engine.metrics.timers_fired == 0

    def test_ct_rounds_complete_via_estimate_acks(self, make_fleet):
        machine = machine_for("chandra-toueg")
        scenario = generate_scenario(
            machine, CT_WIRING, ScenarioSpec(groups=3, group_size=5, seed=1)
        )
        fleet = make_fleet(machine)
        run_scenario(fleet, scenario)
        assert all(fleet.is_finished(k) for k in scenario.topology.keys)


class TestMessageFaults:
    def _run(self, make_fleet, faults, seed=5):
        machine = machine_for("commit")
        scenario = generate_scenario(
            machine,
            COMMIT_WIRING,
            ScenarioSpec(groups=4, group_size=4, seed=seed),
            faults=faults,
        )
        fleet = make_fleet(machine)
        return run_scenario(fleet, scenario), scenario

    def test_drop_loses_copies(self, make_fleet):
        engine, _ = self._run(make_fleet, ScenarioFaultPlan.lossy(drop=0.3))
        assert engine.metrics.messages_dropped > 0
        assert (
            engine.metrics.routed_delivered
            < engine.metrics.messages_routed + engine.metrics.messages_duplicated
        )

    def test_duplicate_adds_copies(self, make_fleet):
        engine, _ = self._run(
            make_fleet, ScenarioFaultPlan.lossy(drop=0.0, duplicate=0.3)
        )
        assert engine.metrics.messages_duplicated > 0
        assert engine.metrics.routed_delivered == (
            engine.metrics.messages_routed + engine.metrics.messages_duplicated
        )

    def test_delay_defers_but_delivers(self, make_fleet):
        engine, _ = self._run(
            make_fleet, ScenarioFaultPlan.lossy(drop=0.0, delay=0.3)
        )
        assert engine.metrics.messages_delayed > 0
        assert engine.metrics.routed_delivered == engine.metrics.messages_routed

    def test_every_stranded_group_lost_a_copy(self, make_fleet):
        """The deployed wiring has no retry timer, so a dropped vote or
        commit can strand a member.  Under 10 % drop over seeds 0-7,
        three seeds leave a group unfinished, and every such group had
        a routed copy addressed to one of its members dropped."""
        machine = machine_for("commit")
        stranded_seeds = []
        for seed in range(8):
            scenario = generate_scenario(
                machine,
                COMMIT_WIRING,
                ScenarioSpec(groups=4, group_size=4, seed=seed),
                faults=ScenarioFaultPlan.lossy(drop=0.1),
            )
            telemetry = FleetTelemetry()
            fleet = make_fleet(machine, telemetry=telemetry)
            run_scenario(fleet, scenario)
            dropped_to = {
                rec.key
                for rec in telemetry.trace.records()
                if rec.kind == "fault_drop"
            }
            for group in scenario.topology.groups:
                if not all(fleet.is_finished(key) for key in group):
                    assert dropped_to & set(group), f"seed {seed}: {group}"
                    stranded_seeds.append(seed)
        assert len(set(stranded_seeds)) == 3


class TestSnapshotRestore:
    def test_snapshot_restore_mid_scenario_is_exact(self, make_fleet):
        machine = machine_for("commit")
        scenario = generate_scenario(
            machine, COMMIT_WIRING, ScenarioSpec(groups=3, group_size=4, seed=7)
        )
        fleet = make_fleet(machine)
        engine = ScenarioEngine(
            fleet, scenario.wiring, scenario.topology, seed=scenario.seed
        )
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.run(until=20.0)
        snap = engine.snapshot()
        engine.run(until=scenario.until)
        expected = {k: fleet.trace(k) for k in scenario.topology.keys}

        engine.restore(snap)
        assert engine.now == snap.now
        engine.run(until=scenario.until)
        assert {k: fleet.trace(k) for k in scenario.topology.keys} == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_restore_with_inflight_encoded_batches(self, make_fleet, mode):
        """Snapshot while external batches are still pending: the
        restore re-files them on the wheel and the replay matches
        exactly."""
        machine = machine_for("commit")
        events = _events(
            *[(float(t), f"g{g:04d}-m{m}", msg)
              for t in (5, 30, 40)
              for g in range(2)
              for m in range(4)
              for msg in ("free", "update")]
        )
        scenario = Scenario(
            wiring=Wiring(),
            topology=GroupTopology.regular(2, 4),
            events=events,
            until=60.0,
        )
        fleet = make_fleet(machine, dispatch=mode)
        engine = ScenarioEngine(fleet, scenario.wiring, scenario.topology)
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.run(until=10.0)  # t=5 batch delivered; t=30, t=40 in flight
        snap = engine.snapshot()
        assert any(record[2] == EXTERNAL for record in snap.pending)
        engine.run(until=60.0)
        expected = {k: fleet.trace(k) for k in scenario.topology.keys}

        engine.restore(snap)
        engine.run(until=60.0)
        assert {k: fleet.trace(k) for k in scenario.topology.keys} == expected

    def test_periodic_snapshots_fire(self, make_fleet):
        machine = machine_for("commit")
        scenario = generate_scenario(
            machine,
            COMMIT_WIRING,
            ScenarioSpec(groups=2, group_size=4, seed=2, snapshot_every=50.0),
        )
        fleet = make_fleet(machine)
        engine = run_scenario(fleet, scenario)
        # until=400 with a 50-unit cadence: several captures happened.
        assert engine.metrics.snapshots_taken >= 4


class TestAnyFleet:
    """Observing scenarios use only the Fleet protocol: routed, timed and
    kill-shard runs on a 2-worker fleet end on the in-process fleet's
    traces and counters."""

    @pytest.mark.parametrize(
        "model, wiring, size, faults",
        [
            pytest.param("commit", COMMIT_WIRING, 4, None, id="commit-routes"),
            pytest.param("chandra-toueg", CT_WIRING, 5, None, id="ct-timers"),
            pytest.param(
                "commit", COMMIT_WIRING, 4, LOSSY_KILL, id="commit-kill-lossy"
            ),
        ],
    )
    def test_multiprocess_fleet_matches_in_process(
        self, make_fleet, model, wiring, size, faults
    ):
        machine = machine_for(model)
        scenario = generate_scenario(
            machine,
            wiring,
            ScenarioSpec(groups=3, group_size=size, seed=3),
            faults=faults,
        )
        reference = make_fleet(machine)
        expected = run_scenario(reference, scenario).metrics.as_dict()
        if faults is not None:
            assert expected["shards_killed"] == 1
            assert expected["messages_dropped"] + expected["messages_delayed"] > 0
        with make_fleet(machine, workers=2) as fleet:
            engine = run_scenario(fleet, scenario)
            assert engine.metrics.as_dict() == expected
            assert diff_fleets(fleet, reference, scenario.topology.keys) == []


class TestPinnedFaultCounts:
    """The seeded counters of ``serve-scenario --faults
    kill-shard,drop,duplicate,delay`` (20 groups, default spread and
    horizon): any change to wheel order, fault draws or timer marks
    moves them."""

    @pytest.mark.parametrize(
        "model, seed, expected",
        [
            ("commit", 0, (1296, 44, 60, 54, 86)),
            ("commit", 1, (1286, 44, 50, 40, 82)),
            ("commit", 2, (1280, 46, 46, 46, 88)),
            ("chandra-toueg", 1, (1242, 34, 44, 32, 101)),
        ],
    )
    def test_cli_fault_run_counts(self, make_fleet, model, seed, expected):
        machine = machine_for(model)
        wiring = COMMIT_WIRING if model == "commit" else CT_WIRING
        size = 4 if model == "commit" else 5
        until = 600.0
        scenario = generate_scenario(
            machine,
            wiring,
            ScenarioSpec(groups=20, group_size=size, seed=seed, until=until),
            faults=ScenarioFaultPlan(
                kill_at=until / 3, drop=0.05, duplicate=0.05, delay=0.05
            ),
        )
        m = run_scenario(make_fleet(machine), scenario).metrics
        assert (
            m.events_delivered,
            m.messages_dropped,
            m.messages_duplicated,
            m.messages_delayed,
            m.instants,
        ) == expected
        assert m.shards_killed == m.snapshots_restored == 1
        if model == "chandra-toueg":
            timers = (m.timers_armed, m.timers_cancelled, m.timers_fired)
            assert timers == (633, 569, 32)


class TestMetricsAndGeneration:
    def test_metrics_dict_includes_derived_total(self, make_fleet):
        fleet = make_fleet(machine_for("commit"))
        engine = ScenarioEngine(fleet)
        keys = fleet.spawn_many(3)
        engine.schedule_events(TimedEvent(1.0, key, "update") for key in keys)
        engine.schedule_event(2.0, keys[0], "free")
        engine.run(5.0)
        as_dict = engine.metrics.as_dict()
        assert as_dict["events_delivered"] == 4
        assert as_dict["external_delivered"] == 4
        assert as_dict["instants"] == 2

    def test_generate_scenario_is_deterministic(self):
        machine = machine_for("commit")
        spec = ScenarioSpec(groups=3, group_size=4, seed=21, noise=0.2)
        a = generate_scenario(machine, COMMIT_WIRING, spec)
        b = generate_scenario(machine, COMMIT_WIRING, spec)
        assert a.events == b.events

    def test_generate_scenario_validates_spec(self):
        machine = machine_for("commit")
        with pytest.raises(SimulationError):
            generate_scenario(machine, COMMIT_WIRING, ScenarioSpec(groups=0))
        with pytest.raises(SimulationError):
            generate_scenario(machine, COMMIT_WIRING, ScenarioSpec(spread=0.5))
        with pytest.raises(SimulationError):
            generate_scenario(machine, COMMIT_WIRING, ScenarioSpec(noise=1.5))
        with pytest.raises(SimulationError, match="client messages"):
            generate_scenario(machine, Wiring(), ScenarioSpec())

    def test_events_sorted_and_within_window(self):
        machine = machine_for("commit")
        spec = ScenarioSpec(groups=2, group_size=4, seed=8, spread=30.0)
        scenario = generate_scenario(machine, COMMIT_WIRING, spec)
        times = [e.time for e in scenario.events]
        assert times == sorted(times)
        assert all(0.0 <= t < 30.0 for t in times)
