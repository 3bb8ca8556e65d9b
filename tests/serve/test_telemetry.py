"""Telemetry plane integration: fleet instruments, tracing, exposition.

Covers the observability contract end to end: queue-latency histograms
fed by the posted path, O(1) per-batch timing on the encoded path,
automatic shard-depth observation at every drain, trace records for
post and the scenario wheel's timer/route/fault decisions,
and — the replay guarantee — trace ids minted identically when a
snapshot is restored and the run replayed.
"""

import pytest

from repro.models import CommitModel, CoordinatorRoundModel
from repro.obs import FleetTelemetry, MetricsRegistry
from repro.serve import (
    ScenarioEngine,
    ScenarioSpec,
    WorkloadSpec,
    generate_scenario,
    generate_workload,
)
from tests.serve.conftest import machine_for


@pytest.fixture
def telemetered_fleet(make_fleet):
    telemetry = FleetTelemetry()
    fleet = make_fleet("commit", dispatch="encoded", telemetry=telemetry)
    fleet.spawn_many(50)
    return fleet, telemetry


class TestFleetInstruments:
    def test_batch_histograms_on_encoded_run(self, telemetered_fleet):
        fleet, telemetry = telemetered_fleet
        events = generate_workload(
            fleet.machine, WorkloadSpec(instances=50, events=300, seed=2)
        )
        fleet.run(fleet.encode_flat(events), encoding="flat")
        assert telemetry.batch_events.count == 1
        assert telemetry.batch_events.total == 300
        assert telemetry.batch_seconds.count == 1
        # Direct batches never queued, so no queue latency is invented.
        assert telemetry.queue_latency.count == 0

    def test_depths_observed_automatically_at_drain(self, make_fleet):
        # Satellite check: no telemetry attached, no caller polls —
        # drain_shard itself records the drained depth and the peak.
        fleet = make_fleet("commit", dispatch="encoded")
        fleet.spawn_many(20)
        events = generate_workload(
            fleet.machine, WorkloadSpec(instances=20, events=100, seed=3)
        )
        for key, message in events:
            fleet.post(key, message)
        fleet.drain_all()
        assert fleet.metrics.peak_shard_depth > 0
        assert max(fleet.metrics.shard_depths) == fleet.metrics.peak_shard_depth
        assert sum(fleet.metrics.shard_depths) == 100

    def test_restore_clears_pending_post_stamps(self, telemetered_fleet):
        fleet, telemetry = telemetered_fleet
        snap = fleet.snapshot()
        events = generate_workload(
            fleet.machine, WorkloadSpec(instances=50, events=40, seed=4)
        )
        for key, message in events:
            fleet.post(key, message)
        fleet.restore(snap)  # drops the queues and their timestamps
        for key, message in events:
            fleet.post(key, message)
        fleet.drain_all()
        assert telemetry.queue_latency.count == 40

    def test_log_policy_off_still_observes(self, make_fleet):
        telemetry = FleetTelemetry()
        fleet = make_fleet(
            "commit", dispatch="encoded", log_policy="off", telemetry=telemetry
        )
        fleet.spawn_many(20)
        events = generate_workload(
            fleet.machine, WorkloadSpec(instances=20, events=100, seed=5)
        )
        fleet.run(fleet.encode_flat(events), encoding="flat")
        assert telemetry.batch_events.total == 100


class TestFleetTracing:
    def test_post_records_and_mints(self, telemetered_fleet):
        fleet, telemetry = telemetered_fleet
        fleet.post("session-0000001", "update")
        (rec,) = telemetry.trace.records()
        assert rec.kind == "post"
        assert rec.key == "session-0000001"
        assert rec.trace_id == 1

    def test_caller_supplied_trace_id_not_reminted(self, telemetered_fleet):
        fleet, telemetry = telemetered_fleet
        tid = telemetry.trace.mint()
        fleet.post("session-0000001", "update", trace_id=tid)
        (rec,) = telemetry.trace.records()
        assert rec.trace_id == tid
        assert telemetry.trace.next_id == tid + 1


def scenario_fixture(groups=4, seed=2, model="commit"):
    machine = machine_for(model)
    if model == "commit":
        wiring, size = CommitModel.wiring, 4
    else:
        wiring, size = CoordinatorRoundModel.wiring, 5
    scenario = generate_scenario(
        machine, wiring, ScenarioSpec(groups=groups, group_size=size, seed=seed)
    )
    return machine, scenario


def run_traced_scenario(make_fleet, scenario, until=None, model="commit"):
    telemetry = FleetTelemetry()
    fleet = make_fleet(model, dispatch="encoded", telemetry=telemetry)
    engine = ScenarioEngine(
        fleet, scenario.wiring, scenario.topology, seed=scenario.seed
    )
    engine.spawn_topology()
    engine.schedule_events(scenario.events)
    engine.run(until if until is not None else scenario.until)
    return fleet, engine, telemetry


class TestScenarioTracing:
    def test_wheel_decisions_all_traced(self, make_fleet):
        # The CT round keeps a timer (its failure detector); commit has none.
        _machine, scenario = scenario_fixture(model="chandra-toueg")
        _fleet, _engine, telemetry = run_traced_scenario(
            make_fleet, scenario, model="chandra-toueg"
        )
        kinds = {rec.kind for rec in telemetry.trace.records()}
        assert {"schedule", "post", "timer_arm", "route"} <= kinds

    def test_route_links_back_to_originating_post(self, make_fleet):
        _machine, scenario = scenario_fixture()
        _fleet, _engine, telemetry = run_traced_scenario(make_fleet, scenario)
        routes = [r for r in telemetry.trace.records() if r.kind == "route"]
        assert routes
        path_kinds = set(telemetry.trace.kinds(routes[0].trace_id))
        # The causal component reaches back through the delivery chain.
        assert "schedule" in path_kinds or "post" in path_kinds

    def test_trace_ids_replay_exactly_across_snapshot_restore(self, make_fleet):
        _machine, scenario = scenario_fixture()
        telemetry = FleetTelemetry()
        fleet = make_fleet("commit", dispatch="encoded", telemetry=telemetry)
        engine = ScenarioEngine(
            fleet, scenario.wiring, scenario.topology, seed=scenario.seed
        )
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.run(20.0)
        snap = engine.snapshot()
        engine.run(scenario.until)
        first_next = telemetry.trace.next_id
        first_traces = {k: fleet.trace(k) for k in scenario.topology.keys}

        engine.restore(snap)
        engine.run(scenario.until)
        # Satellite check: the replay mints the identical id stream and
        # reproduces the identical instance traces.
        assert telemetry.trace.next_id == first_next
        assert {k: fleet.trace(k) for k in scenario.topology.keys} == first_traces

    def test_snapshot_restore_records_marker(self, make_fleet):
        _machine, scenario = scenario_fixture()
        telemetry = FleetTelemetry()
        fleet = make_fleet("commit", dispatch="encoded", telemetry=telemetry)
        engine = ScenarioEngine(
            fleet, scenario.wiring, scenario.topology, seed=scenario.seed
        )
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.run(20.0)
        snap = engine.snapshot()
        engine.restore(snap)
        kinds = [rec.kind for rec in telemetry.trace.records()]
        assert "restore" in kinds

    def test_untelemetered_scenario_unaffected(self, make_fleet):
        # The whole plane is behind one is-not-None check: a plain fleet
        # runs the same scenario to the same traces.
        _machine, scenario = scenario_fixture()
        traced_fleet, _engine, _telemetry = run_traced_scenario(
            make_fleet, scenario
        )
        plain = make_fleet("commit", dispatch="encoded")
        engine = ScenarioEngine(
            plain, scenario.wiring, scenario.topology, seed=scenario.seed
        )
        engine.spawn_topology()
        engine.schedule_events(scenario.events)
        engine.run(scenario.until)
        for key in scenario.topology.keys:
            assert plain.trace(key) == traced_fleet.trace(key)


class TestExpositionBuilders:
    def test_fleet_registry_merges_both_surfaces(self, telemetered_fleet):
        fleet, _telemetry = telemetered_fleet
        events = generate_workload(
            fleet.machine, WorkloadSpec(instances=50, events=100, seed=7)
        )
        for key, message in events:
            fleet.post(key, message)
        fleet.drain_all()
        registry = fleet.telemetry_registry()
        assert registry is _telemetry.registry
        assert registry.counters["fleet_events_dispatched_total"].value == 100
        assert registry.histograms["fleet_queue_latency_seconds"].count == 100
        assert registry.gauges["fleet_shard_depth_peak"].value > 0

    def test_scenario_registry_is_one_merged_blob(self, make_fleet):
        # Satellite check: fleet counters, telemetry histograms and
        # scenario counters all land in a single registry.
        _machine, scenario = scenario_fixture()
        fleet, engine, _telemetry = run_traced_scenario(make_fleet, scenario)
        registry = MetricsRegistry()
        registry.merge(fleet.telemetry_registry())
        registry.merge(engine.registry)
        names = set(registry.counters)
        assert "fleet_events_dispatched_total" in names
        assert "scenario_events_delivered_total" in names
        assert "scenario_timers_fired_total" in names
        assert "fleet_queue_latency_seconds" in registry.histograms

    def test_scenario_metrics_as_dict_matches_fields(self, make_fleet):
        _machine, scenario = scenario_fixture()
        _fleet, engine, _telemetry = run_traced_scenario(make_fleet, scenario)
        snapshot = engine.metrics.as_dict()
        assert snapshot["events_delivered"] == engine.metrics.events_delivered
        assert snapshot["timers_armed"] == engine.metrics.timers_armed
