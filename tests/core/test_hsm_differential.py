"""Differential acceptance suite for the flattening pipeline.

For every bundled hierarchical model, direct hierarchical simulation must
be trace-identical to the flattened machine executed through

* both execution backends (interpreter, compiled generated class),
* both flatten engines (eager, lazy),
* and the fleet dispatch-mode spectrum (naive per-event on both backends,
  slot-encoded, and the numpy gather/scatter kernel where available),

which is exactly the ISSUE's acceptance criterion.
"""

import random

import pytest

from repro.core.pipeline import ENGINES
from repro.models import HIERARCHICAL_MODELS, build_hierarchical_model
from repro.runtime.compile import compile_machine
from repro.runtime.interp import MachineInterpreter
from repro.serve import (
    HAS_NUMPY,
    FleetEngine,
    WorkloadSpec,
    diff_against_hierarchical,
    generate_workload,
)

#: (fleet dispatch mode, execution backend) configurations under test.
#: The encoded entry exercises the slot-indexed (slot, column) dispatch
#: plane on flattened hierarchies (backend is naive-only); vector
#: exercises the numpy gather/scatter kernel where available.
FLEET_CONFIGS = (
    ("naive", "interp"),
    ("naive", "compiled"),
    ("encoded", "interp"),
) + ((("vector", "interp"),) if HAS_NUMPY else ())


def build(name):
    return build_hierarchical_model(name, replication_factor=4)


def random_schedule(machine, length, seed):
    """A pseudo-random single-instance message schedule over the alphabet."""
    rng = random.Random(seed)
    messages = machine.messages
    return [messages[rng.randrange(len(messages))] for _ in range(length)]


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("engine", ENGINES)
def test_interpreter_matches_direct_simulation(model_name, engine):
    model = build(model_name)
    machine = model.flatten(engine)
    simulator = model.simulator()
    interpreter = MachineInterpreter(machine)
    for step, message in enumerate(random_schedule(machine, 3000, seed=11)):
        fired_sim = simulator.receive(message)
        fired_interp = interpreter.receive(message)
        assert fired_sim == fired_interp, (step, message)
        assert simulator.get_state() == interpreter.get_state(), (step, message)
    assert simulator.sent == interpreter.sent


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("engine", ENGINES)
def test_compiled_class_matches_direct_simulation(model_name, engine):
    model = build(model_name)
    machine = model.flatten(engine)
    simulator = model.simulator()
    instance = compile_machine(machine).new_instance()
    for step, message in enumerate(random_schedule(machine, 3000, seed=23)):
        fired_sim = simulator.receive(message)
        fired_compiled = instance.receive(message)
        assert fired_sim == fired_compiled, (step, message)
        assert simulator.get_state() == instance.get_state(), (step, message)
    assert simulator.sent == instance.sent


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode,backend", FLEET_CONFIGS)
def test_fleet_matches_direct_simulation(model_name, engine, mode, backend):
    model = build(model_name)
    machine = model.flatten(engine)
    fleet = FleetEngine(machine, backend=backend, mode=mode, auto_recycle=True)
    keys = fleet.spawn_many(100)
    events = generate_workload(
        machine,
        WorkloadSpec(scenario="uniform", instances=100, events=4000, seed=7),
    )
    fleet.run(events)
    assert diff_against_hierarchical(fleet, model, keys, events) == []


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("scenario", ("hotkey", "burst"))
@pytest.mark.parametrize("mode,backend", FLEET_CONFIGS)
def test_fleet_matches_direct_simulation_skewed_arrivals(
    model_name, scenario, mode, backend
):
    model = build(model_name)
    machine = model.flatten("lazy")
    fleet = FleetEngine(machine, backend=backend, mode=mode, auto_recycle=True)
    keys = fleet.spawn_many(100)
    events = generate_workload(
        machine,
        WorkloadSpec(scenario=scenario, instances=100, events=4000, seed=13),
    )
    fleet.run(events)
    assert diff_against_hierarchical(fleet, model, keys, events) == []


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("mode", sorted({mode for mode, _ in FLEET_CONFIGS}))
def test_fleet_snapshot_restore_roundtrip_on_flattened_machine(model_name, mode):
    """Flattened machines ride the fleet's snapshot/restore unchanged."""
    model = build(model_name)
    machine = model.flatten()
    fleet = FleetEngine(machine, mode=mode, auto_recycle=True)
    keys = fleet.spawn_many(50)
    events = generate_workload(
        machine, WorkloadSpec(instances=50, events=1000, seed=3)
    )
    fleet.run(events)
    snapshot = fleet.snapshot()
    replacement = FleetEngine(machine, mode=mode, auto_recycle=True)
    replacement.restore(snapshot)
    assert {k: replacement.trace(k) for k in keys} == {
        k: fleet.trace(k) for k in keys
    }


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
def test_dispatch_table_covers_flattened_machine(model_name):
    """The flat dispatch-table export works for flattened hierarchies."""
    machine = build(model_name).flatten()
    table = machine.dispatch_table()
    assert set(table.state_names) == set(machine.state_names())
    assert table.state_names[table.start_index] == machine.start_state.name
    for state in machine.states:
        for transition in state.transitions:
            entry = table.lookup(state.name, transition.message)
            assert table.state_names[entry[0]] == transition.target_name
