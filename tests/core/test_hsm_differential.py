"""Flattened hierarchies through the fleet plane's snapshot and table export.

That a flattened hierarchy behaves as its direct simulation does is
decided exhaustively, per flatten engine, in
``tests/opt/test_opt_differential.py``
(``test_flattened_hsm_matches_simulator``), together with every later hop
a flattened machine takes (generated class, fleet jump table, vector
kernel table).  The simulator and the flattener share
``HierarchicalModel.fire``, so the flattened machines are also checked
against ``hsm_reference.py``'s resolution, written apart from it.
"""

import pytest

from repro.analysis import equivalent
from repro.core.pipeline import ENGINES
from repro.models import HIERARCHICAL_MODELS, build_hierarchical_model
from repro.serve import HAS_NUMPY, FleetEngine, WorkloadSpec, generate_workload
from tests.core.hsm_reference import reference_flatten

#: Every fleet dispatch mode this environment can build.
MODES = ("encoded", "naive") + (("vector",) if HAS_NUMPY else ())


def build(name):
    return build_hierarchical_model(name, replication_factor=4)


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("mode", MODES)
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


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
@pytest.mark.parametrize("engine", ENGINES)
def test_flatten_matches_a_reference_resolution(model_name, engine):
    """Both flatten engines against ``tests/core/hsm_reference.py``, which
    resolves exit and entry chains without ``HierarchicalModel.fire`` or
    ``effective_transitions`` (the simulator shares both): the same
    states, one to one and under the same names, with the same actions."""
    model = build(model_name)
    verdict = equivalent(reference_flatten(model), model.flatten(engine))
    assert verdict, str(verdict)
    assert verdict.one_to_one
    assert all(left == right for left, right in verdict.pairs)
