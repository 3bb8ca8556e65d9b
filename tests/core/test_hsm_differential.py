"""Flattened hierarchies through the fleet plane's snapshot, and against a
resolution written apart.

That a bundled hierarchy flattens to what its direct simulation does is
decided exhaustively in ``tests/opt/test_opt_differential.py``
(``test_flattened_hsm_matches_simulator``), together with every later hop
a flattened machine takes (generated class, fleet jump table, vector
kernel table).  The simulator and the flattener share
``HierarchicalModel.fire``, so the flattened machines are also checked
against ``hsm_reference.py``'s resolution, written apart from it: the
bundled ones, and random small trees drawn by Hypothesis.
"""

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import equivalent
from repro.core.hsm import HierarchicalModel
from repro.models import HIERARCHICAL_MODELS, build_hierarchical_model
from repro.opt import IndexedMachine
from repro.serve import HAS_NUMPY, FleetEngine, WorkloadSpec, generate_workload
from tests.core.hsm_reference import reference_flatten
from tests.readback import check, read_executor, same_names

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
def test_fleet_dispatches_on_the_flattened_ir(model_name):
    """A fleet over a flattened hierarchy reads the IR the flattener
    wrote, and its dispatch arrays cover every flat transition."""
    machine = build(model_name).flatten()
    ir = IndexedMachine.from_machine(machine)
    assert ir is machine._ir
    assert FleetEngine(machine)._indexed is ir
    assert ir.state_names == machine.state_names()
    assert ir.state_names[ir.start] == machine.start_state.name
    jump, _ = ir.jump_arrays()
    states, columns = ir.state_index(), ir.message_index()
    for state in machine.states:
        row = states[state.name] * ir.width
        for transition in state.transitions:
            target = jump[row + columns[transition.message]] // ir.width
            assert ir.state_names[target] == transition.target_name


@pytest.mark.parametrize("model_name", HIERARCHICAL_MODELS)
def test_flatten_matches_a_reference_resolution(model_name):
    """The flattener against ``tests/core/hsm_reference.py``, which
    resolves exit and entry chains without ``HierarchicalModel.fire`` or
    ``effective_transitions`` (the simulator shares both): the same
    states, one to one and under the same names, with the same actions."""
    model = build(model_name)
    verdict = equivalent(reference_flatten(model), model.flatten())
    assert verdict, str(verdict)
    assert verdict.one_to_one
    assert all(left == right for left, right in verdict.pairs)


@st.composite
def hierarchies(draw) -> HierarchicalModel:
    """A tree of depth <= 3 under the root, with entry and exit actions,
    transitions declared on leaves and composites (the root included) to
    any node, some final leaves, and a last root child ``Orphan`` that no
    transition targets, so step 3 must drop it."""
    messages = ("a", "b", "c")
    model = HierarchicalModel("fuzz", messages=messages)
    names = (f"N{i}" for i in count())
    nodes = [model.root]

    def actions(label: str) -> tuple:
        return (f"->{label}",) if draw(st.booleans()) else ()

    def grow(parent, depth: int) -> None:
        for _ in range(draw(st.integers(1, 3))):
            name = next(names)
            ends = {"entry": actions(f"in_{name}"), "exit": actions(f"out_{name}")}
            if depth < 3 and draw(st.booleans()):
                grow(parent.composite(name, **ends), depth + 1)
            else:
                parent.leaf(name, final=draw(st.integers(0, 5)) == 0, **ends)
            nodes.append(parent.children[name])

    grow(model.root, 1)
    orphan = model.root.leaf("Orphan", exit=("->out_Orphan",))
    for node in [*nodes, orphan]:
        if getattr(node, "final", False):
            continue
        for message in messages:
            if draw(st.booleans()):
                target = draw(st.sampled_from(nodes)).name
                node.on(message, target, actions(f"{node.name}_{message}"))
    return model


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hierarchies())
def test_random_hierarchies_flatten_like_the_reference(model):
    """The flattener against the reference resolution (one to one, under
    the same names) and against the direct simulation, on random trees."""
    flat = model.flatten()
    assert "Orphan" not in flat
    verdict = equivalent(reference_flatten(model), flat)
    assert verdict, str(verdict)
    assert verdict.one_to_one
    assert all(left == right for left, right in verdict.pairs)
    read = read_executor(model.simulator(), flat.messages)
    assert check(flat, read) == same_names(flat)
