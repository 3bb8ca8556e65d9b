"""The generated machine is a view over one IR, and step 4 runs on its arrays.

* Step 4's array quotient against the object quotient it replaced
  (:mod:`tests.core.quotient_reference`), on every bundled model, engine
  and Table 1 parameter tier-1 generates: the machines must be equal field
  by field, which is stronger than isomorphic.
* The view's one invariant: once a view's objects are handed out, no
  consumer reads the arrays the objects may have left behind.
* A machine built by hand renders exactly as the same machine generated.
"""

from __future__ import annotations

import pytest

from repro.core.machine import StateMachine
from repro.core.minimize import equivalence_classes, merge_equivalent
from repro.core.state import State, Transition
from repro.models import build_hierarchical_model
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.opt import IndexedMachine, standard_pipeline
from repro.render.source import PythonSourceRenderer
from repro.render.text import TextRenderer
from repro.serve import FleetEngine
from tests.core.quotient_reference import dump, reference_quotient

MODELS = {
    **{f"commit-r{r}": (lambda r=r: CommitModel(r)) for r in (4, 7, 13, 25, 46)},
    "chandra-toueg-n5": lambda: CoordinatorRoundModel(processes=5),
    "termination-t3": lambda: TerminationModel(max_tasks=3),
    "threshold-sig": lambda: ThresholdSignatureModel(signers=4, threshold=3),
}


def reference(machine: StateMachine) -> StateMachine:
    return reference_quotient(machine, equivalence_classes(machine))


class TestArrayStep4AgainstObjectQuotient:
    @pytest.mark.parametrize("engine", ["eager", "lazy"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_generated(self, name, engine):
        model = MODELS[name]()
        merged = model.generate_state_machine(engine=engine)
        unmerged = model.generate_state_machine(engine=engine, merge=False)
        again = merge_equivalent(unmerged)  # on the carried arrays
        expected = dump(reference(unmerged))  # builds the objects
        assert dump(merged) == expected
        assert dump(again) == expected

    @pytest.mark.parametrize("args", [("session",), ("commit", 4)], ids=str)
    def test_flattened(self, args):
        flat = build_hierarchical_model(*args).flatten()
        assert dump(merge_equivalent(flat)) == dump(reference(flat))


def mutated_view() -> StateMachine:
    """A generated commit r=4 machine with one transition's actions
    replaced through the object API after its objects were handed out."""
    machine = CommitModel(4).generate_state_machine()
    state = machine.start_state
    transitions = list(state.transitions)
    first = transitions[0]
    transitions[0] = Transition(
        first.message, first.target_name, ("->mutated",), first.annotations
    )
    state.replace_transitions(transitions)
    return machine


class TestViewInvariant:
    def test_a_view_carries_its_ir_for_free(self):
        machine = CommitModel(4).generate_state_machine()
        carried = IndexedMachine.from_machine(machine)
        assert IndexedMachine.from_machine(machine) is carried

    def test_building_objects_drops_the_ir(self):
        machine = CommitModel(4).generate_state_machine()
        carried = IndexedMachine.from_machine(machine)
        machine.states
        rebuilt = IndexedMachine.from_machine(machine)
        assert rebuilt is not carried
        assert rebuilt == carried

    def test_optimize_sees_the_mutation(self):
        optimized, _ = standard_pipeline(3).optimize_machine(mutated_view())
        assert "->mutated" in IndexedMachine.from_machine(optimized).actions

    def test_render_sees_the_mutation(self):
        assert "self.send_mutated()" in PythonSourceRenderer().render(mutated_view())

    def test_fleet_sees_the_mutation(self):
        machine = mutated_view()
        message = machine.start_state.transitions[0].message
        fleet = FleetEngine(machine)
        fleet.spawn("k")
        fleet.run([("k", message)])
        assert fleet.actions_since("k") == ("mutated",)


def hand_built(generated: StateMachine) -> StateMachine:
    """The same machine again, state by state through the object API."""
    machine = StateMachine(
        generated.messages, name=generated.name, parameters=generated.parameters
    )
    for state in generated.states:
        copy = machine.add_state(
            State(state.name, state.vector, state.annotations, state.final)
        )
        copy.set_merged_names(state.merged_names)
        for t in state.transitions:
            copy.record_transition(
                Transition(t.message, t.target_name, t.actions, t.annotations)
            )
    machine.set_start(generated.start_state.name)
    machine.set_finish(generated.finish_state.name)
    return machine


@pytest.mark.parametrize("engine", ["eager", "lazy"])
def test_hand_built_renders_as_generated(engine):
    generated = CommitModel(7).generate_state_machine(engine=engine)
    source = PythonSourceRenderer().render(generated)  # from the arrays
    copy = hand_built(CommitModel(7).generate_state_machine(engine=engine))
    assert PythonSourceRenderer().render(copy) == source
    assert TextRenderer().render(copy) == TextRenderer().render(generated)
