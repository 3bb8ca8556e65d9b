"""Unit tests for the StateMachine container."""

import pytest

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.state import State, Transition


def small_machine() -> StateMachine:
    machine = StateMachine(["go", "stop"], name="toy")
    a = machine.add_state(State("A"))
    b = machine.add_state(State("B"))
    machine.add_state(State("C", final=True))
    a.record_transition(Transition("go", "B", ["->ping"]))
    b.record_transition(Transition("go", "C"))
    b.record_transition(Transition("stop", "A"))
    machine.set_start("A")
    machine.set_finish("C")
    return machine


class TestConstruction:
    def test_requires_messages(self):
        with pytest.raises(MachineStructureError):
            StateMachine([])

    def test_rejects_duplicate_messages(self):
        with pytest.raises(MachineStructureError):
            StateMachine(["go", "go"])

    def test_duplicate_state_names_rejected(self):
        machine = StateMachine(["go"])
        machine.add_state(State("A"))
        with pytest.raises(MachineStructureError):
            machine.add_state(State("A"))

    def test_len_and_contains(self):
        machine = small_machine()
        assert len(machine) == 3
        assert "A" in machine
        assert "Z" not in machine

    def test_get_unknown_state(self):
        with pytest.raises(MachineStructureError):
            small_machine().get_state("Z")


class TestStartFinish:
    def test_start_state(self):
        assert small_machine().start_state.name == "A"

    def test_unset_start_raises(self):
        machine = StateMachine(["go"])
        machine.add_state(State("A"))
        with pytest.raises(MachineStructureError):
            _ = machine.start_state

    def test_set_start_unknown_rejected(self):
        with pytest.raises(MachineStructureError):
            small_machine().set_start("Z")

    def test_finish_state(self):
        assert small_machine().finish_state.name == "C"

    def test_finish_can_be_cleared(self):
        machine = small_machine()
        machine.set_finish(None)
        assert machine.finish_state is None

    def test_final_states(self):
        assert [s.name for s in small_machine().final_states()] == ["C"]


class TestStructure:
    def test_transition_count(self):
        assert small_machine().transition_count() == 3

    def test_phase_transition_count(self):
        assert small_machine().phase_transition_count() == 1

    def test_transitions_iterates_all(self):
        pairs = list(small_machine().transitions())
        assert len(pairs) == 3
        assert all(isinstance(t, Transition) for _, t in pairs)

    def test_reachable_names(self):
        machine = small_machine()
        machine.add_state(State("ORPHAN"))
        assert machine.reachable_names() == {"A", "B", "C"}

    def test_integrity_detects_dangling_target(self):
        machine = small_machine()
        machine.get_state("A").replace_transitions([Transition("go", "MISSING")])
        with pytest.raises(MachineStructureError):
            machine.check_integrity()

    def test_integrity_detects_undeclared_message(self):
        machine = small_machine()
        machine.get_state("A").replace_transitions([Transition("jump", "B")])
        with pytest.raises(MachineStructureError):
            machine.check_integrity()

    def test_integrity_passes_for_clean_machine(self):
        small_machine().check_integrity()

    def test_parameters_are_copied(self):
        machine = StateMachine(["go"], parameters={"r": 4})
        params = machine.parameters
        params["r"] = 99
        assert machine.parameters == {"r": 4}
