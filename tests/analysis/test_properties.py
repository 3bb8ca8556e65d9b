"""Tests for graph-level path property verification."""

import pytest

from repro.analysis.properties import (
    action_at_most_once,
    action_exactly_once,
    action_required,
    commit_protocol_properties,
    finish_always_reachable,
)
from repro.core.machine import StateMachine
from repro.core.state import State, Transition
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from tests.conftest import commit_machine


def machine_with_repeat() -> StateMachine:
    """A -> B -> C where the action fires on both edges."""
    machine = StateMachine(["m"], name="repeat")
    machine.add_state(State("A"))
    machine.add_state(State("B"))
    machine.add_state(State("C", final=True))
    machine.get_state("A").record_transition(Transition("m", "B", ["->x"]))
    machine.get_state("B").record_transition(Transition("m", "C", ["->x"]))
    machine.set_start("A")
    return machine


def machine_with_bypass() -> StateMachine:
    """Final state reachable with or without the action."""
    machine = StateMachine(["m", "n"], name="bypass")
    machine.add_state(State("A"))
    machine.add_state(State("B", final=True))
    machine.get_state("A").record_transition(Transition("m", "B", ["->x"]))
    machine.get_state("A").record_transition(Transition("n", "B"))
    machine.set_start("A")
    return machine


def machine_with_trap() -> StateMachine:
    """A trap state that cannot reach the finish."""
    machine = StateMachine(["m", "n"], name="trap")
    machine.add_state(State("A"))
    machine.add_state(State("TRAP"))
    machine.add_state(State("B", final=True))
    machine.get_state("A").record_transition(Transition("m", "B"))
    machine.get_state("A").record_transition(Transition("n", "TRAP"))
    machine.get_state("TRAP").record_transition(Transition("n", "TRAP"))
    machine.set_start("A")
    return machine


class TestPrimitives:
    def test_at_most_once_detects_repeat(self):
        report = action_at_most_once(machine_with_repeat(), "->x")
        assert not report.ok
        assert "can perform ->x again" in report.violations[0]

    def test_at_most_once_holds_on_bypass(self):
        assert action_at_most_once(machine_with_bypass(), "->x").ok

    def test_required_detects_bypass(self):
        report = action_required(machine_with_bypass(), "->x")
        assert not report.ok
        assert "without performing ->x" in report.violations[0]

    def test_required_holds_on_repeat(self):
        assert action_required(machine_with_repeat(), "->x").ok

    def test_exactly_once_combines_both(self):
        assert not action_exactly_once(machine_with_repeat(), "->x").ok
        assert not action_exactly_once(machine_with_bypass(), "->x").ok

    def test_finish_always_reachable_detects_trap(self):
        report = finish_always_reachable(machine_with_trap())
        assert not report.ok
        assert any("TRAP" in violation for violation in report.violations)

    def test_report_str(self):
        ok = action_at_most_once(machine_with_bypass(), "->x")
        assert "holds" in str(ok)
        bad = action_at_most_once(machine_with_repeat(), "->x")
        assert "violation" in str(bad)


class TestCommitProtocolProperties:
    """The protocol's correctness claims, verified over every path."""

    @pytest.mark.parametrize("r", [4, 7, 10, 13])
    def test_full_suite_holds(self, r):
        machine = commit_machine(r)
        for report in commit_protocol_properties(machine):
            assert report.ok, str(report)

    def test_vote_exactly_once_on_pruned_machine(self, pruned_r4):
        assert action_exactly_once(pruned_r4, "->vote").ok

    def test_commit_exactly_once_on_pruned_machine(self, pruned_r4):
        assert action_exactly_once(pruned_r4, "->commit").ok

    def test_free_not_required(self, machine_r4):
        """Members that never chose the update finish without freeing."""
        assert not action_required(machine_r4, "->free").ok


class TestOtherModelsProperties:
    def test_threshold_assemble_exactly_once(self):
        model = ThresholdSignatureModel(signers=5, threshold=3)
        machine = model.generate_state_machine()
        assert action_exactly_once(machine, "->assemble").ok

    def test_threshold_share_at_most_once(self):
        model = ThresholdSignatureModel(signers=5, threshold=3)
        machine = model.generate_state_machine()
        assert action_at_most_once(machine, "->share").ok

    def test_termination_echo_exactly_once(self):
        machine = TerminationModel(max_tasks=3).generate_state_machine()
        assert action_exactly_once(machine, "->echo").ok

    def test_termination_finish_always_reachable(self):
        machine = TerminationModel(max_tasks=3).generate_state_machine()
        assert finish_always_reachable(machine).ok
