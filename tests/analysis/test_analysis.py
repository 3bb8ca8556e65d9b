"""Tests for the analysis package: stats, equivalence, spectrum."""

import pytest

from repro.analysis import equivalent
from repro.analysis.spectrum import (
    commit_spectrum,
    efsm_phase_transitions,
    fsm_vs_efsm_table,
    phase_names,
    phase_quotient,
)
from repro.analysis.stats import (
    PAPER_TABLE1,
    format_table1,
    initial_state_count,
    machine_stats,
    merged_state_count,
    merged_state_formula,
    table1,
    table1_row,
)
from repro.core.machine import StateMachine
from repro.core.state import State, Transition
from repro.models.commit_efsm import build_commit_efsm
from tests.conftest import commit_machine


class TestStats:
    def test_machine_stats_counts(self):
        stats = machine_stats(commit_machine(4))
        assert stats.states == 33
        assert stats.final_states == 1
        assert stats.transitions == stats.phase_transitions + stats.simple_transitions
        assert sum(stats.transitions_per_state.values()) == 33

    def test_initial_state_count(self):
        assert initial_state_count(4) == 512
        assert initial_state_count(46) == 67712

    def test_table1_row_matches_paper(self):
        row = table1_row(4)
        assert row.matches_paper()
        assert row.pruned_states == 48

    def test_table1_row_nonpaper_r(self):
        assert not table1_row(5).matches_paper()

    def test_table1_full(self):
        rows = table1()
        assert [row.r for row in rows] == [4, 7, 13, 25, 46]
        assert all(row.matches_paper() for row in rows)

    def test_format_table1(self):
        text = format_table1(table1((4,)))
        assert "initial states" in text
        assert "512" in text and "33" in text

    def test_paper_constants_sane(self):
        for row in PAPER_TABLE1:
            assert row["initial_states"] == initial_state_count(row["r"])
            assert row["final_states"] == merged_state_formula(row["f"])

    def test_general_formula_reduces_at_minimal_r(self):
        for f in range(1, 6):
            assert merged_state_count(3 * f + 1) == merged_state_formula(f)


def toy(name: str, action: str = "") -> StateMachine:
    machine = StateMachine(["m"], name=name)
    machine.add_state(State("A"))
    machine.add_state(State("B", final=True))
    actions = [action] if action else []
    machine.get_state("A").record_transition(Transition("m", "B", actions))
    machine.set_start("A")
    machine.set_finish("B")
    return machine


def renamed(final_y: bool = True, loop: bool = False) -> StateMachine:
    """``toy`` with states X, Y; ``loop`` gives Y a self-loop on m."""
    machine = StateMachine(["m"], name="renamed")
    machine.add_state(State("X"))
    machine.add_state(State("Y", final=final_y))
    machine.get_state("X").record_transition(Transition("m", "Y"))
    if loop:
        machine.get_state("Y").record_transition(Transition("m", "Y"))
    machine.set_start("X")
    return machine


class TestEquivalent:
    def test_equivalent_to_self_with_every_state_paired(self):
        machine = commit_machine(4)
        verdict = equivalent(machine, machine)
        assert verdict.one_to_one
        assert set(verdict.pairs) == {(n, n) for n in machine.state_names()}

    def test_pairs_follow_renaming(self):
        verdict = equivalent(toy("left"), renamed())
        assert verdict.one_to_one
        assert verdict.pairs == (("A", "X"), ("B", "Y"))

    def test_action_difference_names_the_trace(self):
        verdict = equivalent(toy("a"), toy("b", action="->x"))
        assert not verdict
        assert verdict.trace == ("m",)
        assert verdict.at == ("A", "A", "m")
        assert verdict.difference == "actions () vs ('x',)"
        assert "after ['m'] at ('A', 'A', 'm')" in str(verdict)

    def test_alphabets_are_united(self):
        other = StateMachine(["m", "n"], name="other")
        other.add_state(State("A"))
        other.add_state(State("B", final=True))
        other.get_state("A").record_transition(Transition("m", "B"))
        other.get_state("A").record_transition(Transition("n", "A"))
        other.set_start("A")
        verdict = equivalent(toy("a"), other)
        assert (verdict.trace, verdict.at) == (("n",), ("A", "A", "n"))
        assert verdict.difference == "accepted by the right only"

    def test_finality_difference_after_the_shortest_trace(self):
        verdict = equivalent(toy("left"), renamed(final_y=False, loop=True))
        assert (verdict.trace, verdict.at) == (("m",), ("B", "Y", None))
        assert verdict.difference == "final True vs False"

    def test_merged_states_pair_many_to_one(self):
        machine = StateMachine(["m"], name="chain")
        for name in ("A", "B"):
            machine.add_state(State(name))
        machine.get_state("A").record_transition(Transition("m", "B"))
        machine.get_state("B").record_transition(Transition("m", "A"))
        machine.set_start("A")
        verdict = equivalent(machine, renamed(final_y=False, loop=True))
        assert verdict and not verdict.one_to_one
        assert verdict.pairs == (("A", "X"), ("B", "Y"), ("A", "Y"))

    def test_different_r_machines_differ(self):
        verdict = equivalent(commit_machine(4), commit_machine(7))
        assert not verdict and verdict.pairs == ()


class TestSpectrum:
    def test_commit_spectrum_points(self):
        points = commit_spectrum(7)
        by_name = {p.formulation: p for p in points}
        assert by_name["generic algorithm"].states == 1
        assert by_name["generic algorithm"].variables == 7
        assert by_name["EFSM"].states == 9
        assert by_name["EFSM"].variables == 2
        assert by_name["FSM"].states == 85
        assert by_name["FSM"].variables == 0

    def test_fsm_vs_efsm_table(self):
        rows = fsm_vs_efsm_table((4, 7))
        assert all(row["efsm_states"] == 9 for row in rows)
        assert rows[0]["fsm_merged_states"] == 33
        assert rows[1]["fsm_merged_states"] == 85

    def test_phase_names_nine(self):
        assert len(phase_names(commit_machine(4, merge=False))) == 9

    def test_quotient_drops_counting_self_loops(self):
        quotient = phase_quotient(commit_machine(4, merge=False))
        for transition in quotient:
            assert transition.actions or transition.source != transition.target

    def test_quotient_matches_efsm(self):
        quotient = phase_quotient(commit_machine(4, merge=False))
        assert quotient == efsm_phase_transitions(build_commit_efsm())

    def test_quotient_requires_space(self):
        machine = toy("nospace")
        with pytest.raises(ValueError):
            phase_quotient(machine)
