"""Tests for equivalence merging (paper §3.4 step 4, Fig 13)."""

import pytest

from repro.analysis import equivalent
from repro.core.machine import StateMachine
from repro.core.minimize import (
    FINISH_NAME,
    equivalence_classes,
    merge_equivalent,
    one_shot_merge,
)
from repro.core.pipeline import ENGINES, generate_with_engine
from repro.core.state import State, Transition
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.opt.indexed import IndexedMachine
from tests.conftest import commit_machine


def chain_machine() -> StateMachine:
    """A -> B -> D, A -> C -> D with B and C equivalent only transitively."""
    machine = StateMachine(["m"], name="chain")
    machine.add_state(State("A"))
    machine.add_state(State("B"))
    machine.add_state(State("C"))
    machine.add_state(State("D", final=True))
    machine.add_state(State("E", final=True))
    machine.get_state("A").record_transition(Transition("m", "B"))
    machine.get_state("B").record_transition(Transition("m", "D"))
    machine.get_state("C").record_transition(Transition("m", "E"))
    machine.set_start("A")
    return machine


class TestEquivalenceClasses:
    def test_finals_grouped_together(self):
        classes = equivalence_classes(chain_machine())
        final_groups = [g for g in classes if g[0].final]
        assert len(final_groups) == 1
        assert {s.name for s in final_groups[0]} == {"D", "E"}

    def test_transitively_equivalent_states_merge(self):
        # B and C both step to (equivalent) finals with no actions.
        classes = equivalence_classes(chain_machine())
        groups = {frozenset(s.name for s in g) for g in classes}
        assert frozenset({"B", "C"}) in groups

    def test_distinct_actions_prevent_merging(self):
        machine = chain_machine()
        machine.get_state("C").replace_transitions([Transition("m", "E", ["->x"])])
        classes = equivalence_classes(machine)
        groups = {frozenset(s.name for s in g) for g in classes}
        assert frozenset({"B", "C"}) not in groups


class TestMergeEquivalent:
    def test_merged_machine_size(self):
        merged = merge_equivalent(chain_machine())
        # {A}, {B,C}, {D,E} -> 3 states.
        assert len(merged) == 3

    def test_finish_designated(self):
        merged = merge_equivalent(chain_machine())
        assert merged.finish_state is not None
        assert merged.finish_state.name == FINISH_NAME

    def test_merged_names_recorded(self):
        merged = merge_equivalent(chain_machine())
        finish = merged.finish_state
        assert set(finish.merged_names) == {"D", "E"}

    def test_single_member_class_keeps_name(self):
        merged = merge_equivalent(chain_machine())
        assert "A" in merged

    def test_transitions_retargeted(self):
        merged = merge_equivalent(chain_machine())
        transition = merged.get_state("A").get_transition("m")
        assert transition.target_name in merged.state_names()

    def test_idempotent(self):
        merged = merge_equivalent(chain_machine())
        again = merge_equivalent(merged)
        assert equivalent(merged, again).one_to_one


class TestOneShotMerge:
    def test_single_pass_merges_identical_successors_only(self):
        machine = chain_machine()
        # D and E are both final with no transitions: identical signature.
        once = one_shot_merge(machine)
        assert len(once) == 4  # A, B, C, FINISHED — B/C not merged yet

    def test_iterating_one_shot_reaches_fixpoint(self):
        machine = chain_machine()
        current = machine
        previous_size = len(current) + 1
        while len(current) < previous_size:
            previous_size = len(current)
            current = one_shot_merge(current)
        assert equivalent(current, merge_equivalent(machine)).one_to_one

    def test_commit_machine_one_shot_fixpoint_matches_moore(self):
        pruned = commit_machine(4, merge=False)
        current = pruned
        previous_size = len(current) + 1
        while len(current) < previous_size:
            previous_size = len(current)
            current = one_shot_merge(current)
        assert len(current) == 33
        assert equivalent(current, commit_machine(4)).one_to_one


class TestCommitMerging:
    def test_terminal_states_collapse_to_finish(self):
        pruned = commit_machine(4, merge=False)
        merged = commit_machine(4)
        terminals = [s for s in pruned.states if s.final]
        assert len(terminals) == 16  # 48 - 32 live states
        assert len(merged.final_states()) == 1

    def test_merged_machine_is_minimal(self):
        merged = commit_machine(4)
        classes = equivalence_classes(merged)
        assert all(len(group) == 1 for group in classes)


def _generated(model, engine, prune=True):
    return IndexedMachine.from_machine(
        generate_with_engine(model, engine, prune=prune)[0]
    )


def _merged_after(model, engine, prune=True):
    unmerged = generate_with_engine(model, engine, prune=prune, merge=False)[0]
    return IndexedMachine.from_machine(merge_equivalent(unmerged))


class TestGenerationStep4:
    """The engines run step 4 on their explored rows, straight into the
    quotient; it must be, field for field, what ``merge_equivalent``
    makes of the same machine generated without step 4."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "model",
        [
            CommitModel(4),
            CommitModel(7),
            CoordinatorRoundModel(processes=5),
            TerminationModel(max_tasks=3),
            ThresholdSignatureModel(signers=4, threshold=3),
        ],
        ids=["commit-r4", "commit-r7", "chandra-toueg-n5", "termination", "threshold"],
    )
    def test_quotient_is_merge_equivalent_of_the_unmerged_machine(
        self, model, engine
    ):
        self.assert_same(_generated(model, engine), _merged_after(model, engine))

    def test_unpruned_rows_merge_too(self):
        model = CommitModel(4)
        generated = _generated(model, "eager", prune=False)
        assert generated.state_count < 512
        self.assert_same(generated, _merged_after(model, "eager", prune=False))

    @staticmethod
    def assert_same(generated, reference):
        assert generated == reference
        assert list(generated.transition_annotations) == list(
            reference.transition_annotations
        )
        for im in (generated, reference):
            assert all(a is b for a, b in zip(im._proof, im._quotient_arrays()))
