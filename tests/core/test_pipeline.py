"""Tests for the four-step generation pipeline (paper §3.4, Figs 7-13)."""

import time

import pytest

from repro.core.components import BooleanComponent, IntComponent
from repro.core.model import AbstractModel, StateView, TransitionBuilder
from repro.core.pipeline import ENGINES, generate, generate_with_engine
from repro.models.commit import CommitModel
from tests.conftest import commit_machine, commit_report


class TwoCounterModel(AbstractModel):
    """Toy model with an unreachable region and mergeable states."""

    def configure(self, **kw):
        return (
            [IntComponent("a", 2), BooleanComponent("seen")],
            ("bump", "mark"),
        )

    def is_final(self, view: StateView) -> bool:
        return view["a"] == 2

    def generate_transition(self, message: str, b: TransitionBuilder) -> None:
        if message == "bump":
            b.increment("a")
        elif message == "mark":
            if b["seen"]:
                b.invalid("already marked")
            b.set("seen", True)


class TestPipelineSteps:
    def test_step1_enumerates_full_product(self):
        _, report = generate(TwoCounterModel(), prune=False, merge=False)
        assert report.initial_states == 6

    def test_step2_transitions_recorded(self):
        machine, _ = generate(TwoCounterModel(), prune=False, merge=False)
        state = machine.get_state("0/F")
        assert state.get_transition("bump").target_name == "1/F"
        assert state.get_transition("mark").target_name == "0/T"

    def test_final_states_have_no_transitions(self):
        machine, _ = generate(TwoCounterModel(), prune=False, merge=False)
        for state in machine.states:
            if state.final:
                assert state.transitions == ()

    def test_step3_prunes_unreachable(self):
        machine, report = generate(TwoCounterModel(), merge=False)
        assert report.reachable_states == len(machine) == 6
        # With no pruning the count is the same here (all reachable);
        # the commit model below exercises real pruning.

    def test_step4_merges_finals(self):
        machine, report = generate(TwoCounterModel())
        finals = machine.final_states()
        assert len(finals) == 1
        assert machine.finish_state is finals[0]

    def test_annotations_attached_after_pruning(self):
        machine, _ = generate(TwoCounterModel())
        assert machine.start_state.annotations  # default component description

    def test_report_str(self):
        _, report = generate(TwoCounterModel())
        text = str(report)
        assert "initial" in text and "merged" in text

    def test_timings_cover_all_steps(self):
        _, report = generate(TwoCounterModel())
        steps = ("enumerate", "transitions", "prune", "merge", "finish")
        assert set(report.timings) == set(steps)
        assert report.timings["merge"] > 0 and report.timings["finish"] > 0
        assert report.total_time == pytest.approx(
            sum(report.timings[step] for step in steps)
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_total_time_counts_all_of_generation(self, engine):
        """Table 1's generation time is the engine's wall time: without
        ``finish`` a lazy r=8 run counted about two thirds of it."""
        shares = []
        for _ in range(3):
            model = CommitModel(8)
            started = time.perf_counter()
            _, report = generate_with_engine(model, engine)
            wall = time.perf_counter() - started
            assert report.total_time <= wall
            shares.append(report.total_time / wall)
        assert max(shares) > 0.9


class TestCommitPipelineCounts:
    """The paper's published counts for the commit model (Figs 7/12/13)."""

    def test_initial_512(self):
        assert commit_report(4).initial_states == 512

    def test_pruned_48(self):
        assert commit_report(4).reachable_states == 48

    def test_merged_33(self):
        assert commit_report(4).merged_states == 33

    def test_prune_only_machine_has_48_states(self):
        assert len(commit_machine(4, merge=False)) == 48

    def test_merged_machine_has_33_states(self):
        assert len(commit_machine(4)) == 33

    def test_table1_row_shape(self):
        row = commit_report(4).table1_row()
        assert row["initial_states"] == 512
        assert row["final_states"] == 33
        assert row["generation_time_s"] >= 0

    def test_unpruned_commit_machine_keeps_512(self):
        machine = CommitModel(4).generate_state_machine(prune=False, merge=False)
        assert len(machine) == 512

    def test_every_merged_state_reachable(self):
        machine = commit_machine(4)
        assert machine.reachable_names() == set(machine.state_names())
