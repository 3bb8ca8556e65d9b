"""Unit tests for the optimization passes and the pass pipeline."""

import pytest

from repro.core.machine import StateMachine
from repro.core.state import State, Transition
from repro.models.commit import CommitModel
from repro.opt import (
    DeadActionEliminationPass,
    HotStateRenumberPass,
    IndexedMachine,
    MergeEquivalentPass,
    PassPipeline,
    PruneUnreachablePass,
    as_pipeline,
    parse_opt_spec,
    standard_pipeline,
)


def build(states, transitions, messages, start, finals=(), name="m"):
    """Hand-build a machine: transitions is [(src, message, dst, actions)]."""
    machine = StateMachine(messages, name=name)
    for state in states:
        machine.add_state(State(state, final=state in finals))
    for src, message, dst, actions in transitions:
        machine.get_state(src).record_transition(Transition(message, dst, actions))
    machine.set_start(start)
    return machine


def indexed(machine) -> IndexedMachine:
    return IndexedMachine.from_machine(machine)


class TestPrune:
    def test_unreachable_states_removed_and_renumbered(self):
        machine = build(
            ["A", "B", "Island", "IslandEnd"],
            [
                ("A", "go", "B", ()),
                ("Island", "go", "IslandEnd", ("->beacon",)),
            ],
            ["go"],
            "A",
            finals=["IslandEnd"],
        )
        pruned, mapping = PruneUnreachablePass().run(indexed(machine))
        assert pruned.state_names == ("A", "B")
        assert mapping == {0: 0, 1: 1, 2: None, 3: None}
        pruned.check_integrity()

    def test_reachable_machine_is_identity(self):
        im = indexed(build(["A"], [("A", "go", "A", ())], ["go"], "A"))
        pruned, mapping = PruneUnreachablePass().run(im)
        assert pruned is im
        assert mapping == {0: 0}

    def test_pruned_finish_state_cleared(self):
        machine = build(
            ["A", "Orphan"], [("A", "go", "A", ())], ["go"], "A", finals=["Orphan"]
        )
        machine.set_finish("Orphan")
        pruned, _ = PruneUnreachablePass().run(indexed(machine))
        assert pruned.finish == -1
        assert pruned.to_machine().finish_state is None


class TestMerge:
    def two_tail_machine(self):
        # B and C behave identically (same actions into the same final
        # state): the canonical mergeable pair.
        return build(
            ["A", "B", "C", "EndB", "EndC"],
            [
                ("A", "left", "B", ()),
                ("A", "right", "C", ()),
                ("B", "go", "EndB", ("->fire",)),
                ("C", "go", "EndC", ("->fire",)),
            ],
            ["left", "right", "go"],
            "A",
            finals=["EndB", "EndC"],
        )

    def test_equivalent_states_collapse_to_representative(self):
        merged, mapping = MergeEquivalentPass().run(indexed(self.two_tail_machine()))
        assert merged.state_names == ("A", "B", "EndB")
        # C (id 2) maps to B (new id 1); EndC (id 4) maps to EndB (new id 2).
        assert mapping == {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}
        merged.check_integrity()

    def test_merge_rewrites_transition_targets(self):
        merged, _ = MergeEquivalentPass().run(indexed(self.two_tail_machine()))
        rebuilt = merged.to_machine()
        assert rebuilt.get_state("A").get_transition("right").target_name == "B"
        assert rebuilt.get_state("B").get_transition("go").target_name == "EndB"

    def test_merge_records_member_names(self):
        merged, _ = MergeEquivalentPass().run(indexed(self.two_tail_machine()))
        assert merged.state_merged[1] == ("B", "C")
        assert any("equivalent states" in note for note in merged.state_annotations[1])

    def test_states_with_different_actions_stay_apart(self):
        machine = build(
            ["A", "B", "C", "End"],
            [
                ("A", "left", "B", ()),
                ("A", "right", "C", ()),
                ("B", "go", "End", ("->fire",)),
                ("C", "go", "End", ("->other",)),
            ],
            ["left", "right", "go"],
            "A",
            finals=["End"],
        )
        merged, mapping = MergeEquivalentPass().run(indexed(machine))
        assert len(merged.state_names) == 4
        assert mapping == {i: i for i in range(4)}

    def test_refinement_is_a_fixpoint(self):
        # A chain where one merge enables the next: D1/D2 merge, which
        # then makes C1/C2 equivalent too.
        machine = build(
            ["A", "C1", "C2", "D1", "D2", "End"],
            [
                ("A", "left", "C1", ()),
                ("A", "right", "C2", ()),
                ("C1", "go", "D1", ()),
                ("C2", "go", "D2", ()),
                ("D1", "go", "End", ("->fire",)),
                ("D2", "go", "End", ("->fire",)),
            ],
            ["left", "right", "go"],
            "A",
            finals=["End"],
        )
        merged, _ = MergeEquivalentPass().run(indexed(machine))
        assert merged.state_names == ("A", "C1", "D1", "End")

    def test_already_minimal_machine_is_identity(self):
        from tests.conftest import commit_machine

        im = indexed(commit_machine(4))
        merged, mapping = MergeEquivalentPass().run(im)
        assert merged is im
        assert all(mapping[i] == i for i in mapping)

    def test_duplicate_pool_entries_do_not_block_merging(self):
        from dataclasses import replace

        im = indexed(self.two_tail_machine())
        # Split the shared ('->fire',) sequence into a duplicate pool
        # entry so B and C reference different-but-equal seq ids.
        fire_seq = im.action_seq[1 * im.width + 2]  # B's 'go' slot
        seqs = im.action_seqs + (im.action_seqs[fire_seq],)
        action_seq = list(im.action_seq)
        action_seq[2 * im.width + 2] = len(seqs) - 1  # C's 'go' slot
        doctored = replace(im, action_seqs=seqs, action_seq=tuple(action_seq))
        merged, _ = MergeEquivalentPass().run(doctored)
        assert merged.state_names == ("A", "B", "EndB")

    def test_flattened_commit_hsm_strictly_shrinks(self):
        """The acceptance claim: merging recovers flattening blow-up."""
        from repro.models import build_hierarchical_model

        flat = build_hierarchical_model("commit", 4).flatten()
        merged, _ = MergeEquivalentPass().run(indexed(flat))
        assert len(merged.state_names) < len(flat)


class TestQuotientProof:
    """Step 4's quotient carries a proof the merge pass accepts as long as
    every array is still the object step 4 produced."""

    @staticmethod
    def count_refinements(monkeypatch) -> list:
        """From now on, record each ``coarsest_partition`` call's state count."""
        from repro.core import minimize

        calls = []
        kernel = minimize.coarsest_partition

        def counted(*arrays):
            calls.append(len(arrays[-1]))
            return kernel(*arrays)

        monkeypatch.setattr(minimize, "coarsest_partition", counted)
        return calls

    def test_a_swapped_array_voids_the_proof(self, monkeypatch):
        from dataclasses import replace

        from repro.core.minimize import merge_equivalent

        # P and Q both fire x on a, into F and R: distinct, until Q's
        # target becomes F.
        machine = build(
            ["S", "P", "Q", "R", "F"],
            [
                ("S", "a", "P", ()),
                ("S", "b", "Q", ()),
                ("P", "a", "F", ("->x",)),
                ("Q", "a", "R", ("->x",)),
                ("R", "b", "F", ("->y",)),
            ],
            ["a", "b"],
            "S",
            finals=["F"],
        )
        quotient = indexed(merge_equivalent(machine))
        assert quotient.state_names == ("S", "P", "Q", "R", "F")
        next_state = list(quotient.next_state)
        next_state[2 * quotient.width] = 4  # Q --a--> F
        doctored = replace(quotient, next_state=tuple(next_state))
        assert doctored._proof is quotient._proof
        refinements = self.count_refinements(monkeypatch)
        merged, mapping = MergeEquivalentPass().run(doctored)
        assert merged.state_names == ("S", "P", "R", "F")
        assert mapping == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
        # What the pass merged is a quotient too.
        assert MergeEquivalentPass().run(merged)[0] is merged
        assert refinements == [5]

    def test_a_one_shot_merge_is_refined(self):
        from repro.core.minimize import one_shot_merge

        # One literal pass merges D1/D2 only; refinement then merges C1/C2.
        machine = build(
            ["A", "C1", "C2", "D1", "D2", "End"],
            [
                ("A", "left", "C1", ()),
                ("A", "right", "C2", ()),
                ("C1", "go", "D1", ()),
                ("C2", "go", "D2", ()),
                ("D1", "go", "End", ("->fire",)),
                ("D2", "go", "End", ("->fire",)),
            ],
            ["left", "right", "go"],
            "A",
            finals=["End"],
        )
        once = indexed(one_shot_merge(machine))
        assert once.state_names == ("A", "C1", "C2", "D1", "End")
        merged, _ = MergeEquivalentPass().run(once)
        assert merged.state_names == ("A", "C1", "D1", "End")

    def test_a_generated_machine_is_not_refined_again(self, monkeypatch):
        im = indexed(CommitModel(8).generate_state_machine())
        refinements = self.count_refinements(monkeypatch)
        merged, mapping = MergeEquivalentPass().run(im)
        assert merged is im
        assert mapping == {i: i for i in range(im.state_count)}
        assert refinements == []

    def test_the_proof_survives_pickling(self, monkeypatch):
        import pickle

        # Pickle's memo keeps the shared tuples one object each, as a
        # worker started by ``spawn`` receives them.
        machine = CommitModel(8).generate_state_machine()
        im = indexed(pickle.loads(pickle.dumps(machine)))
        refinements = self.count_refinements(monkeypatch)
        assert MergeEquivalentPass().run(im)[0] is im
        assert refinements == []


class TestDeadActions:
    def test_orphaned_pool_entries_collected(self):
        machine = build(
            ["A", "B", "Island"],
            [
                ("A", "go", "B", ("->keep",)),
                ("Island", "go", "Island", ("->dead", "->keep")),
            ],
            ["go"],
            "A",
        )
        im, _ = PruneUnreachablePass().run(indexed(machine))
        assert "->dead" in im.actions  # pruning leaves the pools alone
        compacted, mapping = DeadActionEliminationPass().run(im)
        assert compacted.actions == ("->keep",)
        assert compacted.action_seqs == ((), (0,))
        assert mapping == {i: i for i in range(len(im.state_names))}
        compacted.to_machine().check_integrity()

    def test_duplicate_sequences_folded(self):
        from dataclasses import replace

        machine = build(
            ["A", "B"],
            [("A", "go", "B", ("->ping",)), ("B", "go", "A", ("->ping",))],
            ["go"],
            "A",
        )
        im = indexed(machine)
        # Hand-split the shared interned sequence into a duplicate entry.
        seqs = im.action_seqs + (im.action_seqs[1],)
        action_seq = list(im.action_seq)
        action_seq[im.width] = len(seqs) - 1  # B's transition uses the dup
        doctored = replace(im, action_seqs=seqs, action_seq=tuple(action_seq))
        compacted, _ = DeadActionEliminationPass().run(doctored)
        assert len(compacted.action_seqs) == 2
        assert compacted.action_seq[0] == compacted.action_seq[im.width]

    def test_clean_pools_are_identity(self):
        im = indexed(build(["A", "B"], [("A", "go", "B", ("->x",))], ["go"], "A"))
        compacted, _ = DeadActionEliminationPass().run(im)
        assert compacted is im


class TestRenumber:
    def hub_machine(self):
        # Hub has in-degree 3; Spoke* each 1; Start 0 (but pinned hottest).
        return build(
            ["Start", "S1", "S2", "Hub"],
            [
                ("Start", "a", "S1", ()),
                ("Start", "b", "S2", ()),
                ("S1", "a", "Hub", ()),
                ("S2", "a", "Hub", ()),
                ("Hub", "a", "Hub", ()),
            ],
            ["a", "b"],
            "Start",
        )

    def test_in_degree_ordering_start_pinned(self):
        renumbered, mapping = HotStateRenumberPass().run(indexed(self.hub_machine()))
        assert renumbered.state_names[0] == "Start"
        assert renumbered.state_names[1] == "Hub"
        assert renumbered.start == 0
        assert mapping[3] == 1  # Hub: id 3 -> id 1
        renumbered.check_integrity()

    def test_profile_overrides_in_degree(self):
        profile = {"S2": 100, "Start": 50, "Hub": 10, "S1": 1}
        renumbered, _ = HotStateRenumberPass(profile=profile).run(
            indexed(self.hub_machine())
        )
        # An observed profile is trusted as given — no start pinning.
        assert renumbered.state_names == ("S2", "Start", "Hub", "S1")
        assert renumbered.state_names[renumbered.start] == "Start"

    def test_profile_renumbering_preserves_behaviour(self):
        from repro.runtime.interp import MachineInterpreter

        machine = self.hub_machine()
        renumbered, _ = HotStateRenumberPass(profile={"Hub": 9}).run(
            indexed(machine)
        )
        a = MachineInterpreter(machine)
        b = MachineInterpreter(renumbered.to_machine())
        for message in ["a", "b", "a", "a"]:
            assert a.receive(message) == b.receive(message)
            assert a.get_state() == b.get_state()

    def test_renumbering_preserves_behaviour(self):
        from repro.runtime.interp import MachineInterpreter

        machine = self.hub_machine()
        renumbered, _ = HotStateRenumberPass().run(indexed(machine))
        a = MachineInterpreter(machine)
        b = MachineInterpreter(renumbered.to_machine())
        for message in ["a", "b", "a", "a", "b", "a"]:
            assert a.receive(message) == b.receive(message)
            assert a.get_state() == b.get_state()
        assert a.sent == b.sent


class TestPipeline:
    def test_report_carries_per_pass_deltas(self):
        machine = build(
            ["A", "B", "C", "EndB", "EndC", "Island"],
            [
                ("A", "left", "B", ()),
                ("A", "right", "C", ()),
                ("B", "go", "EndB", ("->fire",)),
                ("C", "go", "EndC", ("->fire",)),
                ("Island", "go", "Island", ("->dead",)),
            ],
            ["left", "right", "go"],
            "A",
            finals=["EndB", "EndC"],
        )
        optimized, report = standard_pipeline(3).optimize_machine(machine)
        assert [d.name for d in report.deltas] == [
            "prune",
            "merge",
            "dead-actions",
            "renumber",
        ]
        assert report.delta("prune").states_removed == 1
        assert report.delta("merge").states_removed == 2
        assert report.delta("dead-actions").actions_before == 2
        assert report.delta("dead-actions").actions_after == 1
        assert report.states_before == 6
        assert report.states_after == 3
        assert len(optimized) == 3
        assert report.total_time >= 0

    def test_state_map_composes_across_passes(self):
        machine = build(
            ["A", "B", "C", "End"],
            [
                ("A", "left", "B", ()),
                ("A", "right", "C", ()),
                ("B", "go", "End", ()),
                ("C", "go", "End", ()),
            ],
            ["left", "right", "go"],
            "A",
            finals=["End"],
        )
        _, report = standard_pipeline(3).optimize_machine(machine)
        assert report.state_map["C"] == "B"
        assert report.state_map["A"] == "A"
        assert not report.identity

    def test_identity_run_detected(self):
        from tests.conftest import commit_machine

        _, report = standard_pipeline(2).optimize_machine(commit_machine(4))
        assert report.identity
        assert report.state_map["FINISHED"] == "FINISHED"

    def test_empty_pipeline(self):
        from tests.conftest import commit_machine

        machine = commit_machine(4)
        optimized, report = standard_pipeline(0).optimize_machine(machine)
        assert report.deltas == []
        assert report.identity
        assert len(optimized) == len(machine)

    def test_rejects_non_pass(self):
        with pytest.raises(TypeError):
            PassPipeline((object(),))


class TestSpecParsing:
    def test_levels(self):
        assert parse_opt_spec(None) is None
        assert parse_opt_spec("none") is None
        assert parse_opt_spec(0).pass_names() == ()
        assert parse_opt_spec(1).pass_names() == ("prune",)
        assert parse_opt_spec("2").pass_names() == ("prune", "merge", "dead-actions")
        assert parse_opt_spec("full").pass_names() == (
            "prune",
            "merge",
            "dead-actions",
            "renumber",
        )

    def test_pass_lists(self):
        assert parse_opt_spec("prune,merge").pass_names() == ("prune", "merge")
        spaced = parse_opt_spec(" merge , renumber ")
        assert spaced.pass_names() == ("merge", "renumber")

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_opt_spec("7")
        with pytest.raises(ValueError):
            parse_opt_spec("prune,bogus")

    def test_as_pipeline_passthrough(self):
        pipeline = standard_pipeline(1)
        assert as_pipeline(pipeline) is pipeline
        assert as_pipeline(None) is None
        assert as_pipeline(3).pass_names() == parse_opt_spec(3).pass_names()
