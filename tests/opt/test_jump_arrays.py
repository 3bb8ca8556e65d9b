"""Tests for ``IndexedMachine.jump_arrays``: the dispatch arrays every fleet
reads off the IR it holds (premultiplied next states and stripped action
names, one entry per state x message)."""

import pytest

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.state import State, Transition
from repro.opt import IndexedMachine
from repro.runtime.interp import MachineInterpreter
from tests.conftest import commit_machine


def stripped(actions) -> tuple[str, ...]:
    return tuple(a[2:] if a.startswith("->") else a for a in actions)


@pytest.fixture(scope="module")
def ir() -> IndexedMachine:
    return IndexedMachine.from_machine(commit_machine(4))


class TestJumpArrays:
    def test_shape(self, ir):
        machine = commit_machine(4)
        jump, acts = ir.jump_arrays()
        assert ir.state_names == machine.state_names()
        assert ir.messages == machine.messages
        assert len(jump) == len(acts) == len(machine) * len(machine.messages)
        assert ir.width == len(machine.messages)
        assert ir.state_names[ir.start] == machine.start_state.name

    def test_final_flags(self, ir):
        machine = commit_machine(4)
        for name, index in ir.state_index().items():
            assert ir.final[index] == machine.get_state(name).final

    def test_entries_match_transitions(self, ir):
        machine = commit_machine(4)
        jump, acts = ir.jump_arrays()
        states, columns = ir.state_index(), ir.message_index()
        for state in machine.states:
            for message in machine.messages:
                offset = states[state.name] * ir.width + columns[message]
                transition = state.get_transition(message)
                if transition is None:
                    assert jump[offset] == -1
                    assert acts[offset] == ()
                else:
                    assert jump[offset] % ir.width == 0
                    target = ir.state_names[jump[offset] // ir.width]
                    assert target == transition.target_name
                    assert acts[offset] == stripped(transition.actions)

    def test_replay_equals_interpreter(self, ir):
        """Walking the arrays step for step mirrors the interpreter."""
        interp = MachineInterpreter(commit_machine(4))
        jump, acts = ir.jump_arrays()
        columns = ir.message_index()
        state = ir.start * ir.width
        actions: list[str] = []
        for message in ["free", "update", "vote", "vote", "commit", "commit"]:
            offset = state + columns[message]
            fired = interp.receive(message)
            if jump[offset] < 0:
                assert not fired
            else:
                assert fired
                state = jump[offset]
                actions.extend(acts[offset])
            assert ir.state_names[state // ir.width] == interp.get_state()
        assert actions == interp.sent
        assert ir.final[state // ir.width] and interp.is_finished()

    def test_integrity_enforced(self):
        """Interning runs check_integrity: a machine without a start state
        (a fresh StateMachine) yields no IR to dispatch on."""
        with pytest.raises(MachineStructureError):
            IndexedMachine.from_machine(StateMachine(["m"]))


class TestOffsets:
    def test_finish_state_absorbs_every_message(self, ir):
        """The merged FINISHED row is all inapplicable."""
        machine = commit_machine(4)
        assert machine.finish_state is not None
        jump, acts = ir.jump_arrays()
        row = ir.state_index()[machine.finish_state.name] * ir.width
        assert jump[row : row + ir.width] == [-1] * ir.width
        assert acts[row : row + ir.width] == [()] * ir.width
        assert ir.final[ir.finish]

    def test_jump_matches_transition_accessor(self, ir):
        jump, acts = ir.jump_arrays()
        column = ir.message_index()["update"]
        target, seq = ir.transition(ir.start, column)
        offset = ir.start * ir.width + column
        assert jump[offset] == target * ir.width
        assert acts[offset] == stripped(ir.actions[a] for a in seq)

    def test_actions_are_stripped_of_prefixes(self):
        machine = StateMachine(["go"], name="tiny")
        machine.add_state(State("A"))
        machine.add_state(State("B", final=True))
        machine.get_state("A").record_transition(
            Transition("go", "B", ("->ping", "log"))
        )
        machine.set_start("A")
        jump, acts = IndexedMachine.from_machine(machine).jump_arrays()
        assert jump == [1, -1]
        assert acts == [("ping", "log"), ()]


class TestAutoRecycle:
    def test_completing_transitions_jump_to_start(self, ir):
        jump, acts = ir.jump_arrays(auto_recycle=True)
        plain, _ = ir.jump_arrays()
        recycled = [
            o for o, t in enumerate(plain) if t >= 0 and ir.final[t // ir.width]
        ]
        assert recycled
        for offset in recycled:
            assert jump[offset] == ir.start * ir.width
            assert acts[offset] is None

    def test_other_entries_are_unchanged(self, ir):
        jump, acts = ir.jump_arrays(auto_recycle=True)
        plain, plain_acts = ir.jump_arrays()
        for offset, target in enumerate(plain):
            if target < 0 or not ir.final[target // ir.width]:
                assert jump[offset] == target
                assert acts[offset] == plain_acts[offset]

    def test_recycled_walk_runs_a_second_round(self, ir):
        """A completing message lands back on the start row, so the same
        round replays from there as a fresh instance's would."""
        jump, acts = ir.jump_arrays(auto_recycle=True)
        columns = ir.message_index()
        round_ = ["update", "vote", "vote", "commit", "commit"]
        state = ir.start * ir.width
        trail = []
        for message in round_ + round_:
            offset = state + columns[message]
            assert jump[offset] >= 0
            state = jump[offset]
            trail.append(acts[offset])
        assert state == ir.start * ir.width
        assert trail[: len(round_)] == trail[len(round_) :]
        assert trail[-1] is None


class TestUnreachableStates:
    """The arrays cover machines that carry unreachable states (generated
    with prune=False, or hand-built registries)."""

    @staticmethod
    def machine_with_unreachable():
        machine = StateMachine(["go", "loop"], name="island")
        machine.add_state(State("Start"))
        machine.add_state(State("End", final=True))
        machine.add_state(State("Island"))
        machine.add_state(State("IslandEnd", final=True))
        machine.get_state("Start").record_transition(Transition("go", "End"))
        machine.get_state("Island").record_transition(
            Transition("go", "IslandEnd", ("->beacon",))
        )
        machine.get_state("Island").record_transition(Transition("loop", "Island"))
        machine.set_start("Start")
        return machine

    def test_arrays_include_unreachable_rows(self):
        machine = self.machine_with_unreachable()
        assert machine.reachable_names() == {"Start", "End"}
        im = IndexedMachine.from_machine(machine)
        jump, _ = im.jump_arrays()
        assert set(im.state_names) == {"Start", "End", "Island", "IslandEnd"}
        assert len(jump) == len(im.state_names) * im.width

    def test_start_unaffected_by_unreachable_rows(self):
        im = IndexedMachine.from_machine(self.machine_with_unreachable())
        index = im.state_index()
        assert im.state_names[im.start] == "Start"
        assert im.final[index["IslandEnd"]]
        assert not im.final[index["Island"]]

    def test_dispatch_works_from_unreachable_states(self):
        im = IndexedMachine.from_machine(self.machine_with_unreachable())
        jump, acts = im.jump_arrays()
        index, columns = im.state_index(), im.message_index()
        island = index["Island"] * im.width
        assert jump[island + columns["go"]] == index["IslandEnd"] * im.width
        assert acts[island + columns["go"]] == ("beacon",)
        assert jump[island + columns["loop"]] == island
        # Messages inapplicable in an unreachable state are -1, like
        # anywhere else.
        assert jump[index["IslandEnd"] * im.width + columns["go"]] == -1

    def test_unpruned_generated_machine_round_trips(self):
        from repro.core.pipeline import generate
        from repro.models.commit import CommitModel

        machine, report = generate(CommitModel(4), prune=False, merge=False)
        assert report.initial_states == 512
        im = IndexedMachine.from_machine(machine)
        jump, _ = im.jump_arrays()
        assert len(im.state_names) == 512
        # The reachable core still replays through the arrays.
        columns = im.message_index()
        state = im.start * im.width
        for message in ("update", "vote", "vote", "vote"):
            if jump[state + columns[message]] >= 0:
                state = jump[state + columns[message]]
        assert state != im.start * im.width
