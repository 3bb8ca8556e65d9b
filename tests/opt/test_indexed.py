"""Tests for the IndexedMachine IR: interning, round-trips, integrity."""

import pytest

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.state import State, Transition
from repro.models import build_hierarchical_model
from repro.opt import IndexedMachine
from tests.conftest import commit_machine


def tiny_machine() -> StateMachine:
    machine = StateMachine(["go", "stop"], name="tiny")
    machine.add_state(State("A", annotations=("start here",)))
    machine.add_state(State("B"))
    machine.add_state(State("End", final=True))
    machine.get_state("A").record_transition(
        Transition("go", "B", ("->ping",), ("hop",))
    )
    machine.get_state("A").record_transition(Transition("stop", "End"))
    machine.get_state("B").record_transition(Transition("go", "B", ("->ping",)))
    machine.get_state("B").record_transition(Transition("stop", "End", ("->bye",)))
    machine.set_start("A")
    machine.set_finish("End")
    return machine


class TestInterning:
    def test_ids_follow_insertion_order(self):
        im = IndexedMachine.from_machine(tiny_machine())
        assert im.state_names == ("A", "B", "End")
        assert im.messages == ("go", "stop")
        assert im.start == 0
        assert im.finish == 2
        assert im.final == (False, False, True)

    def test_arrays_are_row_major(self):
        im = IndexedMachine.from_machine(tiny_machine())
        # A: go->B, stop->End; B: go->B, stop->End; End: nothing.
        assert im.next_state == (1, 2, 1, 2, -1, -1)
        assert im.transition_count() == 4

    def test_action_pools_are_interned(self):
        im = IndexedMachine.from_machine(tiny_machine())
        assert set(im.actions) == {"->ping", "->bye"}
        # The empty sequence is always pool entry 0; the two ping
        # transitions share one interned sequence.
        assert im.action_seqs[0] == ()
        assert im.action_seq[0] == im.action_seq[2]

    def test_transition_accessor(self):
        im = IndexedMachine.from_machine(tiny_machine())
        target, actions = im.transition(0, 0)
        assert im.state_names[target] == "B"
        assert tuple(im.actions[a] for a in actions) == ("->ping",)
        assert im.transition(2, 0) is None

    def test_sidecars_preserved(self):
        im = IndexedMachine.from_machine(tiny_machine())
        assert im.state_annotations[0] == ("start here",)
        assert im.transition_annotations[0] == ("hop",)

    def test_reachable_ids(self):
        machine = tiny_machine()
        machine.add_state(State("Island"))
        machine.get_state("Island").record_transition(Transition("go", "Island"))
        im = IndexedMachine.from_machine(machine)
        assert im.reachable_ids() == {0, 1, 2}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            tiny_machine,
            lambda: commit_machine(4),
            lambda: build_hierarchical_model("session").flatten(),
            lambda: build_hierarchical_model("commit", 4).flatten(),
        ],
        ids=["tiny", "commit-r4", "session-hsm", "commit-hsm"],
    )
    def test_to_machine_preserves_structure(self, factory):
        machine = factory()
        rebuilt = IndexedMachine.from_machine(machine).to_machine()
        assert rebuilt.state_names() == machine.state_names()
        assert rebuilt.messages == machine.messages
        assert rebuilt.start_state.name == machine.start_state.name
        finish = machine.finish_state
        rebuilt_finish = rebuilt.finish_state
        assert (rebuilt_finish.name if rebuilt_finish else None) == (
            finish.name if finish else None
        )
        for state in machine.states:
            twin = rebuilt.get_state(state.name)
            assert twin.final == state.final
            for message in machine.messages:
                a = state.get_transition(message)
                b = twin.get_transition(message)
                if a is None:
                    assert b is None
                else:
                    assert b is not None
                    assert b.target_name == a.target_name
                    assert b.actions == a.actions

    def test_dispatch_table_matches_machine_export(self):
        machine = commit_machine(4)
        table = IndexedMachine.from_machine(machine).dispatch_table()
        assert table == machine.dispatch_table()

    def test_dispatch_table_strips_action_prefixes(self):
        table = IndexedMachine.from_machine(tiny_machine()).dispatch_table()
        assert table.lookup("A", "go") == (1, ("ping",))


class TestIntegrity:
    def test_check_integrity_accepts_well_formed(self):
        IndexedMachine.from_machine(tiny_machine()).check_integrity()

    def test_mismatched_array_length_rejected(self):
        from dataclasses import replace

        im = IndexedMachine.from_machine(tiny_machine())
        with pytest.raises(MachineStructureError):
            replace(im, next_state=im.next_state[:-1]).check_integrity()

    def test_dangling_target_rejected(self):
        from dataclasses import replace

        im = IndexedMachine.from_machine(tiny_machine())
        bad = list(im.next_state)
        bad[0] = 99
        with pytest.raises(MachineStructureError):
            replace(im, next_state=tuple(bad)).check_integrity()

    def test_final_state_with_outgoing_rejected(self):
        from dataclasses import replace

        im = IndexedMachine.from_machine(tiny_machine())
        bad_next = list(im.next_state)
        bad_seq = list(im.action_seq)
        bad_next[4] = 0  # End: go -> A
        bad_seq[4] = 0
        with pytest.raises(MachineStructureError):
            replace(
                im, next_state=tuple(bad_next), action_seq=tuple(bad_seq)
            ).check_integrity()

    @pytest.mark.parametrize(
        "field, change",
        [
            ("finish", {"finish": 3}),
            ("finish", {"finish": 0}),  # names a state that is not final
            ("final", {"final": (False, False)}),
            ("state_annotations", {"state_annotations": (("start here",),)}),
            ("state_vectors", {"state_vectors": (None,) * 4}),
            ("state_merged", {"state_merged": ((),)}),
            ("action_seqs", {"action_seqs": ((), (0,), (9,))}),
            ("next_state", {"next_state": (1, 2, 1, 2, -2, -1)}),
            ("action_seq", {"action_seq": (1, 0, 1, 2, -1, 7)}),
            ("state_names", {"state_names": ("A", "B", "B")}),
            ("messages", {"messages": ("go", "go")}),
            ("transition_annotations", {"transition_annotations": {4: ("x",)}}),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_malformed_field_named(self, field, change):
        """Every field a consumer reads is checked, and the refusal names
        it: none of these may pass, or surface as an ``IndexError``."""
        from dataclasses import replace

        im = IndexedMachine.from_machine(tiny_machine())
        with pytest.raises(MachineStructureError, match=field):
            replace(im, **change).check_integrity()
        with pytest.raises(MachineStructureError, match=field):
            replace(im, **change).to_machine()


def bundled_machines():
    from repro.models.chandra_toueg import CoordinatorRoundModel
    from repro.models.commit import CommitModel
    from repro.models.termination import TerminationModel
    from repro.models.threshold_sig import ThresholdSignatureModel

    for model in (
        CommitModel(4),
        CoordinatorRoundModel(processes=5),
        TerminationModel(max_tasks=3),
        ThresholdSignatureModel(signers=4, threshold=3),
    ):
        for engine in ("eager", "lazy"):
            for merge in (True, False):
                yield model.generate_state_machine(engine=engine, merge=merge)
    for args in (("session",), ("commit", 4)):
        yield build_hierarchical_model(*args).flatten()


def test_every_bundled_finish_state_is_final():
    """The integrity check refuses a finish state that is not final; no
    bundled model's machine, merged or not, has one."""
    for machine in bundled_machines():
        im = IndexedMachine.from_machine(machine)
        im.check_integrity()
        assert im.finish == -1 or im.final[im.finish]
