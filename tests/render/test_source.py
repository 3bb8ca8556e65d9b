"""Tests for the source-code renderers (paper Figs 16/17/19)."""

import pytest

from repro.render.base import camel_case, python_identifier
from repro.render.source import (
    JavaSourceRenderer,
    PythonSourceRenderer,
    action_method_name,
    machine_class_name,
)
from tests.conftest import commit_machine


class TestNaming:
    def test_action_method_name(self):
        assert action_method_name("->vote") == "send_vote"
        assert action_method_name("->not_free") == "send_not_free"
        assert action_method_name("alarm") == "send_alarm"

    def test_machine_class_name(self):
        assert machine_class_name(commit_machine(4)) == "CommitR4Machine"

    def test_python_identifier(self):
        assert python_identifier("not free") == "not_free"
        assert python_identifier("9lives") == "_9lives"

    def test_camel_case(self):
        assert camel_case("not_free") == "NotFree"
        assert camel_case("vote") == "Vote"


class TestPythonRenderer:
    def test_output_compiles(self):
        source = PythonSourceRenderer().render(commit_machine(4))
        compile(source, "<test>", "exec")

    def test_standalone_mode_runs_without_base(self):
        source = PythonSourceRenderer(action_base=None).render(commit_machine(4))
        namespace: dict = {}
        exec(compile(source, "<test>", "exec"), namespace)
        cls = namespace["CommitR4Machine"]
        instance = cls()
        assert instance.get_state() == "F/0/F/0/F/F/F"
        instance.receive("free")
        instance.receive("update")
        assert instance.get_state() == "T/0/T/0/F/T/T"

    def test_handler_per_message(self):
        """Each message keeps its ``receive_<message>()`` entry point and
        gets one transition table, the Python spelling of Fig 16's switch."""
        source = PythonSourceRenderer().render(commit_machine(4))
        for message in ("update", "vote", "commit", "free", "not_free"):
            assert f"def receive_{message}(self):" in source
            assert f"        return self.receive({message!r})" in source
            assert source.count(f"\nON_{message.upper()} = {{\n") == 1
            assert f"    {message!r}: ON_{message.upper()},\n" in source

    def test_dispatch_method(self):
        source = PythonSourceRenderer().render(commit_machine(4))
        assert "def receive(self, message):" in source
        assert "TRANSITIONS[message].get(self._state)" in source

    def test_table_entry_per_transition(self):
        machine = commit_machine(4)
        namespace: dict = {}
        source = PythonSourceRenderer(action_base=None).render(machine)
        exec(compile(source, "<test>", "exec"), namespace)
        tables = namespace["TRANSITIONS"]
        assert tuple(tables) == machine.messages
        assert sum(len(table) for table in tables.values()) == (
            machine.transition_count()
        )
        for state, transition in machine.transitions():
            target, perform = tables[transition.message][state.name]
            assert target == transition.target_name
            assert (perform is None) == (not transition.actions)

    def test_one_perform_function_per_distinct_action_sequence(self):
        machine = commit_machine(4)
        source = PythonSourceRenderer().render(machine)
        sequences = {t.actions for _, t in machine.transitions() if t.actions}
        assert source.count("\ndef _perform_") == len(sequences)
        assert "\ndef _perform_1(self):\n    self.send_vote()\n" in source

    def test_dispatch_does_not_scan_states(self):
        """O(1) in the number of states: no per-state branch anywhere, and
        ``receive`` compiles to the same bytecode whatever the machine."""
        codes = []
        for factor in (4, 16):
            namespace: dict = {}
            source = PythonSourceRenderer(action_base=None).render(
                commit_machine(factor)
            )
            assert "if state ==" not in source
            assert "elif" not in source
            exec(compile(source, "<test>", "exec"), namespace)
            cls = namespace[f"CommitR{factor}Machine"]
            codes.append(cls.receive.__code__.co_code)
        assert codes[0] == codes[1]

    def test_constants_present(self):
        source = PythonSourceRenderer().render(commit_machine(4))
        assert "START_STATE = 'F/0/F/0/F/F/F'" in source
        assert "FINAL_STATES = frozenset(['FINISHED'])" in source

    def test_inapplicable_messages_return_false(self):
        source = PythonSourceRenderer().render(commit_machine(4))
        assert source.count("return False") == 1  # the one dispatch method
        assert "# Message not applicable in the current state: ignored." in source

    def test_commentary_included_by_default(self):
        source = PythonSourceRenderer().render(commit_machine(4))
        assert "# " in source
        assert "threshold" in source.lower()

    def test_every_annotation_appears_exactly_once(self):
        """Commentary sits above its own table entry and nowhere else."""
        machine = commit_machine(4)
        lines = PythonSourceRenderer().render(machine).splitlines()
        expected = 0
        for state, transition in machine.transitions():
            table = lines.index(f"ON_{transition.message.upper()} = {{")
            entry = next(
                i
                for i in range(table, len(lines))
                if lines[i].startswith(f"    {state.name!r}: (")
            )
            notes = [f"    # {note}" for note in transition.annotations]
            assert lines[entry - len(notes) : entry] == notes
            expected += len(notes)
        assert expected > 0
        assert sum(line.startswith("    # ") for line in lines) == expected

    def test_commentary_can_be_disabled(self):
        with_comments = PythonSourceRenderer().render(commit_machine(4))
        renderer = PythonSourceRenderer(include_commentary=False)
        without = renderer.render(commit_machine(4))
        assert len(without) < len(with_comments)

    def test_custom_class_name(self):
        source = PythonSourceRenderer(class_name="MyMachine").render(commit_machine(4))
        assert "class MyMachine(ActionsBase):" in source

    def test_generation_marker(self):
        source = PythonSourceRenderer().render(commit_machine(4))
        assert "DO NOT EDIT" in source

    def test_all_states_appear(self):
        machine = commit_machine(4)
        source = PythonSourceRenderer().render(machine)
        for state in machine.states:
            assert repr(state.name) in source


class TestGeneratedBehaviour:
    """The generated code behaves exactly like the machine it came from."""

    @pytest.fixture
    def instance(self):
        from tests.conftest import compiled_commit

        return compiled_commit(4).new_instance()

    def test_start_state(self, instance):
        assert instance.get_state() == "F/0/F/0/F/F/F"

    def test_actions_fire(self, instance):
        instance.receive("free")
        instance.receive("update")
        assert instance.sent == ["vote", "not_free"]

    def test_inapplicable_message_ignored(self, instance):
        assert instance.receive("not_free") is False
        assert instance.get_state() == "F/0/F/0/F/F/F"

    def test_unknown_message_raises(self, instance):
        with pytest.raises(ValueError):
            instance.receive("bogus")

    def test_unhashable_message_raises_value_error(self, instance):
        with pytest.raises(ValueError, match="unknown message"):
            instance.receive(["vote"])
        assert instance.get_state() == "F/0/F/0/F/F/F"

    def test_transitions_do_not_pass_through_set_state(self):
        """``set_state`` is the validated entry from outside; a transition
        assigns the state itself, so overriding it observes restores only."""
        from tests.conftest import compiled_commit

        seen = []

        class Observed(compiled_commit(4).cls):
            def set_state(self, state):
                seen.append(state)
                super().set_state(state)

        instance = Observed()
        assert instance.receive("free")
        assert seen == []
        instance.set_state("FINISHED")
        assert seen == ["FINISHED"] and instance.is_finished()

    def test_complete_run_finishes(self, instance):
        for message in ["free", "update", "vote", "vote", "commit", "commit"]:
            instance.receive(message)
        assert instance.is_finished()
        assert instance.get_state() == "FINISHED"
        assert instance.sent == ["vote", "not_free", "commit", "free"]

    def test_finished_machine_ignores_messages(self, instance):
        for message in ["vote", "vote", "vote", "commit", "commit"]:
            instance.receive(message)
        assert instance.is_finished()
        assert instance.receive("vote") is False


class TestJavaRenderer:
    def test_fig16_shape(self):
        source = JavaSourceRenderer().render(commit_machine(4))
        assert "void receiveVote()" in source
        assert "switch (getState())" in source
        assert "break;" in source

    def test_dash_encoded_state_names(self):
        """Fig 16 writes state names with dashes: F-0-F-0-F-F-F."""
        source = JavaSourceRenderer().render(commit_machine(4))
        assert "case (F-0-F-0-F-F-F) :" in source

    def test_actions_as_camel_case_calls(self):
        source = JavaSourceRenderer().render(commit_machine(4))
        assert "sendCommit();" in source
        assert "sendNotFree();" in source

    def test_handler_per_message(self):
        source = JavaSourceRenderer().render(commit_machine(4))
        for name in ("receiveUpdate", "receiveVote", "receiveCommit",
                     "receiveFree", "receiveNotFree"):
            assert f"void {name}()" in source

    def test_braces_balanced(self):
        source = JavaSourceRenderer().render(commit_machine(4))
        assert source.count("{") == source.count("}")
