"""Tests for the deployment runtime: actions, compile, interp."""

import pytest

from repro.core.errors import DeploymentError
from repro.runtime.actions import CallbackActions, RecordingActions
from repro.runtime.compile import ACTION_BASE_NAME, compile_machine, load_machine_class
from repro.runtime.interp import MachineInterpreter
from tests.conftest import commit_machine, compiled_commit


class TestRecordingActions:
    def test_records_in_order(self):
        base = RecordingActions()
        base.send_vote()
        base.send_commit()
        assert base.sent == ["vote", "commit"]

    def test_sink_forwarding(self):
        seen = []
        base = RecordingActions(sink=seen.append)
        base.send_not_free()
        assert seen == ["not_free"]

    def test_non_action_attribute_raises(self):
        with pytest.raises(AttributeError):
            RecordingActions().bogus_method

    def test_declared_methods_are_defined_once_per_class(self):
        class Generated(RecordingActions):
            ACTION_METHODS = ("send_vote", "send_commit")

        assert "send_vote" in vars(Generated)
        assert "send_vote" not in vars(RecordingActions)
        instance = Generated()
        instance.send_vote()
        instance.send_free()  # undeclared: synthesised on demand
        assert instance.sent == ["vote", "free"]

    def test_hand_written_method_wins(self):
        class Partial(RecordingActions):
            def send_vote(self):
                self.sent.append("VOTE!")

        class Generated(Partial):
            ACTION_METHODS = ("send_vote", "send_commit")

        instance = Generated()
        instance.send_vote()
        instance.send_commit()
        assert instance.sent == ["VOTE!", "commit"]

    def test_clear_sent(self):
        base = RecordingActions()
        base.send_vote()
        base.clear_sent()
        assert base.sent == []


class TestCallbackActions:
    def test_forwards_each_action(self):
        seen = []
        base = CallbackActions(seen.append)
        base.send_vote()
        base.send_free()
        assert seen == ["vote", "free"]

    def test_declared_and_undeclared_actions(self):
        class Generated(CallbackActions):
            ACTION_METHODS = ("send_vote",)

        seen = []
        instance = Generated(seen.append)
        assert "send_vote" in vars(Generated)
        instance.send_vote()
        instance.send_free()
        assert seen == ["vote", "free"]

    def test_non_action_attribute_raises(self):
        with pytest.raises(AttributeError):
            CallbackActions(print).whatever


class TestCompileMachine:
    def test_returns_all_artefacts(self):
        compiled = compiled_commit(4)
        assert compiled.source
        assert compiled.module is not None
        assert compiled.cls.__name__ == "CommitR4Machine"

    def test_action_base_bound_in_module(self):
        compiled = compiled_commit(4)
        assert compiled.module.__dict__[ACTION_BASE_NAME] is RecordingActions

    def test_custom_action_base(self):
        seen = []
        compiled = compile_machine(commit_machine(4), action_base=CallbackActions)
        instance = compiled.new_instance(seen.append)
        instance.receive("free")
        instance.receive("update")
        assert seen == ["vote", "not_free"]

    def test_load_machine_class_shorthand(self):
        cls = load_machine_class(commit_machine(4))
        assert cls().get_state() == "F/0/F/0/F/F/F"

    def test_modules_get_unique_names(self):
        a = compile_machine(commit_machine(4))
        b = compile_machine(commit_machine(4))
        assert a.module.__name__ != b.module.__name__

    def test_instances_are_independent(self):
        compiled = compiled_commit(4)
        one = compiled.new_instance()
        two = compiled.new_instance()
        one.receive("free")
        assert two.get_state() == "F/0/F/0/F/F/F"


class TestMachineInterpreter:
    def test_start_state(self):
        interp = MachineInterpreter(commit_machine(4))
        assert interp.get_state() == "F/0/F/0/F/F/F"
        assert not interp.is_finished()

    def test_unknown_message_rejected(self):
        interp = MachineInterpreter(commit_machine(4))
        with pytest.raises(DeploymentError):
            interp.receive("bogus")

    def test_inapplicable_message_ignored(self):
        interp = MachineInterpreter(commit_machine(4))
        assert interp.receive("not_free") is False

    def test_run_returns_new_actions(self):
        interp = MachineInterpreter(commit_machine(4))
        first = interp.run(["free", "update"])
        assert first == ["vote", "not_free"]
        second = interp.run(["vote", "vote"])
        assert second == ["commit"]

    def test_set_state(self):
        interp = MachineInterpreter(commit_machine(4))
        interp.set_state("T/2/F/0/F/F/F")
        assert interp.get_state() == "T/2/F/0/F/F/F"

    def test_reset(self):
        interp = MachineInterpreter(commit_machine(4))
        interp.run(["free", "update"])
        interp.reset()
        assert interp.get_state() == "F/0/F/0/F/F/F"
        assert interp.sent == []

    def test_sink(self):
        seen = []
        interp = MachineInterpreter(commit_machine(4), sink=seen.append)
        interp.run(["free", "update"])
        assert seen == ["vote", "not_free"]

    @pytest.mark.parametrize("r", [4, 7])
    def test_interpreter_matches_compiled(self, r):
        """Interpreted and compiled execution are interchangeable."""
        import random

        rng = random.Random(99)
        machine = commit_machine(r)
        compiled = compiled_commit(r)
        for _ in range(50):
            interp = MachineInterpreter(machine)
            instance = compiled.new_instance()
            for _ in range(30):
                message = rng.choice(machine.messages)
                assert interp.receive(message) == instance.receive(message)
                assert interp.get_state() == instance.get_state()
                assert interp.sent == instance.sent


class TestCompiledReset:
    def test_reset_matches_interpreter_protocol(self):
        """Both backends reset to the start state with a cleared log."""
        machine = commit_machine(4)
        interp = MachineInterpreter(machine)
        instance = compiled_commit(4).new_instance()
        for runner in (interp, instance):
            for message in ["free", "update", "vote"]:
                runner.receive(message)
            runner.reset()
        assert instance.get_state() == interp.get_state() == "F/0/F/0/F/F/F"
        assert instance.sent == interp.sent == []

    def test_reset_allows_reuse_without_reconstruction(self):
        instance = compiled_commit(4).new_instance()
        fresh = compiled_commit(4).new_instance()
        script = ["free", "update", "vote", "vote", "commit", "commit"]
        for message in script:
            instance.receive(message)
        assert instance.is_finished()
        instance.reset()
        assert not instance.is_finished()
        for message in script:
            instance.receive(message)
            fresh.receive(message)
        assert instance.is_finished()
        assert instance.sent == fresh.sent

    def test_standalone_module_reset(self, tmp_path):
        """Generated standalone modules (no action base) also reset."""
        from repro.render.source import PythonSourceRenderer

        source = PythonSourceRenderer(action_base=None).render(commit_machine(4))
        namespace: dict = {}
        exec(compile(source, "<standalone>", "exec"), namespace)
        cls = next(
            value
            for name, value in namespace.items()
            if isinstance(value, type) and name.endswith("Machine")
        )
        instance = cls()
        instance.receive("free")
        assert instance.get_state() != namespace["START_STATE"]
        instance.reset()
        assert instance.get_state() == namespace["START_STATE"]
