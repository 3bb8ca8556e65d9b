"""Tests for the deployment runtime: actions, compile, interp."""

import random
import re

import pytest

from benchmarks.e2e.workloads import GEN_INPUTS, build_gen_input
from repro.core.errors import DeploymentError
from repro.models.commit import MESSAGES
from repro.models.commit_efsm import build_commit_efsm, commit_efsm_executor
from repro.runtime.actions import CallbackActions, RecordingActions
from repro.runtime.compile import (
    ACTION_BASE_NAME,
    compile_efsm,
    compile_machine,
    load_machine_class,
)
from repro.runtime.interp import MachineInterpreter
from tests.conftest import commit_machine, compiled_commit


class Recording(RecordingActions):
    ACTION_METHODS = ("send_vote", "send_commit", "send_not_free")


class Forwarding(CallbackActions):
    ACTION_METHODS = ("send_vote", "send_free")


BASES = pytest.mark.parametrize("base", [RecordingActions, CallbackActions])


class TestRecordingActions:
    def test_records_in_order(self):
        instance = Recording()
        instance.send_vote()
        instance.send_commit()
        assert instance.sent == ["vote", "commit"]

    def test_sink_forwarding(self):
        seen = []
        instance = Recording(sink=seen.append)
        instance.send_not_free()
        assert seen == ["not_free"]

    def test_non_action_attribute_raises(self):
        with pytest.raises(AttributeError):
            RecordingActions().bogus_method

    def test_declared_methods_are_defined_once_per_class(self):
        assert "send_vote" in vars(Recording)
        assert "send_vote" not in vars(RecordingActions)

    def test_hand_written_method_wins(self):
        class Partial(RecordingActions):
            def send_vote(self):
                self.sent.append("VOTE!")

        class Generated(Partial):
            ACTION_METHODS = ("send_vote", "send_commit")

        class Own(RecordingActions):
            ACTION_METHODS = ("send_vote",)

            def send_vote(self):
                self.sent.append("own")

        assert Generated.send_vote is Partial.send_vote
        own = Own()
        own.send_vote()
        assert own.sent == ["own"]
        instance = Generated()
        instance.send_vote()
        instance.send_commit()
        assert instance.sent == ["VOTE!", "commit"]

    def test_clear_sent(self):
        instance = Recording()
        instance.send_vote()
        instance.clear_sent()
        assert instance.sent == []


class TestCallbackActions:
    def test_forwards_each_action(self):
        seen = []
        instance = Forwarding(seen.append)
        assert "send_vote" in vars(Forwarding)
        instance.send_vote()
        instance.send_free()
        assert seen == ["vote", "free"]

    def test_non_action_attribute_raises(self):
        with pytest.raises(AttributeError):
            CallbackActions(print).whatever

    def test_callback_traceback_names_the_action(self):
        def refuse(action):
            raise RuntimeError(action)

        with pytest.raises(RuntimeError) as caught:
            Forwarding(refuse).send_free()
        frames = [entry.name for entry in caught.traceback]
        assert frames[-2:] == ["send_free", "refuse"]


class TestActionContract:
    """``ACTION_METHODS`` is all a base defines: nothing is synthesised."""

    @BASES
    def test_undeclared_action_raises(self, base):
        declared = type("Declared", (base,), {"ACTION_METHODS": ("send_vote",)})
        for cls in (base, declared):
            instance = cls(print)
            with pytest.raises(AttributeError, match="send_free"):
                instance.send_free()
        assert not hasattr(base, "send_vote")

    @BASES
    def test_each_level_installs_what_it_declares(self, base):
        seen = []
        first = type("First", (base,), {"ACTION_METHODS": ("send_vote",)})
        second = type("Second", (first,), {"ACTION_METHODS": ("send_free",)})
        assert "send_free" in vars(second) and "send_vote" not in vars(second)
        assert not hasattr(first, "send_free")
        instance = second(seen.append)
        instance.send_vote()
        instance.send_free()
        assert seen == ["vote", "free"]

    @BASES
    @pytest.mark.parametrize(
        "declared, offender",
        [
            ("send_vote", "'send_vote'"),  # ("send_vote"): the missing comma
            (b"send_vote", "b'send_vote'"),
            (("send_vote", "vote"), "'vote'"),
            (("send_not free",), "'send_not free'"),
            (("send_vote", 7), "7"),
        ],
    )
    def test_malformed_declaration_is_a_type_error(self, base, declared, offender):
        with pytest.raises(TypeError) as caught:
            type("Broken", (base,), {"ACTION_METHODS": declared})
        assert "Broken.ACTION_METHODS" in str(caught.value)
        assert offender in str(caught.value)

    @BASES
    def test_installed_method_carries_its_action_name(self, base):
        cls = type("Named", (base,), {"ACTION_METHODS": ("send_vote", "send_free")})
        for name in cls.ACTION_METHODS:
            method = vars(cls)[name]
            assert method.__name__ == method.__code__.co_name == name
            assert method.__qualname__ == f"Named.{name}"
        assert cls.send_vote.__code__ is not cls.send_free.__code__


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


#: Per generated artefact: load it over a base, its constructor keywords,
#: and the executor it must agree with.
LOADERS = {
    "machine": (
        lambda base: compile_machine(commit_machine(4), action_base=base).cls,
        {},
        lambda: MachineInterpreter(commit_machine(4)),
    ),
    "efsm": (
        lambda base: compile_efsm(build_commit_efsm(), action_base=base).cls,
        {"replication_factor": 4},
        lambda: commit_efsm_executor(4),
    ),
}


def foreign_base(names, created, **members):
    """An action base that owes nothing to ``repro.runtime.actions``, with a
    hand-written recording method per name; ``created`` counts instances."""

    def init(self):
        created.append(self)
        self.sent = []

    def recorder(action):
        return lambda self: self.sent.append(action)

    for name in names:
        members[name] = recorder(name.removeprefix("send_"))
    return type("Foreign", (), {"__init__": init, **members})


def assert_agrees(instance, reference):
    rng = random.Random(5)
    for _ in range(200):
        message = rng.choice(MESSAGES)
        assert instance.receive(message) == reference.receive(message)
        assert instance.get_state() == reference.get_state()
        assert instance.sent == reference.sent
    assert instance.sent


@pytest.mark.parametrize("kind", sorted(LOADERS))
class TestLoadTimeActionCheck:
    """What a generated class needs from its base is checked when it is
    loaded, not discovered half way through a transition."""

    def test_base_missing_a_declared_action_is_refused(self, kind):
        load, _, _ = LOADERS[kind]
        names = load(RecordingActions).ACTION_METHODS
        dropped = names[1]
        created = []
        base = foreign_base([n for n in names if n != dropped], created)
        with pytest.raises(DeploymentError, match="'Foreign'") as caught:
            load(base)
        assert re.findall(r"send_\w+", str(caught.value)) == [dropped]
        assert created == []

    def test_base_defining_every_action_loads(self, kind):
        load, keywords, reference = LOADERS[kind]
        names = load(RecordingActions).ACTION_METHODS
        instance = load(foreign_base(names, []))(**keywords)
        assert_agrees(instance, reference())

    def test_non_callable_attribute_does_not_count(self, kind):
        load, _, _ = LOADERS[kind]
        names = load(RecordingActions).ACTION_METHODS
        base = foreign_base(names[1:], [], **{names[0]: "not a method"})
        with pytest.raises(DeploymentError, match=names[0]):
            load(base)

    def test_base_with_its_own_getattr_is_exempt(self, kind):
        load, keywords, reference = LOADERS[kind]

        def resolve(self, name):
            if not name.startswith("send_"):
                raise AttributeError(name)
            return lambda: self.sent.append(name.removeprefix("send_"))

        instance = load(foreign_base([], [], __getattr__=resolve))(**keywords)
        assert_agrees(instance, reference())


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


class TestGeneratedClassStaysOnTheFastPath:
    """CPython specialises attribute reads and method calls only for types
    whose MRO leaves attribute access to ``object``.  One hook anywhere under
    a generated class cost ``gen-deploy`` over a third of its events per
    second, so the shape is pinned here rather than by a timing assertion."""

    @pytest.mark.parametrize("name", GEN_INPUTS)
    def test_no_attribute_hook_in_the_mro(self, name):
        machine = build_gen_input(name)
        hooks = {"__getattr__", "__getattribute__", "__setattr__"}
        for base in (RecordingActions, CallbackActions):
            compiled = compile_machine(
                machine, action_base=base, include_commentary=False
            )
            *below_object, top = type(compiled.new_instance(print)).__mro__
            assert top is object and base in below_object
            for cls in below_object:
                assert not hooks & vars(cls).keys(), cls
