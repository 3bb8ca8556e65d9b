"""Tests for the source-code renderers (paper Figs 16/17/19)."""

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import RenderError
from repro.core.machine import StateMachine
from repro.core.state import State, Transition
from repro.models.commit import CommitModel
from repro.opt import IndexedMachine
from repro.render.base import camel_case, python_identifier
from repro.render.source import (
    JavaSourceRenderer,
    PythonSourceRenderer,
    action_method_name,
    machine_class_name,
)
from repro.runtime.compile import compile_machine
from repro.runtime.interp import MachineInterpreter
from tests.conftest import commit_machine


def table_blocks(lines: list[str]) -> list[list[str]]:
    """The row lines of each ``ON_<MESSAGE> = _cases(r\"""`` block."""
    blocks, rows = [], None
    for line in lines:
        if rows is None:
            if line.endswith(' = _cases(r"""'):
                rows = []
        elif line == '""")':
            blocks.append(rows)
            rows = None
        else:
            rows.append(line)
    return blocks


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
            assert source.count(f'\nON_{message.upper()} = _cases(r"""\n') == 1
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
        assert "START_STATE = _STATE['F/0/F/0/F/F/F']" in source
        assert "FINAL_STATES = frozenset([_STATE['FINISHED']])" in source

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
            table = lines.index(f'ON_{transition.message.upper()} = _cases(r"""')
            entry = next(
                i
                for i in range(table, len(lines))
                if lines[i].startswith(f"{state.name} -> ")
            )
            notes = [f"# {note}" for note in transition.annotations]
            assert lines[entry - len(notes) : entry] == notes
            expected += len(notes)
        assert expected > 0
        rows = [line for block in table_blocks(lines) for line in block]
        assert sum(line.startswith("#") for line in rows) == expected
        # Outside the tables, only each table's and STATE_NAMES' header.
        headers = len(machine.messages) + 1
        assert sum(line.startswith("#") for line in lines) == expected + headers

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
        """``STATE_NAMES`` is one row of text per state, in id order."""
        machine = commit_machine(4)
        source = PythonSourceRenderer().render(machine)
        opening = '\n_NAME_ROWS = r"""\n'
        start = source.index(opening) + len(opening)
        rows = source[start : source.index('\n"""[1:-1].split("\\n")', start)]
        assert rows.split("\n") == [state.name for state in machine.states]


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


#: Fragments a row must not be confused by: the field separator, the
#: arrow, the comment mark, every quote, the escape character (bare and
#: spelling an escape), line breaks, NUL and non-ASCII.
AWKWARD = [
    " ", "->", "#", "'", '"', '"""', "\\", "\\5c;", "\n", "\r", "\t",
    "\x00", " ", "\xa0", "é", "中", ";", "T/0", "_perform_1",
]
awkward_text = st.lists(
    st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=5
).map("".join)


@st.composite
def awkward_machines(draw):
    """A hand-built machine whose state names and annotations are
    ``awkward_text``; the last state is final, the first the start."""
    names = draw(st.lists(awkward_text, min_size=2, max_size=6, unique=True))
    messages = ("go", "not free")
    machine = StateMachine(messages, name="awkward")
    *live, end = names
    for name in live:
        notes = draw(st.lists(awkward_text, max_size=2))
        machine.add_state(State(name, annotations=notes))
    machine.add_state(State(end, final=True))
    for name in live:
        for message in messages:
            target = draw(st.sampled_from([None, *names]))
            if target is not None:
                actions = draw(
                    st.lists(st.sampled_from(["->ping", "->pong"]), max_size=2)
                )
                notes = draw(st.lists(awkward_text, max_size=2))
                machine.get_state(name).record_transition(
                    Transition(message, target, actions, notes)
                )
    machine.set_start(live[0])
    machine.set_finish(end)
    return machine


def assert_names_shared(namespace: dict) -> None:
    """Every state the module holds is the very object in STATE_NAMES."""
    shared = {id(name) for name in namespace["STATE_NAMES"]}
    assert id(namespace["START_STATE"]) in shared
    assert {id(name) for name in namespace["FINAL_STATES"]} <= shared
    for table in namespace["TRANSITIONS"].values():
        for source, (target, _) in table.items():
            assert id(source) in shared and id(target) in shared


class TestTablesAsData:
    """Properties of the row emission, not only its bytes."""

    @settings(max_examples=60, deadline=None)
    @given(awkward_machines())
    def test_awkward_names_and_annotations_round_trip(self, machine):
        im = IndexedMachine.from_machine(machine)
        source = PythonSourceRenderer(action_base=None).render(machine)
        namespace: dict = {}
        exec(compile(source, "<test>", "exec"), namespace)
        names, width = im.state_names, im.width
        assert namespace["STATE_NAMES"] == names
        assert namespace["START_STATE"] == names[im.start]
        assert namespace["FINAL_STATES"] == {
            name for name, final in zip(names, im.final) if final
        }
        assert_names_shared(namespace)
        # Each table against the IR, entry by entry.
        unescape = namespace["_unescape"]
        blocks = table_blocks(source.splitlines())
        assert len(blocks) == width
        for column, (message, rows) in enumerate(zip(im.messages, blocks)):
            table = namespace["TRANSITIONS"][message]
            expected = {
                names[offset // width]: offset
                for offset in range(column, len(im.next_state), width)
                if im.next_state[offset] >= 0
            }
            assert list(table) == list(expected)
            notes: list[str] = []
            for row in rows:
                if row.startswith("# "):
                    notes.append(unescape(row[2:]))
                    continue
                offset = expected[unescape(row.split(" ")[0])]
                target, perform = table[names[offset // width]]
                assert target == names[im.next_state[offset]]
                actions = im.action_seqs[im.action_seq[offset]]
                assert (perform is None) == (not actions)
                assert tuple(notes) == im.transition_annotations.get(offset, ())
                notes = []
            assert notes == []
        # The deployed class and the interpreter agree on every step.
        instance = compile_machine(machine).new_instance()
        reference = MachineInterpreter(machine)
        for message in [*machine.messages] * 4:
            assert instance.receive(message) == reference.receive(message)
            assert instance.get_state() == reference.get_state()
        assert instance.sent == reference.sent

    def test_states_are_shared_not_copied(self):
        """A parsed-but-not-shared name would make every ``receive``
        compare strings by content instead of by identity."""
        namespace: dict = {}
        source = PythonSourceRenderer(action_base=None).render(commit_machine(4))
        exec(compile(source, "<test>", "exec"), namespace)
        assert_names_shared(namespace)

    def test_constants_do_not_grow_with_the_machine(self):
        """Module constants are O(messages + distinct performs): commit r=48
        (3 073 states) compiles as few as commit r=4 (33), give or take
        one per ``_perform`` function."""

        def constants(source: str) -> int:
            tree = ast.parse(source)
            return sum(isinstance(node, ast.Constant) for node in ast.walk(tree))

        small, large = (
            PythonSourceRenderer().render(
                CommitModel(factor).generate_state_machine(engine="lazy")
            )
            for factor in (4, 48)
        )
        performs = max(source.count("\ndef _perform_") for source in (small, large))
        assert abs(constants(large) - constants(small)) <= performs


class TestNameCollisions:
    """Generated names that coincide must never make the class disagree
    with the interpreter."""

    def test_messages_sharing_an_identifier_keep_their_own_tables(self):
        """``'not free'`` and ``'not_free'`` share one Python identifier."""
        machine = StateMachine(["not free", "not_free"], name="collide")
        for name in ("A", "B", "C"):
            machine.add_state(State(name))
        machine.get_state("A").record_transition(Transition("not free", "B"))
        machine.get_state("A").record_transition(Transition("not_free", "C"))
        machine.set_start("A")
        compiled = compile_machine(machine)
        for message, handler, target in (
            ("not free", "receive_not_free", "B"),
            ("not_free", "receive_not_free_2", "C"),
        ):
            reference = MachineInterpreter(machine)
            assert reference.receive(message)
            instance = compiled.new_instance()
            assert instance.receive(message)
            assert instance.get_state() == reference.get_state() == target
            by_handler = compiled.new_instance()
            assert getattr(by_handler, handler)()
            assert by_handler.get_state() == target
        assert "ON_NOT_FREE_2 = _cases(" in compiled.source

    def test_action_logged_under_another_name_is_refused(self):
        """``->not free`` calls ``send_not_free``, which logs ``not_free``
        where the interpreter logs ``not free``: refused at render time."""
        machine = StateMachine(["go"], name="spaced-action")
        machine.add_state(State("A"))
        machine.add_state(State("B"))
        machine.get_state("A").record_transition(
            Transition("go", "B", ("->not free",))
        )
        machine.set_start("A")
        with pytest.raises(RenderError, match=r"'->not free'.*'not_free'"):
            compile_machine(machine)
        with pytest.raises(RenderError, match="send_not_free"):
            PythonSourceRenderer(action_base=None).render(machine)


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
