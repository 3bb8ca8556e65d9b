"""Source-code renderer: generates an executable protocol implementation.

This is the paper's most important artefact (§3.5, Figs 16/17/19).  The
paper's Java has one ``receive<Message>()`` handler per message, each a
``switch (getState())`` with one ``case`` per state (Fig 16;
:class:`JavaSourceRenderer` reproduces that shape verbatim).  Python has
no ``switch`` over strings, and an ``if state == ...`` chain would make
every event pay for every state, so :class:`PythonSourceRenderer` writes
each switch as what a ``switch`` compiles to — a table::

    def _perform_7(self):
        self.send_commit()

    ON_VOTE = {
        # Another member voted for this update.
        'T/0/T/0/F/T/T': ('T/1/T/0/F/T/T', None),
        # Another member voted for this update.
        # Threshold reached (vote threshold 3 or ...): send commit.
        'T/1/T/0/F/T/T': ('T/2/T/0/T/T/T', _perform_7),
        ...
    }
    TRANSITIONS = {'update': ON_UPDATE, 'vote': ON_VOTE, ...}

One ``ON_<MESSAGE>`` dict per message maps a state name to ``(resultant
state name, perform)``: one ``case`` per line, the transition's commentary
above it.  ``perform`` is ``None`` or a module-level ``_perform_<n>(self)``
— one per *distinct* action sequence — whose body is the case's
straight-line action calls.  ``receive(message)`` is
``TRANSITIONS[message].get(self._state)``, run ``perform``, assign the
state: constant work whatever the number of states.  Transitions assign
``self._state`` themselves; ``set_state`` is the validated way in from
outside (snapshot restore), not a hook every transition passes through.

The renderer is *completely generic* with respect to the algorithm being
modelled (paper §5.1): action strings such as ``->vote`` become calls to
action methods (``self.send_vote()``) supplied by a separate class.  Two
deployment styles are supported:

* **inheritance mode** (the paper's): ``action_base`` names a class the
  generated machine class inherits from; the surrounding application binds
  the name when compiling the module
  (:func:`repro.runtime.compile.compile_machine` does this).  The class
  lists the action methods it calls in ``ACTION_METHODS``, which is its
  whole contract with the base: a generic base
  (:mod:`repro.runtime.actions`) defines exactly those, once per class,
  and ``compile_machine`` refuses a base that leaves one undefined;
* **standalone mode** (``action_base=None``): the generated class defines
  overridable no-op action methods, so the module runs on its own.

Commentary recorded by the abstract model is embedded as comments, as the
paper notes for its generated Java (§3.5).

The renderer walks the machine's :class:`~repro.opt.indexed.IndexedMachine`
(carried by a generated machine, interned for a hand-built one) one
message column at a time, reading commentary from the IR's sidecars.
"""

from __future__ import annotations

from repro.core.machine import StateMachine
from repro.opt.indexed import IndexedMachine
from repro.render.base import Renderer, python_identifier
from repro.render.codebuffer import CodeBuffer

#: Actions are rendered as calls to methods with this prefix.
ACTION_METHOD_PREFIX = "send_"


def action_method_name(action: str) -> str:
    """Method called for an action string: ``->not_free`` -> ``send_not_free``."""
    name = action[2:] if action.startswith("->") else action
    return ACTION_METHOD_PREFIX + python_identifier(name)


def machine_class_name(machine: StateMachine) -> str:
    """Default class name derived from the machine name: ``CommitR4Machine``."""
    cleaned = "".join(ch if ch.isalnum() else " " for ch in machine.name)
    parts = [part.capitalize() for part in cleaned.split()]
    return "".join(parts) + "Machine"


def table_name(message: str) -> str:
    """Module-level transition table of a message: ``vote`` -> ``ON_VOTE``."""
    return "ON_" + python_identifier(message).upper()


class PythonSourceRenderer(Renderer):
    """Render a machine as a Python module implementing the protocol."""

    def __init__(
        self,
        class_name: str | None = None,
        action_base: str | None = "ActionsBase",
        include_commentary: bool = True,
    ):
        self._class_name = class_name
        self._action_base = action_base
        self._include_commentary = include_commentary

    def render(self, machine: StateMachine) -> str:
        im = IndexedMachine.from_machine(machine)
        class_name = self._class_name or machine_class_name(machine)
        buffer = CodeBuffer()
        names = [repr(name) for name in im.state_names]

        self._module_header(buffer, im)
        self._module_constants(buffer, im, names)
        performs, methods = self._perform_functions(buffer, im)
        for column in range(im.width):
            self._transition_table(buffer, im, column, names, performs)
        self._table_index(buffer, im)
        self._class_header(buffer, im, class_name, methods)
        self._lifecycle_methods(buffer)
        self._receive_method(buffer)
        for message in im.messages:
            self._message_method(buffer, message)
        self._action_methods(buffer, methods)
        buffer.exit_block()
        return buffer.text()

    # ------------------------------------------------------------------
    # module-level sections
    # ------------------------------------------------------------------

    def _module_header(self, buffer: CodeBuffer, im: IndexedMachine) -> None:
        buffer.add_line('"""Generated implementation of state machine: ', im.name, ".")
        buffer.blank()
        buffer.add_line("Produced by repro.render.source.PythonSourceRenderer.")
        buffer.add_line("DO NOT EDIT: regenerate from the abstract model instead.")
        if im.parameters:
            rendered = ", ".join(
                f"{key}={value!r}" for key, value in sorted(im.parameters.items())
            )
            buffer.add_line("Generation parameters: ", rendered, ".")
        buffer.add_line('"""')
        buffer.blank()

    def _module_constants(
        self, buffer: CodeBuffer, im: IndexedMachine, names: list[str]
    ) -> None:
        buffer.add_line("START_STATE = ", names[im.start])
        finals = sorted(name for name, final in zip(im.state_names, im.final) if final)
        buffer.add_line("FINAL_STATES = frozenset(", repr(finals), ")")
        buffer.add_line("MESSAGES = ", repr(tuple(im.messages)))
        buffer.add_line("STATE_NAMES = (")
        buffer.increase_indent()
        for name in names:
            buffer.add_line(name, ",")
        buffer.decrease_indent()
        buffer.add_line(")")
        buffer.add_line("STATES = frozenset(STATE_NAMES)")
        buffer.blank()

    def _perform_functions(
        self, buffer: CodeBuffer, im: IndexedMachine
    ) -> tuple[dict[int, str], tuple[str, ...]]:
        """Emit one ``_perform_<n>(self)`` per distinct non-empty action
        sequence, in order of first use; return the table spelling of each
        sequence id in use and the action method names in first-use order."""
        sequences: dict[tuple[str, ...], str] = {(): "None"}
        performs: dict[int, str] = {}
        for seq in im.action_seq:
            if seq < 0 or seq in performs:
                continue
            actions = tuple(im.actions[a] for a in im.action_seqs[seq])
            name = sequences.get(actions)
            if name is None:
                sequences[actions] = name = f"_perform_{len(sequences)}"
                buffer.blank()
                buffer.enter_block(f"def {name}(self):")
                for action in actions:
                    buffer.add_line(f"self.{action_method_name(action)}()")
                buffer.exit_block()
                buffer.blank()
            performs[seq] = name
        if len(sequences) > 1:
            buffer.blank()
        methods = (action_method_name(a) for seq in sequences for a in seq)
        return performs, tuple(dict.fromkeys(methods))

    def _transition_table(
        self,
        buffer: CodeBuffer,
        im: IndexedMachine,
        column: int,
        names: list[str],
        performs: dict[int, str],
    ) -> None:
        """The paper's Fig 16 ``switch (getState())`` for one message, as a
        dict literal: one ``case`` per line, its commentary above it."""
        message = im.messages[column]
        buffer.add_line(
            f"# {message!r}: state -> (resultant state, actions to perform)."
        )
        buffer.add_line(table_name(message), " = {")
        buffer.increase_indent()
        notes = im.transition_annotations if self._include_commentary else {}
        width = im.width
        for offset in range(column, len(im.next_state), width):
            target = im.next_state[offset]
            if target < 0:
                continue
            for annotation in notes.get(offset, ()):
                buffer.add_line("# ", annotation)
            buffer.add_line(
                f"{names[offset // width]}: ({names[target]}, "
                f"{performs[im.action_seq[offset]]}),"
            )
        buffer.decrease_indent()
        buffer.add_line("}")
        buffer.blank()

    def _table_index(self, buffer: CodeBuffer, im: IndexedMachine) -> None:
        buffer.add_line("TRANSITIONS = {")
        buffer.increase_indent()
        for message in im.messages:
            buffer.add_line(f"{message!r}: {table_name(message)},")
        buffer.decrease_indent()
        buffer.add_line("}")
        buffer.blank()
        buffer.blank()

    def _class_header(
        self,
        buffer: CodeBuffer,
        im: IndexedMachine,
        class_name: str,
        methods: tuple[str, ...],
    ) -> None:
        base = self._action_base if self._action_base is not None else "object"
        buffer.enter_block(f"class {class_name}({base}):")
        buffer.add_line('"""Generated protocol implementation for ', im.name, ".")
        buffer.blank()
        buffer.add_line("Call receive_<message>() (or receive(message)) whenever the")
        buffer.add_line("corresponding protocol message arrives; action methods named")
        buffer.add_line("send_<action>() are invoked for the transition's actions.")
        buffer.add_line('"""')
        buffer.blank()
        buffer.add_line("START_STATE = START_STATE")
        buffer.add_line("FINAL_STATES = FINAL_STATES")
        buffer.add_line("MESSAGES = MESSAGES")
        buffer.add_line("ACTION_METHODS = ", repr(methods))
        buffer.blank()

    # ------------------------------------------------------------------
    # lifecycle and dispatch
    # ------------------------------------------------------------------

    def _lifecycle_methods(self, buffer: CodeBuffer) -> None:
        buffer.enter_block("def __init__(self, *args, **kwargs):")
        buffer.add_line("super().__init__(*args, **kwargs)")
        buffer.add_line("self._state = START_STATE")
        buffer.exit_block()
        buffer.blank()
        buffer.enter_block("def get_state(self):")
        buffer.add_line('"""Current state name."""')
        buffer.add_line("return self._state")
        buffer.exit_block()
        buffer.blank()
        buffer.enter_block("def set_state(self, state):")
        buffer.add_line('"""Move to a named state (snapshot restore calls this;')
        buffer.add_line('transitions assign the state themselves)."""')
        buffer.enter_block("if state not in STATES:")
        buffer.add_line("raise ValueError('unknown state: %r' % (state,))")
        buffer.exit_block()
        buffer.add_line("self._state = state")
        buffer.exit_block()
        buffer.blank()
        buffer.enter_block("def is_finished(self):")
        buffer.add_line('"""Whether the machine has reached a finish state."""')
        buffer.add_line("return self._state in FINAL_STATES")
        buffer.exit_block()
        buffer.blank()
        buffer.enter_block("def reset(self):")
        buffer.add_line(
            '"""Return to the start state and clear any recorded actions."""'
        )
        buffer.add_line("self._state = START_STATE")
        buffer.add_line("self.clear_sent()")
        buffer.exit_block()
        buffer.blank()

    def _receive_method(self, buffer: CodeBuffer) -> None:
        buffer.enter_block("def receive(self, message):")
        buffer.add_line(
            '"""Dispatch a message by name; returns True if a transition fired."""'
        )
        buffer.enter_block("try:")
        buffer.add_line("entry = TRANSITIONS[message].get(self._state)")
        buffer.exit_block()
        buffer.enter_block("except (KeyError, TypeError):")
        buffer.add_line(
            "raise ValueError('unknown message: %r' % (message,)) from None"
        )
        buffer.exit_block()
        buffer.enter_block("if entry is None:")
        buffer.add_line("# Message not applicable in the current state: ignored.")
        buffer.add_line("return False")
        buffer.exit_block()
        buffer.add_line("target, perform = entry")
        buffer.enter_block("if perform is not None:")
        buffer.add_line("perform(self)")
        buffer.exit_block()
        buffer.add_line("self._state = target")
        buffer.add_line("return True")
        buffer.exit_block()
        buffer.blank()

    def _message_method(self, buffer: CodeBuffer, message: str) -> None:
        buffer.enter_block(f"def receive_{python_identifier(message)}(self):")
        buffer.add_line(f'"""Handle an incoming {message!r} message."""')
        buffer.add_line(f"return self.receive({message!r})")
        buffer.exit_block()
        buffer.blank()

    # ------------------------------------------------------------------
    # action methods
    # ------------------------------------------------------------------

    def _action_methods(self, buffer: CodeBuffer, methods: tuple[str, ...]) -> None:
        """Standalone mode defines every action method (and ``clear_sent``)
        as an overridable no-op.  In inheritance mode the base supplies
        them; only ``clear_sent`` is filled in, once per class, when the
        base keeps no action log to clear."""
        forget = "No recorded actions to forget (override to implement)."
        if self._action_base is not None:
            buffer.enter_block(
                f"if not hasattr({self._action_base}, 'clear_sent'):"
            )
            self._noop_method(buffer, "clear_sent", forget)
            buffer.exit_block()
            return
        self._noop_method(buffer, "clear_sent", forget)
        for method in methods:
            self._noop_method(
                buffer, method, f"Perform the {method} action (override to implement)."
            )

    @staticmethod
    def _noop_method(buffer: CodeBuffer, name: str, doc: str) -> None:
        buffer.enter_block(f"def {name}(self):")
        buffer.add_line('"""', doc, '"""')
        buffer.exit_block()
        buffer.blank()


class JavaSourceRenderer(Renderer):
    """Render the machine as Java source matching the paper's Fig 16.

    Kept for artefact fidelity (the paper's implementation was Java): the
    output uses the same ``receiveVote()`` / ``switch (getState())`` shape,
    with state names encoded using dashes as in the figure.  The output is
    illustrative; the executable deployment path in this library is the
    Python renderer plus :mod:`repro.runtime.compile`.
    """

    def __init__(self, class_name: str | None = None, include_commentary: bool = False):
        self._class_name = class_name
        self._include_commentary = include_commentary

    def render(self, machine: StateMachine) -> str:
        machine.check_integrity()
        class_name = self._class_name or machine_class_name(machine)
        buffer = CodeBuffer(brace_blocks=True)
        buffer.add_line("// Generated implementation of state machine: ", machine.name)
        buffer.add_line("// DO NOT EDIT: regenerate from the abstract model instead.")
        buffer.enter_block(f"class {class_name}")
        for message in machine.messages:
            self._handler(buffer, machine, message)
        buffer.exit_block()
        return buffer.text()

    def _handler(self, buffer: CodeBuffer, machine: StateMachine, message: str) -> None:
        from repro.render.base import camel_case

        buffer.enter_block(f"void receive{camel_case(message)}()")
        buffer.enter_block("switch (getState())")
        for state in machine.states:
            transition = state.get_transition(message)
            if transition is None:
                continue
            buffer.enter_block(f"case ({_java_state_name(state.name)}) :")
            if self._include_commentary:
                for annotation in transition.annotations:
                    buffer.add_line("// ", annotation)
            for action in transition.actions:
                buffer.add_line(f"{_java_action_call(action)};")
            buffer.add_line(f"setState({_java_state_name(transition.target_name)});")
            buffer.add_line("break;")
            buffer.exit_block()
        buffer.exit_block()
        buffer.exit_block()
        buffer.blank()


def _java_state_name(name: str) -> str:
    """Fig 16 encodes state variables with dashes: ``T-1-T-1-F-T-T``."""
    return name.replace("/", "-")


def _java_action_call(action: str) -> str:
    from repro.render.base import camel_case

    name = action[2:] if action.startswith("->") else action
    return f"send{camel_case(name)}()"
