"""Source-code renderer: generates an executable protocol implementation.

This is the paper's most important artefact (§3.5, Figs 16/17/19).  The
paper's Java has one ``receive<Message>()`` handler per message, each a
``switch (getState())`` with one ``case`` per state (Fig 16;
:class:`JavaSourceRenderer` reproduces that shape verbatim).  Python has
no ``switch`` over strings, and an ``if state == ...`` chain would make
every event pay for every state, so :class:`PythonSourceRenderer` writes
each switch as what a ``switch`` compiles to — a table — and writes the
table as rows of text, one ``case`` per row with its commentary above::

    def _perform_7(self):
        self.send_commit()

    # 'vote': state -> resultant state [actions to perform], one case per row.
    ON_VOTE = _cases(r\"""
    # Another member voted for this update.
    T/0/T/0/F/T/T -> T/1/T/0/F/T/T
    # Another member voted for this update.
    # Threshold reached (vote threshold 3 or ...): send commit.
    T/1/T/0/F/T/T -> T/2/T/0/T/T/T _perform_7
    ...
    \""")
    TRANSITIONS = {'update': ON_UPDATE, 'vote': ON_VOTE, ...}

``_cases``, defined in the generated module itself, reads the rows once
when the module loads, with ``str`` methods only, into the dict
``receive`` dispatches on: state name -> ``(resultant state name,
perform)``.  Tables are data, not code: ``compile()`` sees one string
constant per message instead of one literal per transition, so loading
costs O(messages) constants whatever the number of states.  State names
are written once, in ``STATE_NAMES``; every table key and target,
``START_STATE`` and every ``FINAL_STATES`` member is the very object
held there, so ``receive`` compares states by identity.  A row shows a
name through one reversible escape, ``\\<hex>;`` for a character the
row cannot show (the backslash itself, ``"``, ``#``, a space, anything
unprintable) — the identity on every bundled model's names.

``perform`` is ``None`` or a module-level ``_perform_<n>(self)`` — one
per *distinct* action sequence — whose body is the case's straight-line
action calls.  ``receive(message)`` is
``TRANSITIONS[message].get(self._state)``, run ``perform``, assign the
state: constant work whatever the number of states.  Transitions assign
``self._state`` themselves; ``set_state`` is the validated way in from
outside (snapshot restore), not a hook every transition passes through.

The renderer is *completely generic* with respect to the algorithm being
modelled (paper §5.1): action strings such as ``->vote`` become calls to
action methods (``self.send_vote()``) supplied by a separate class.  An
action whose method would log a different name than the interpreter does
(``->not free`` calls ``send_not_free``, which logs ``not_free``) is
refused with :class:`~repro.core.errors.RenderError`; messages whose
table or ``receive_<message>`` names would coincide get distinct ones.
Two deployment styles are supported:

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

Commentary recorded by the abstract model is embedded above each row, as
the paper notes for its generated Java (§3.5).

The renderer walks the machine's :class:`~repro.opt.indexed.IndexedMachine`
(carried by a generated machine, interned for a hand-built one) one
message column at a time, reading commentary from the IR's sidecars.
"""

from __future__ import annotations

from repro.core.errors import RenderError
from repro.core.machine import StateMachine
from repro.core.state import strip_action_prefix
from repro.opt.indexed import IndexedMachine
from repro.render.base import Renderer, python_identifier
from repro.render.codebuffer import CodeBuffer

#: Actions are rendered as calls to methods with this prefix.
ACTION_METHOD_PREFIX = "send_"

#: Characters a state name cannot show in a row: the escape itself, the
#: quote that would close the rows' literal, the commentary mark and the
#: field separator.  A commentary line only needs the first two.
_NAME_ESCAPED = frozenset('\\"# ')
_NOTE_ESCAPED = frozenset('\\"')

#: The generated module's own readers, emitted verbatim: ``_unescape``
#: undoes :func:`_escape`, ``_cases`` turns one table's rows into the dict
#: ``receive`` dispatches on.
_ROW_READERS = r'''
def _unescape(text):
    """A name as a row shows it: ``\\<hex>;`` stands for one character."""
    if "\\" not in text:
        return text
    head, *rest = text.split("\\")
    return head + "".join(
        chr(int(code, 16)) + tail
        for code, _, tail in (part.partition(";") for part in rest)
    )


def _cases(rows):
    """One message's switch: each ``state -> resultant state [perform]``
    row becomes ``state: (resultant state, perform or None)``; ``#``
    lines are the case's commentary."""
    state, performs, table = _STATE, globals(), {}
    for row in rows.split("\n"):
        if row and row[0] != "#":
            case = row.split(" ")
            table[state[case[0]]] = (
                state[case[2]],
                performs[case[3]] if len(case) > 3 else None,
            )
    return table
'''


def _escape(text: str, escaped: frozenset[str] = _NAME_ESCAPED) -> str:
    """``text`` as a row shows it: each character in ``escaped``, and each
    unprintable one, becomes ``\\<hex>;``.  The identity on every bundled
    model's state names; the generated module's ``_unescape`` reverses it."""
    if text.isprintable() and escaped.isdisjoint(text):
        return text
    return "".join(
        f"\\{ord(ch):x};" if ch in escaped or not ch.isprintable() else ch
        for ch in text
    )


def action_method_name(action: str) -> str:
    """Method called for an action string: ``->not_free`` -> ``send_not_free``."""
    name = action[2:] if action.startswith("->") else action
    return ACTION_METHOD_PREFIX + python_identifier(name)


def machine_class_name(machine: StateMachine) -> str:
    """Default class name derived from the machine name: ``CommitR4Machine``."""
    cleaned = "".join(ch if ch.isalnum() else " " for ch in machine.name)
    parts = [part.capitalize() for part in cleaned.split()]
    return "".join(parts) + "Machine"


def _checked_method_name(action: str) -> str:
    """``action_method_name(action)``, refused when the action bases would
    log the action under another name than the interpreter does."""
    method = action_method_name(action)
    logged = method[len(ACTION_METHOD_PREFIX) :]
    expected = strip_action_prefix(action)
    if logged != expected:
        raise RenderError(
            f"action {action!r} cannot be rendered: its method {method}() "
            f"would log {logged!r} where the interpreter logs {expected!r}; "
            f"name actions as lowercase Python identifiers"
        )
    return method


def _distinct_names(names) -> list[str]:
    """``names`` made distinct, in order: a name already taken gets the
    smallest ``_<n>`` suffix still free.  Messages ``not free`` and
    ``not_free`` would otherwise share ``ON_NOT_FREE``, and the second
    table would replace the first."""
    taken: set[str] = set()
    out = []
    for name in names:
        candidate, n = name, 1
        while candidate in taken:
            n += 1
            candidate = f"{name}_{n}"
        taken.add(candidate)
        out.append(candidate)
    return out


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
        names = [_escape(name) for name in im.state_names]
        tables = _distinct_names(
            "ON_" + python_identifier(message).upper() for message in im.messages
        )
        handlers = _distinct_names(
            "receive_" + python_identifier(message) for message in im.messages
        )

        self._module_header(buffer, im)
        self._module_constants(buffer, im, names)
        performs, methods = self._perform_functions(buffer, im)
        for column, table in enumerate(tables):
            self._transition_table(buffer, im, column, table, names, performs)
        self._table_index(buffer, im, tables)
        self._class_header(buffer, im, class_name, methods)
        self._lifecycle_methods(buffer)
        self._receive_method(buffer)
        for message, handler in zip(im.messages, handlers):
            self._message_method(buffer, message, handler)
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
        buffer.add_line(_ROW_READERS)
        buffer.blank()

    def _module_constants(
        self, buffer: CodeBuffer, im: IndexedMachine, names: list[str]
    ) -> None:
        """``STATE_NAMES`` as one row of text per state; ``_STATE`` maps a
        row's spelling to the name object every other constant shares."""
        buffer.add_line("# State names, one per row.")
        buffer.add_line('_NAME_ROWS = r"""')
        for name in names:
            buffer.add_line(name)
        buffer.add_line('"""[1:-1].split("\\n")')
        buffer.add_line("STATE_NAMES = tuple(map(_unescape, _NAME_ROWS))")
        buffer.add_line("_STATE = dict(zip(_NAME_ROWS, STATE_NAMES))")
        buffer.add_line("START_STATE = _STATE[", repr(names[im.start]), "]")
        finals = ", ".join(
            f"_STATE[{name!r}]"
            for name, final in sorted(zip(names, im.final))
            if final
        )
        buffer.add_line("FINAL_STATES = frozenset([", finals, "])")
        buffer.add_line("MESSAGES = ", repr(tuple(im.messages)))
        buffer.add_line("STATES = frozenset(STATE_NAMES)")
        buffer.blank()

    def _perform_functions(
        self, buffer: CodeBuffer, im: IndexedMachine
    ) -> tuple[dict[int, str], tuple[str, ...]]:
        """Emit one ``_perform_<n>(self)`` per distinct non-empty action
        sequence, in order of first use; return each sequence id in use
        as a row spells it and the action method names in first-use order.

        Raises :class:`RenderError` for an action the generated class
        would log under another name than the interpreter does."""
        sequences: dict[tuple[str, ...], str] = {(): ""}
        performs: dict[int, str] = {}
        for seq in im.action_seq:
            if seq < 0 or seq in performs:
                continue
            actions = tuple(im.actions[a] for a in im.action_seqs[seq])
            spelling = sequences.get(actions)
            if spelling is None:
                function = f"_perform_{len(sequences)}"
                sequences[actions] = spelling = " " + function
                buffer.blank()
                buffer.enter_block(f"def {function}(self):")
                for action in actions:
                    buffer.add_line(f"self.{_checked_method_name(action)}()")
                buffer.exit_block()
                buffer.blank()
            performs[seq] = spelling
        if len(sequences) > 1:
            buffer.blank()
        methods = (action_method_name(a) for seq in sequences for a in seq)
        return performs, tuple(dict.fromkeys(methods))

    def _transition_table(
        self,
        buffer: CodeBuffer,
        im: IndexedMachine,
        column: int,
        table: str,
        names: list[str],
        performs: dict[int, str],
    ) -> None:
        """The paper's Fig 16 ``switch (getState())`` for one message, as
        rows of text: one ``case`` per row, its commentary above it."""
        message = im.messages[column]
        buffer.add_line(
            f"# {message!r}: state -> resultant state "
            "[actions to perform], one case per row."
        )
        buffer.add_line(table, ' = _cases(r"""')
        notes = im.transition_annotations if self._include_commentary else {}
        # Cases share their commentary: each distinct block is escaped once.
        comments: dict[tuple[str, ...], str] = {(): ""}
        width = im.width
        for offset in range(column, len(im.next_state), width):
            target = im.next_state[offset]
            if target < 0:
                continue
            above = notes.get(offset, ())
            comment = comments.get(above)
            if comment is None:
                comment = comments[above] = "".join(
                    f"# {_escape(note, _NOTE_ESCAPED)}\n" for note in above
                )
            buffer.add_line(
                f"{comment}{names[offset // width]} -> {names[target]}"
                f"{performs[im.action_seq[offset]]}"
            )
        buffer.add_line('""")')
        buffer.blank()

    def _table_index(
        self, buffer: CodeBuffer, im: IndexedMachine, tables: list[str]
    ) -> None:
        buffer.add_line("TRANSITIONS = {")
        buffer.increase_indent()
        for message, table in zip(im.messages, tables):
            buffer.add_line(f"{message!r}: {table},")
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

    def _message_method(
        self, buffer: CodeBuffer, message: str, handler: str
    ) -> None:
        buffer.enter_block(f"def {handler}(self):")
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
