"""EFSM source renderer: an executable artefact for extended machines.

The paper's abstract promises that the generative approach "can also be
applied to the generation of a single extended finite state machine", and
§5.3 argues EFSMs benefit from the same treatment.  This renderer delivers
the source-level artefact: an :class:`~repro.core.efsm.Efsm` whose guards
and updates are declared as code strings is rendered into a standalone
Python module with one ``receive_<message>`` handler per message, each
testing the transition guards in priority order.

Unlike the FSM renderer's per-state dispatch, parameters (e.g. the
replication factor) are *constructor arguments of the generated class* —
one generated module serves the whole family, which is exactly the EFSM
trade-off of §5.3.
"""

from __future__ import annotations

from repro.core.efsm import Efsm
from repro.core.errors import RenderError
from repro.render.base import Renderer, python_identifier
from repro.render.codebuffer import CodeBuffer
from repro.render.source import action_method_name


def efsm_class_name(efsm: Efsm) -> str:
    """Default class name: ``commit-efsm`` -> ``CommitEfsmMachine``."""
    cleaned = "".join(ch if ch.isalnum() else " " for ch in efsm.name)
    return "".join(part.capitalize() for part in cleaned.split()) + "Machine"


class PythonEfsmRenderer(Renderer):
    """Render an EFSM as a standalone executable Python module.

    Every guarded transition must carry ``guard_code`` /``update_code``
    (or no guard/update at all); callables cannot be rendered to source,
    so an EFSM defined only with lambdas is rejected with a clear error.
    """

    def __init__(self, class_name: str | None = None, action_base: str | None = None):
        self._class_name = class_name
        self._action_base = action_base

    def render(self, machine: Efsm) -> str:
        machine.check_integrity()
        self._check_renderable(machine)
        name = self._class_name or efsm_class_name(machine)
        buffer = CodeBuffer()

        buffer.add_line('"""Generated EFSM implementation: ', machine.name, ".")
        buffer.blank()
        buffer.add_line("Produced by repro.render.efsm_source.PythonEfsmRenderer.")
        buffer.add_line("DO NOT EDIT: regenerate from the EFSM definition instead.")
        buffer.add_line('"""')
        buffer.blank()

        buffer.add_line("START_STATE = ", repr(machine.start_state.name))
        finals = sorted(s.name for s in machine.states if s.final)
        buffer.add_line("FINAL_STATES = frozenset(", repr(finals), ")")
        buffer.add_line("MESSAGES = ", repr(tuple(machine.messages)))
        buffer.add_line(
            "VARIABLES = ", repr({v.name: v.initial for v in machine.variables})
        )
        buffer.add_line("PARAMETERS = ", repr(tuple(machine.parameter_names)))
        buffer.blank()

        base = self._action_base or "object"
        buffer.enter_block(f"class {name}({base}):")
        buffer.add_line('"""Generated EFSM for ', machine.name, ".")
        buffer.blank()
        buffer.add_line("Parameters are constructor keyword arguments; one class")
        buffer.add_line("serves every parameter value (paper 5.3).")
        buffer.add_line('"""')
        buffer.blank()
        methods = tuple(action_method_name(a) for a in _distinct_actions(machine))
        buffer.add_line("ACTION_METHODS = ", repr(methods))
        buffer.blank()

        buffer.enter_block("def __init__(self, *args, **parameters):")
        buffer.add_line("super().__init__(*args)")
        buffer.enter_block("for required in PARAMETERS:")
        buffer.enter_block("if required not in parameters:")
        buffer.add_line("raise ValueError('missing EFSM parameter: %r' % (required,))")
        buffer.exit_block()
        buffer.exit_block()
        buffer.add_line("self._params = dict(parameters)")
        buffer.add_line("self._vars = dict(VARIABLES)")
        buffer.add_line("self._state = START_STATE")
        buffer.exit_block()
        buffer.blank()

        buffer.enter_block("def get_state(self):")
        buffer.add_line('"""Current state name."""')
        buffer.add_line("return self._state")
        buffer.exit_block()
        buffer.blank()
        buffer.enter_block("def is_finished(self):")
        buffer.add_line('"""Whether a final state has been reached."""')
        buffer.add_line("return self._state in FINAL_STATES")
        buffer.exit_block()
        buffer.blank()
        buffer.enter_block("def variables(self):")
        buffer.add_line('"""Current variable values (copy)."""')
        buffer.add_line("return dict(self._vars)")
        buffer.exit_block()
        buffer.blank()

        buffer.enter_block("def receive(self, message):")
        buffer.add_line('"""Dispatch a message by name; True if a transition fired."""')
        for message in machine.messages:
            buffer.enter_block(f"if message == {message!r}:")
            buffer.add_line(f"return self.receive_{python_identifier(message)}()")
            buffer.exit_block()
        buffer.add_line("raise ValueError('unknown message: %r' % (message,))")
        buffer.exit_block()
        buffer.blank()

        for message in machine.messages:
            self._handler(buffer, machine, message)

        if self._action_base is None:
            for action in _distinct_actions(machine):
                buffer.enter_block(f"def {action_method_name(action)}(self):")
                buffer.add_line(
                    f'"""Perform the {action!r} action (override to implement)."""'
                )
                buffer.exit_block()
                buffer.blank()

        buffer.exit_block()
        return buffer.text()

    def _handler(self, buffer: CodeBuffer, machine: Efsm, message: str) -> None:
        buffer.enter_block(f"def receive_{python_identifier(message)}(self):")
        buffer.add_line(f'"""Handle an incoming {message!r} message."""')
        buffer.add_line("v = self._vars")
        buffer.add_line("p = self._params")
        for state in machine.states:
            transitions = state.transitions_for(message)
            if not transitions:
                continue
            buffer.enter_block(f"if self._state == {state.name!r}:")
            for transition in transitions:
                guard = transition.guard_code
                if guard is not None:
                    buffer.enter_block(f"if {guard}:")
                if transition.update_code:
                    buffer.add_line(transition.update_code)
                for action in transition.actions:
                    buffer.add_line(f"self.{action_method_name(action)}()")
                buffer.add_line(f"self._state = {transition.target!r}")
                buffer.add_line("return True")
                if guard is not None:
                    buffer.exit_block()
            buffer.add_line("return False")
            buffer.exit_block()
        buffer.add_line("# Message not applicable in the current state: ignored.")
        buffer.add_line("return False")
        buffer.exit_block()
        buffer.blank()

    @staticmethod
    def _check_renderable(machine: Efsm) -> None:
        for state in machine.states:
            for transition in state.transitions:
                if transition.guard_code is None and transition.has_guard:
                    raise RenderError(
                        f"EFSM transition {state.name} --{transition.message}--> "
                        f"{transition.target} has a callable guard without "
                        "guard_code; declare guards as code strings to render"
                    )
                if transition.update_code is None and transition.has_update:
                    raise RenderError(
                        f"EFSM transition {state.name} --{transition.message}--> "
                        f"{transition.target} has a callable update without "
                        "update_code; declare updates as code strings to render"
                    )


def _distinct_actions(machine: Efsm) -> list[str]:
    seen: dict[str, None] = {}
    for state in machine.states:
        for transition in state.transitions:
            for action in transition.actions:
                seen.setdefault(action, None)
    return list(seen)
