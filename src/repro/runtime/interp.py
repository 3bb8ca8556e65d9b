"""Interpreted execution of a generated machine.

The alternative to compiling generated source (paper §4.2's "every time the
algorithm needs to be executed" end of the spectrum): drive the
:class:`~repro.core.machine.StateMachine` representation directly.  The
interpreter and the compiled class expose the same protocol —
``receive(message)`` returning whether a transition fired, ``get_state()``,
``is_finished()`` and an action sink — so they are interchangeable and can
be differentially tested against each other.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine


class MachineInterpreter:
    """Execute a state machine by walking its transition table."""

    def __init__(
        self,
        machine: StateMachine,
        sink: Optional[Callable[[str], None]] = None,
        validate: bool = True,
    ):
        """``validate=False`` skips the integrity walk — for callers that
        spawn many interpreters over one already-validated machine."""
        if validate:
            machine.check_integrity()
        self._machine = machine
        self._messages = machine.message_set
        self._state = machine.start_state
        self._sink = sink
        self.sent: list[str] = []

    @property
    def machine(self) -> StateMachine:
        """The machine being interpreted."""
        return self._machine

    def get_state(self) -> str:
        """Current state name."""
        return self._state.name

    def set_state(self, name: str) -> None:
        """Force the machine into a named state (used by tests)."""
        self._state = self._machine.get_state(name)

    def is_finished(self) -> bool:
        """Whether a final state has been reached."""
        return self._state.final

    def receive(self, message: str) -> bool:
        """Process a message; returns ``True`` if a transition fired.

        Messages with no transition from the current state are ignored —
        the same semantics as the generated source (and as the protocol:
        a duplicate ``update`` changes nothing).
        """
        if message not in self._messages:
            raise DeploymentError(f"unknown message {message!r}")
        transition = self._state.get_transition(message)
        if transition is None:
            return False
        for name in transition.action_names:
            self.sent.append(name)
            if self._sink is not None:
                self._sink(name)
        self._state = self._machine.get_state(transition.target_name)
        return True

    def run(self, messages: list[str]) -> list[str]:
        """Feed a message sequence; returns all actions performed."""
        before = len(self.sent)
        for message in messages:
            self.receive(message)
        return self.sent[before:]

    def reset(self) -> None:
        """Return to the start state and clear the action log."""
        self._state = self._machine.start_state
        self.sent.clear()
