"""State and transition value objects for generated machines.

These mirror the paper's Fig 5 Java classes::

    class State      { String state_name; Transition[] transitions; String[] annotations; }
    class Transition { State resultant_state; String[] actions; String[] annotations; }

A :class:`State` owns its outgoing transitions keyed by message name.  Both
states and transitions carry free-form annotation strings which renderers
turn into the automatically generated commentary of Fig 14.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any, Optional

from repro.core.errors import MachineStructureError


def strip_action_prefix(action: str) -> str:
    """Action name without the ``->`` send marker — the form action logs
    and dispatch tables hold.  The one strip implementation, shared by
    :attr:`Transition.action_names` and
    :meth:`repro.opt.IndexedMachine.dispatch_table`."""
    return action[2:] if action.startswith("->") else action


class Transition:
    """A single outgoing transition: message -> actions + resultant state.

    ``actions`` are ordered action names (e.g. ``"->vote"``) accumulated
    while the abstract model elaborated the consequences of receiving the
    message (paper Fig 10).  ``annotations`` document why the transition
    does what it does.
    """

    __slots__ = (
        "_message", "_actions", "_target_name", "_annotations", "_action_names",
    )

    def __init__(
        self,
        message: str,
        target_name: str,
        actions: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ):
        self._message = message
        self._target_name = target_name
        self._actions = tuple(actions)
        self._annotations = tuple(annotations)
        self._action_names: Optional[tuple[str, ...]] = None

    @property
    def message(self) -> str:
        """Message whose receipt triggers this transition."""
        return self._message

    @property
    def target_name(self) -> str:
        """Name of the resultant state."""
        return self._target_name

    @property
    def actions(self) -> tuple[str, ...]:
        """Ordered external actions performed by this transition."""
        return self._actions

    @property
    def action_names(self) -> tuple[str, ...]:
        """:attr:`actions` without their ``->`` markers, stripped on first
        use and kept: what every executor of this transition logs."""
        names = self._action_names
        if names is None:
            names = self._action_names = tuple(
                strip_action_prefix(action) for action in self._actions
            )
        return names

    @property
    def annotations(self) -> tuple[str, ...]:
        """Documentation strings recorded during generation."""
        return self._annotations

    def is_phase_transition(self) -> bool:
        """Whether this transition performs actions (paper §3.3).

        Simple transitions only move between states; *phase* transitions
        additionally send messages — the thick arrows of Fig 8.
        """
        return bool(self._actions)

    def retarget(self, new_target: str) -> "Transition":
        """Copy of this transition pointing at ``new_target`` (used by merging)."""
        return Transition(self._message, new_target, self._actions, self._annotations)

    def signature(self) -> tuple:
        """(message, actions, target) triple used for equivalence checks."""
        return (self._message, self._actions, self._target_name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transition) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arrow = ", ".join(self._actions) or "-"
        return f"Transition({self._message} [{arrow}] -> {self._target_name})"


class State:
    """A named state with outgoing transitions and documentation.

    ``vector`` retains the underlying component values for states produced
    from a :class:`~repro.core.components.StateSpace`; merged states keep
    the vector of their representative.  ``merged_names`` lists the names
    of all original states combined into this one (empty before step 4).
    """

    __slots__ = (
        "_name",
        "_vector",
        "_transitions",
        "_annotations",
        "_final",
        "_merged_names",
    )

    def __init__(
        self,
        name: str,
        vector: Optional[tuple] = None,
        annotations: Sequence[str] = (),
        final: bool = False,
    ):
        self._name = name
        self._vector = vector
        self._transitions: dict[str, Transition] = {}
        self._annotations = list(annotations)
        self._final = final
        self._merged_names: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """Encoded state name, e.g. ``T/2/F/0/F/F/F``."""
        return self._name

    @property
    def vector(self) -> Optional[tuple]:
        """Underlying component values, if this state came from a space."""
        return self._vector

    @property
    def final(self) -> bool:
        """Whether this is a terminal (finished) state."""
        return self._final

    @property
    def annotations(self) -> tuple[str, ...]:
        """Documentation lines describing this state (Fig 14 commentary)."""
        return tuple(self._annotations)

    @property
    def merged_names(self) -> tuple[str, ...]:
        """Original state names combined into this state by step 4."""
        return self._merged_names

    def annotate(self, *lines: str) -> None:
        """Append documentation lines."""
        self._annotations.extend(lines)

    def set_merged_names(self, names: Iterable[str]) -> None:
        """Record the set of original states this state represents."""
        self._merged_names = tuple(names)

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """Outgoing transitions in message-declaration order of insertion."""
        return tuple(self._transitions.values())

    def messages(self) -> tuple[str, ...]:
        """Messages for which this state has a transition."""
        return tuple(self._transitions.keys())

    def record_transition(self, transition: Transition) -> None:
        """Attach an outgoing transition (paper: ``recordTransition``).

        A state machine is deterministic: at most one transition per
        message.  Re-recording a message is a structural error.
        """
        if self._final:
            raise MachineStructureError(
                f"final state {self._name!r} cannot have outgoing transitions"
            )
        if transition.message in self._transitions:
            raise MachineStructureError(
                f"state {self._name!r} already has a transition on {transition.message!r}"
            )
        self._transitions[transition.message] = transition

    def get_transition(self, message: str) -> Optional[Transition]:
        """The transition triggered by ``message``, or ``None`` if inapplicable."""
        return self._transitions.get(message)

    def replace_transitions(self, transitions: Iterable[Transition]) -> None:
        """Replace all outgoing transitions (used when rewriting targets)."""
        self._transitions = {}
        for t in transitions:
            if t.message in self._transitions:
                raise MachineStructureError(
                    f"duplicate transition on {t.message!r} for state {self._name!r}"
                )
            self._transitions[t.message] = t

    def transition_signature(self) -> tuple:
        """Canonical signature of outgoing behaviour, for equivalence merging."""
        return tuple(sorted(t.signature() for t in self._transitions.values()))

    def component(self, space: Any, name: str) -> Any:
        """Convenience accessor: value of a named component of this state."""
        if self._vector is None:
            raise MachineStructureError(f"state {self._name!r} has no component vector")
        return space.get(self._vector, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "final " if self._final else ""
        return f"State({kind}{self._name!r}, {len(self._transitions)} transitions)"
