"""The ``StateMachine`` container: the output of abstract-model execution.

Mirrors the paper's Fig 5::

    class StateMachine {
        String[] messages;
        State[] states;
        State start_state;
        State finish_state;
    }

A machine knows its message alphabet, holds states by name, and designates a
start state and (optionally) a finish state.  It is the public currency
between the abstract model and the renderers / runtime, in two forms:

* **hand-built** through the object API (``add_state``,
  ``State.record_transition``, ``set_start``), as the HSM flattener and
  the XML reader build theirs; a consumer that reads arrays interns it
  (:meth:`repro.opt.IndexedMachine.from_machine`);
* a **view** over the :class:`~repro.opt.IndexedMachine` the generator
  and the pass pipeline produce, which array consumers (passes, source
  renderer, fleet) read as it is.  ``State``/``Transition`` objects are
  built only when someone asks for them; they are mutable, so building
  them drops the arrays and the view becomes a hand-built machine.  Its
  producer validated the arrays, so a view's ``check_integrity`` has
  nothing to check.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

from repro.core.components import StateSpace
from repro.core.errors import MachineStructureError
from repro.core.state import State, Transition


@dataclass(frozen=True)
class FlatDispatchTable:
    """A machine flattened to index arithmetic for table-driven execution.

    ``entries`` is row-major: slot ``state_index * len(messages) +
    message_index`` holds ``None`` (message not applicable in that state —
    ignored, per protocol semantics) or a ``(next_state_index, actions)``
    pair with actions stripped of their ``->`` prefix: one list lookup and
    one tuple unpack per event for the fleet plane (:mod:`repro.serve`).
    """

    state_names: tuple[str, ...]
    messages: tuple[str, ...]
    state_index: dict[str, int]
    message_index: dict[str, int]
    entries: tuple[Optional[tuple[int, tuple[str, ...]]], ...]
    start_index: int
    final: tuple[bool, ...]

    @property
    def width(self) -> int:
        """Number of message columns per state row."""
        return len(self.messages)

    def lookup(self, state_name: str, message: str):
        """Convenience name-based lookup (hot paths use index arithmetic).

        Raises :class:`MachineStructureError` for a state the table does
        not contain or a message outside the machine's alphabet; final
        states yield ``None`` for every message (they absorb silently).
        """
        try:
            row = self.state_index[state_name]
        except KeyError:
            raise MachineStructureError(f"unknown state {state_name!r}") from None
        try:
            col = self.message_index[message]
        except KeyError:
            raise MachineStructureError(
                f"message {message!r} is not in the alphabet {self.messages}"
            ) from None
        return self.entries[row * len(self.messages) + col]


class StateMachine:
    """A concrete finite state machine generated from an abstract model."""

    def __init__(
        self,
        messages: Sequence[str],
        space: Optional[StateSpace] = None,
        name: str = "machine",
        parameters: Optional[dict] = None,
    ):
        if not messages:
            raise MachineStructureError("a state machine needs at least one message")
        if len(set(messages)) != len(messages):
            raise MachineStructureError(f"duplicate messages: {list(messages)}")
        self._name = name
        self._messages = tuple(messages)
        self._message_set = frozenset(messages)
        self._space = space
        self._parameters = dict(parameters or {})
        self._states: dict[str, State] = {}
        self._start_name: Optional[str] = None
        self._finish_name: Optional[str] = None
        #: The IndexedMachine this machine is a view over, until its
        #: objects are built (``None`` for a hand-built machine).
        self._ir = None

    @classmethod
    def _over(cls, ir, space: Optional[StateSpace] = None) -> "StateMachine":
        """A view over a validated :class:`~repro.opt.IndexedMachine`."""
        machine = cls(ir.messages, space, ir.name, ir.parameters)
        machine._start_name = ir.state_names[ir.start]
        machine._finish_name = ir.state_names[ir.finish] if ir.finish >= 0 else None
        machine._ir = ir
        return machine

    def _objects(self) -> dict[str, State]:
        """The states by name, built from the carried arrays on first use
        (transitions in alphabet order); the arrays are dropped, so no
        consumer ever reads arrays the objects have since diverged from.
        A generated IR's states are described here, not when the IR is
        made (:meth:`~repro.opt.indexed.IndexedMachine.annotations`)."""
        ir, self._ir = self._ir, None
        if ir is not None:
            width, names = len(ir.messages), ir.state_names
            actions = [tuple(ir.actions[a] for a in seq) for seq in ir.action_seqs]
            annotations = ir.annotations()
            for i, name in enumerate(names):
                state = self._states[name] = State(
                    name,
                    ir.state_vectors[i] if ir.state_vectors else None,
                    annotations[i],
                    ir.final[i],
                )
                state.set_merged_names(ir.state_merged[i] if ir.state_merged else ())
                for col, message in enumerate(ir.messages):
                    offset = i * width + col
                    if ir.next_state[offset] >= 0:
                        state.record_transition(
                            Transition(
                                message,
                                names[ir.next_state[offset]],
                                actions[ir.action_seq[offset]],
                                ir.transition_annotations.get(offset, ()),
                            )
                        )
        return self._states

    # ------------------------------------------------------------------
    # identity / metadata
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable machine name (e.g. ``commit[r=4]``)."""
        return self._name

    @property
    def messages(self) -> tuple[str, ...]:
        """The message alphabet, in declaration order."""
        return self._messages

    @property
    def message_set(self) -> frozenset[str]:
        """The message alphabet as a set, for per-event membership tests."""
        return self._message_set

    @property
    def space(self) -> Optional[StateSpace]:
        """The state space this machine was generated from, if any."""
        return self._space

    @property
    def parameters(self) -> dict:
        """Generation parameters (e.g. ``{"replication_factor": 4}``)."""
        return dict(self._parameters)

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------

    @property
    def states(self) -> tuple[State, ...]:
        """All states, in insertion order."""
        return tuple(self._objects().values())

    def state_names(self) -> tuple[str, ...]:
        """All state names, in insertion order."""
        if self._ir is not None:
            return self._ir.state_names
        return tuple(self._states.keys())

    def __len__(self) -> int:
        return len(self._states if self._ir is None else self._ir.state_names)

    def __contains__(self, name: str) -> bool:
        return name in (self._states if self._ir is None else self._ir.state_names)

    def add_state(self, state: State) -> State:
        """Register a state; names must be unique."""
        states = self._objects()
        if state.name in states:
            raise MachineStructureError(f"duplicate state name {state.name!r}")
        states[state.name] = state
        return state

    def get_state(self, name: str) -> State:
        """Look up a state by name."""
        try:
            return self._objects()[name]
        except KeyError:
            raise MachineStructureError(f"unknown state {name!r}") from None

    def remove_states(self, names: Iterable[str]) -> None:
        """Drop states (used by the pruning step)."""
        states = self._objects()
        for name in names:
            states.pop(name, None)
        if self._start_name is not None and self._start_name not in self._states:
            raise MachineStructureError("pruning removed the start state")
        if self._finish_name is not None and self._finish_name not in self._states:
            self._finish_name = None

    # ------------------------------------------------------------------
    # start / finish
    # ------------------------------------------------------------------

    @property
    def start_state(self) -> State:
        """The designated start state."""
        if self._start_name is None:
            raise MachineStructureError("start state has not been set")
        return self._objects()[self._start_name]

    def set_start(self, name: str) -> None:
        """Designate the start state by name."""
        if name not in self._objects():
            raise MachineStructureError(f"cannot start at unknown state {name!r}")
        self._start_name = name

    @property
    def finish_state(self) -> Optional[State]:
        """The designated finish state, or ``None`` if the machine has none."""
        if self._finish_name is None:
            return None
        return self._objects()[self._finish_name]

    def set_finish(self, name: Optional[str]) -> None:
        """Designate (or clear) the finish state by name."""
        if name is not None and name not in self._objects():
            raise MachineStructureError(f"cannot finish at unknown state {name!r}")
        self._finish_name = name

    def final_states(self) -> tuple[State, ...]:
        """All terminal states (no outgoing transitions allowed)."""
        return tuple(s for s in self._objects().values() if s.final)

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------

    def transitions(self) -> Iterable[tuple[State, Transition]]:
        """Yield every (source state, transition) pair."""
        for state in self._objects().values():
            for transition in state.transitions:
                yield state, transition

    def transition_count(self) -> int:
        """Total number of transitions in the machine."""
        if self._ir is not None:
            return self._ir.transition_count()
        return sum(len(s.transitions) for s in self._states.values())

    def phase_transition_count(self) -> int:
        """Number of transitions that perform actions (paper §3.3)."""
        return sum(t.is_phase_transition() for _, t in self.transitions())

    def reachable_names(self, start: Optional[str] = None) -> set[str]:
        """Names of states reachable from ``start`` (default: start state)."""
        if start is None:
            start = self.start_state.name
        states = self._objects()
        seen = {start}
        frontier = [start]
        while frontier:
            state = states[frontier.pop()]
            for transition in state.transitions:
                target = transition.target_name
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def prune_unreachable(self) -> int:
        """Remove every state unreachable from the start state.

        The name-graph form, for machines built by hand (the eager
        flattening engine); the generator and
        :class:`repro.opt.passes.PruneUnreachablePass` prune arrays.
        Returns the number of states removed.
        """
        reachable = self.reachable_names()
        doomed = [name for name in self._objects() if name not in reachable]
        self.remove_states(doomed)
        return len(doomed)

    def dispatch_table(self) -> FlatDispatchTable:
        """Export the machine as a :class:`FlatDispatchTable`: replayed
        through it, an event sequence visits the states and performs the
        actions :class:`~repro.runtime.interp.MachineInterpreter` does."""
        from repro.opt.indexed import IndexedMachine

        return IndexedMachine.from_machine(self).dispatch_table()

    def check_integrity(self) -> None:
        """Raise if any transition dangles or a final state has outgoing edges.

        A view has nothing to check: its producer validated the arrays.
        """
        if self._ir is not None:
            return
        for state in self._states.values():
            for transition in state.transitions:
                if transition.target_name not in self._states:
                    raise MachineStructureError(
                        f"transition {transition!r} from {state.name!r} targets "
                        f"unknown state {transition.target_name!r}"
                    )
                if transition.message not in self._messages:
                    raise MachineStructureError(
                        f"transition {transition!r} from {state.name!r} is on "
                        f"undeclared message {transition.message!r}"
                    )
            if state.final and state.transitions:
                raise MachineStructureError(
                    f"final state {state.name!r} has outgoing transitions"
                )
        if self._start_name is None:
            raise MachineStructureError("machine has no start state")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateMachine({self._name!r}, {len(self)} states, "
            f"{self.transition_count()} transitions)"
        )
