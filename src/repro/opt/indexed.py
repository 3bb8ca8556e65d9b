"""The dense indexed IR shared by the optimization passes and the backends.

Every consumer of a generated :class:`~repro.core.machine.StateMachine`
used to rebuild its own view of the machine — the fleet engine flattened
a dispatch table, the source renderer walked states per message, the
flattening pipeline pruned by name.  :class:`IndexedMachine` is the one
shared form: states, messages and actions interned to contiguous integer
ids, transitions stored as flat row-major arrays of length
``len(states) * len(messages)``.

Layout (all offsets are ``state_id * width + message_id``):

* ``next_state[offset]`` — target state id, or ``-1`` when the message is
  inapplicable in that state (ignored, per protocol semantics);
* ``action_seq[offset]`` — index into ``action_seqs``, the pool of
  interned action-id tuples (``action_seqs[0]`` is always the empty
  tuple); ``-1`` mirrors an inapplicable ``next_state`` slot;
* ``actions[action_id]`` — the raw action string exactly as the abstract
  model recorded it (``->``-prefixed); executors strip the prefix.

Interning makes the structural passes cheap: equivalent-state merging
compares ``action_seq`` ids instead of string tuples, and dead/duplicate
action elimination is pool compaction.  Name sidecars (annotations,
vectors, merged-name sets) ride along untouched so :meth:`to_machine`
reconstructs a machine renderers can still document.

Instances are immutable by convention: passes build new ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import MachineStructureError
from repro.core.machine import FlatDispatchTable, StateMachine
from repro.core.state import State, Transition, strip_action_prefix


@dataclass(frozen=True)
class IndexedMachine:
    """A state machine interned to dense integer ids and flat arrays."""

    name: str
    parameters: dict
    messages: tuple[str, ...]
    state_names: tuple[str, ...]
    #: Flat row-major target ids; ``-1`` = message inapplicable.
    next_state: tuple[int, ...]
    #: Flat row-major indexes into ``action_seqs``; ``-1`` where ``next_state`` is.
    action_seq: tuple[int, ...]
    #: Pool of interned action-id tuples; entry 0 is always ``()``.
    action_seqs: tuple[tuple[int, ...], ...]
    #: Pool of interned raw action strings (``->``-prefixed).
    actions: tuple[str, ...]
    start: int
    #: Designated finish state id, or ``-1`` when the machine has none.
    finish: int
    final: tuple[bool, ...]
    #: Sidecars: documentation and provenance, indexed by state id.
    state_annotations: tuple[tuple[str, ...], ...] = ()
    state_vectors: tuple[Optional[tuple], ...] = ()
    state_merged: tuple[tuple[str, ...], ...] = ()
    #: Sparse transition annotations, keyed by flat offset.
    transition_annotations: dict[int, tuple[str, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of message columns per state row."""
        return len(self.messages)

    @property
    def state_count(self) -> int:
        return len(self.state_names)

    def transition_count(self) -> int:
        """Number of populated transition slots."""
        return sum(1 for target in self.next_state if target >= 0)

    def state_index(self) -> dict[str, int]:
        """Name -> id map (computed; hot paths use the arrays directly)."""
        return {name: i for i, name in enumerate(self.state_names)}

    def message_index(self) -> dict[str, int]:
        """Message -> column map (computed)."""
        return {message: i for i, message in enumerate(self.messages)}

    def transition(self, state_id: int, message_id: int):
        """``(target id, action-id tuple)`` or ``None`` when inapplicable."""
        offset = state_id * len(self.messages) + message_id
        target = self.next_state[offset]
        if target < 0:
            return None
        return target, self.action_seqs[self.action_seq[offset]]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_machine(cls, machine: StateMachine) -> "IndexedMachine":
        """Intern a :class:`StateMachine` (insertion order becomes id order)."""
        machine.check_integrity()
        state_names = machine.state_names()
        state_index = {name: i for i, name in enumerate(state_names)}
        messages = machine.messages
        message_index = {message: i for i, message in enumerate(messages)}
        width = len(messages)
        size = len(state_names) * width

        next_state = [-1] * size
        action_seq = [-1] * size
        action_pool: dict[str, int] = {}
        seq_pool: dict[tuple[int, ...], int] = {(): 0}
        transition_annotations: dict[int, tuple[str, ...]] = {}

        for state in machine.states:
            row = state_index[state.name] * width
            for t in state.transitions:
                offset = row + message_index[t.message]
                next_state[offset] = state_index[t.target_name]
                ids = tuple(
                    action_pool.setdefault(a, len(action_pool)) for a in t.actions
                )
                action_seq[offset] = seq_pool.setdefault(ids, len(seq_pool))
                if t.annotations:
                    transition_annotations[offset] = t.annotations

        finish = machine.finish_state
        return cls(
            name=machine.name,
            parameters=machine.parameters,
            messages=messages,
            state_names=state_names,
            next_state=tuple(next_state),
            action_seq=tuple(action_seq),
            action_seqs=tuple(sorted(seq_pool, key=seq_pool.__getitem__)),
            actions=tuple(sorted(action_pool, key=action_pool.__getitem__)),
            start=state_index[machine.start_state.name],
            finish=state_index[finish.name] if finish is not None else -1,
            final=tuple(state.final for state in machine.states),
            state_annotations=tuple(state.annotations for state in machine.states),
            state_vectors=tuple(state.vector for state in machine.states),
            state_merged=tuple(state.merged_names for state in machine.states),
            transition_annotations=transition_annotations,
        )

    def to_machine(self) -> StateMachine:
        """Rebuild a :class:`StateMachine` (id order becomes insertion order).

        Transition insertion order is normalised to alphabet order, which
        is behaviourally irrelevant (lookups are by message) but fixes
        renderer output for machines whose transitions were recorded in a
        different order.
        """
        machine = StateMachine(
            self.messages, name=self.name, parameters=self.parameters
        )
        width = len(self.messages)
        for i, name in enumerate(self.state_names):
            state = State(
                name,
                vector=self.state_vectors[i] if self.state_vectors else None,
                annotations=self.state_annotations[i] if self.state_annotations else (),
                final=self.final[i],
            )
            if self.state_merged and self.state_merged[i]:
                state.set_merged_names(self.state_merged[i])
            machine.add_state(state)
        for i, name in enumerate(self.state_names):
            state = machine.get_state(name)
            row = i * width
            for col, message in enumerate(self.messages):
                target = self.next_state[row + col]
                if target < 0:
                    continue
                seq = self.action_seqs[self.action_seq[row + col]]
                actions = tuple(self.actions[a] for a in seq)
                state.record_transition(
                    Transition(
                        message,
                        self.state_names[target],
                        actions,
                        self.transition_annotations.get(row + col, ()),
                    )
                )
        machine.set_start(self.state_names[self.start])
        if self.finish >= 0:
            machine.set_finish(self.state_names[self.finish])
        machine.check_integrity()
        return machine

    def jump_arrays(self, auto_recycle: bool = False) -> tuple[list[int], list]:
        """Specialise the IR into the serve plane's two hot-loop arrays.

        ``jump[offset]`` is the next state premultiplied by the alphabet
        width (``-1``: message inapplicable), so the dispatch loop is
        ``offset = premultiplied_state + column; next = jump[offset]``.
        ``acts[offset]`` is the transition's stripped action-name tuple.
        Under ``auto_recycle`` a protocol-completing transition instead
        jumps straight to the premultiplied start state and carries the
        ``None`` sentinel in ``acts`` (its actions would be wiped by the
        immediate ``reset()`` anyway, exactly as in a standalone replay).
        """
        width = len(self.messages)
        start = self.start * width
        final = self.final
        stripped = tuple(strip_action_prefix(a) for a in self.actions)
        seq_names = tuple(tuple(stripped[a] for a in seq) for seq in self.action_seqs)
        jump: list[int] = []
        acts: list = []
        for offset, target in enumerate(self.next_state):
            if target < 0:
                jump.append(-1)
                acts.append(())
            elif auto_recycle and final[target]:
                jump.append(start)
                acts.append(None)
            else:
                jump.append(target * width)
                acts.append(seq_names[self.action_seq[offset]])
        return jump, acts

    def dispatch_table(self) -> FlatDispatchTable:
        """Export the IR as the fleet plane's :class:`FlatDispatchTable`.

        Identical to ``to_machine().dispatch_table()`` but built straight
        from the arrays: action ids resolve through the pools once, with
        the ``->`` prefix stripped exactly as the table contract requires.
        """
        stripped = tuple(strip_action_prefix(a) for a in self.actions)
        seq_names = tuple(tuple(stripped[a] for a in seq) for seq in self.action_seqs)
        entries: list[Optional[tuple[int, tuple[str, ...]]]] = []
        for offset, target in enumerate(self.next_state):
            if target < 0:
                entries.append(None)
            else:
                entries.append((target, seq_names[self.action_seq[offset]]))
        return FlatDispatchTable(
            state_names=self.state_names,
            messages=self.messages,
            state_index=self.state_index(),
            message_index=self.message_index(),
            entries=tuple(entries),
            start_index=self.start,
            final=self.final,
        )

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def check_integrity(self) -> None:
        """Raise :class:`MachineStructureError` on malformed arrays."""
        size = len(self.state_names) * len(self.messages)
        if len(self.next_state) != size or len(self.action_seq) != size:
            raise MachineStructureError(
                f"indexed machine {self.name!r}: array length "
                f"{len(self.next_state)}/{len(self.action_seq)} != "
                f"{len(self.state_names)} states x {len(self.messages)} messages"
            )
        for offset, target in enumerate(self.next_state):
            if target >= len(self.state_names):
                raise MachineStructureError(
                    f"indexed machine {self.name!r}: offset {offset} targets "
                    f"unknown state id {target}"
                )
            if (target < 0) != (self.action_seq[offset] < 0):
                raise MachineStructureError(
                    f"indexed machine {self.name!r}: offset {offset} has "
                    f"mismatched next_state/action_seq sentinels"
                )
            if target >= 0 and self.final[offset // len(self.messages)]:
                raise MachineStructureError(
                    f"indexed machine {self.name!r}: final state "
                    f"{self.state_names[offset // len(self.messages)]!r} has an "
                    f"outgoing transition"
                )
            if self.action_seq[offset] >= len(self.action_seqs):
                raise MachineStructureError(
                    f"indexed machine {self.name!r}: offset {offset} references "
                    f"unknown action sequence {self.action_seq[offset]}"
                )
        if not (0 <= self.start < len(self.state_names)):
            raise MachineStructureError(
                f"indexed machine {self.name!r}: start id {self.start} out of range"
            )

    def reachable_ids(self) -> set[int]:
        """State ids reachable from the start state (array BFS)."""
        width = len(self.messages)
        seen = {self.start}
        frontier = [self.start]
        while frontier:
            row = frontier.pop() * width
            for target in self.next_state[row : row + width]:
                if target >= 0 and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedMachine({self.name!r}, {len(self.state_names)} states, "
            f"{self.transition_count()} transitions, "
            f"{len(self.actions)} actions/{len(self.action_seqs)} sequences)"
        )
