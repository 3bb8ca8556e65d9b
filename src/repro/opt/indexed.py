"""The dense indexed IR: what the generator produces and every stage consumes.

:class:`IndexedMachine` is the one form a machine takes from step 1 to the
rendered class: states, messages and actions interned to contiguous
integer ids, transitions stored as flat row-major arrays of length
``len(states) * len(messages)``.  Both generation engines write it
directly and the HSM flattener writes it with their arrays, step 4 and
the optimization passes map it to new instances, and the source renderer
and the fleet read it.  The public
:class:`~repro.core.machine.StateMachine` a producer hands out is a view
over it: :meth:`from_machine` on such a view returns the carried IR
without interning anything, and the ``State``/``Transition`` objects are
built only for consumers that ask for them (text, DOT, HTML, the
interpreter, user code).

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
action elimination is pool compaction.  The sidecars (state annotations,
vectors and merged-name sets, sparse transition annotations) carry the
commentary the renderers emit; a generated IR also carries its model's
describer (``describe``), so the per-state prose of Fig 14 is written
from the vectors when states are built, not when the IR is.

Instances are immutable by convention: passes build new ones.  Whoever
builds one validates it once (:meth:`check_integrity`); consumers trust it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.pipeline import _reachable
from repro.core.state import strip_action_prefix


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
    #: Annotations hold only what a state's vector cannot give: a
    #: hand-built state's own lines, step 4's and the merge pass's
    #: "Represents N equivalent states" notes.  A state built from an IR
    #: with ``describe`` carries ``describe(vector)`` before them.
    state_annotations: tuple[tuple[str, ...], ...] = ()
    state_vectors: tuple[Optional[tuple], ...] = ()
    state_merged: tuple[tuple[str, ...], ...] = ()
    #: Sparse transition annotations, keyed by flat offset.
    transition_annotations: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: The array objects this IR had when step 4 or the merge pass made
    #: it a bisimulation quotient (see :meth:`_quotient_arrays`), else
    #: ``None``.  ``dataclasses.replace`` copies it, so a replace that
    #: swaps an array leaves a proof that no longer matches.
    _proof: Optional[tuple] = field(default=None, compare=False, repr=False)
    #: The model's commentary on a state vector (a generated IR's
    #: :class:`~repro.core.model.Describer`, picklable with its model),
    #: called only by :meth:`annotations`; ``None`` when every annotation
    #: is stored.  Passes carry it beside the vectors.
    describe: Optional[Callable[[tuple], tuple[str, ...]]] = field(
        default=None, compare=False, repr=False
    )

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
        return len(self.next_state) - self.next_state.count(-1)

    def state_index(self) -> dict[str, int]:
        """Name -> id map (computed; hot paths use the arrays directly)."""
        return {name: i for i, name in enumerate(self.state_names)}

    def message_index(self) -> dict[str, int]:
        """Message -> column map (computed)."""
        return {message: i for i, message in enumerate(self.messages)}

    def annotations(self) -> list[tuple[str, ...]]:
        """Each state's annotations as the ``State`` built from it carries
        them: the commentary on its vector (when the IR has ``describe``),
        then its notes."""
        notes = self.state_annotations or [()] * self.state_count
        if self.describe is None:
            return list(notes)
        describe = self.describe
        return [describe(v) + lines for v, lines in zip(self.state_vectors, notes)]

    def __eq__(self, other) -> bool:
        """Field by field, the annotations as built states carry them, so
        an IR interned from a view's states equals the view's own."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = all(getattr(self, f) == getattr(other, f) for f in _COMPARED)
        return same and self.annotations() == other.annotations()

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
        """The IR a machine view carries; a hand-built machine is interned
        (insertion order becomes id order)."""
        if machine._ir is not None:
            return machine._ir
        machine.check_integrity()
        state_names = machine.state_names()
        state_index = {name: i for i, name in enumerate(state_names)}
        message_index = {message: i for i, message in enumerate(machine.messages)}
        width = len(message_index)
        next_state = [-1] * (len(state_names) * width)
        action_seq = list(next_state)
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
            messages=machine.messages,
            state_names=state_names,
            next_state=tuple(next_state),
            action_seq=tuple(action_seq),
            action_seqs=tuple(seq_pool),
            actions=tuple(action_pool),
            start=state_index[machine.start_state.name],
            finish=state_index[finish.name] if finish is not None else -1,
            final=tuple(state.final for state in machine.states),
            state_annotations=tuple(state.annotations for state in machine.states),
            state_vectors=tuple(state.vector for state in machine.states),
            state_merged=tuple(state.merged_names for state in machine.states),
            transition_annotations=transition_annotations,
        )

    def to_machine(self) -> StateMachine:
        """Validate, and return a :class:`StateMachine` view over the IR
        (whose objects, once asked for, list transitions in alphabet order)."""
        self.check_integrity()
        return StateMachine._over(self)

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
        seq_names = self._action_names()
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

    def _action_names(self) -> list[tuple[str, ...]]:
        """Each pool sequence as action names without the ``->`` marker."""
        stripped = [strip_action_prefix(a) for a in self.actions]
        return [tuple(stripped[a] for a in seq) for seq in self.action_seqs]

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def check_integrity(self) -> None:
        """Raise :class:`MachineStructureError`, naming the field, on any
        array or sidecar that a consumer could not read as a machine."""
        n, width = len(self.state_names), len(self.messages)
        targets, seqs, pool = self.next_state, self.action_seq, len(self.action_seqs)

        def fail(detail: str):
            raise MachineStructureError(f"indexed machine {self.name!r}: {detail}")

        if not width or len(set(self.messages)) != width:
            fail(f"messages {self.messages} must be non-empty and distinct")
        if len(set(self.state_names)) != n:
            fail("state_names has duplicates")
        for name in ("final", "state_annotations", "state_vectors", "state_merged"):
            size = len(getattr(self, name))
            if size != n and (size or name == "final"):
                fail(f"{name} has {size} entries for {n} states")
        if self.describe is not None and len(self.state_vectors) != n:
            fail(f"describe needs a vector per state, has {len(self.state_vectors)}")
        if len(targets) != n * width or len(seqs) != n * width:
            fail(f"array lengths {len(targets)}/{len(seqs)} != {n} x {width}")
        if not 0 <= self.start < n:
            fail(f"start id {self.start} out of range")
        if self.finish != -1 and not (0 <= self.finish < n and self.final[self.finish]):
            fail(f"finish id {self.finish} is not a final state")
        if not -1 <= min(targets) <= max(targets) < n:
            bad = next(t for t in targets if not -1 <= t < n)
            fail(f"next_state[{targets.index(bad)}] targets unknown state id {bad}")
        applicable = [t >= 0 for t in targets]
        mismatched = applicable != [a >= 0 for a in seqs]
        if mismatched or not -1 <= min(seqs) <= max(seqs) < pool:
            offset = next(
                o
                for o, (t, a) in enumerate(zip(targets, seqs))
                if (t >= 0) != (a >= 0) or not -1 <= a < pool
            )
            fail(f"action_seq[{offset}] = {seqs[offset]} does not match next_state")
        for s in (s for s, final in enumerate(self.final) if final):
            if any(applicable[s * width : (s + 1) * width]):
                fail(f"final state {self.state_names[s]!r} has an outgoing transition")
        for i, seq in enumerate(self.action_seqs):
            if not all(0 <= a < len(self.actions) for a in seq):
                fail(f"action_seqs[{i}] = {seq} names an unknown action id")
        for offset in self.transition_annotations:
            if not (0 <= offset < n * width and targets[offset] >= 0):
                fail(f"transition_annotations[{offset}] annotates no transition")

    def _quotient_arrays(self) -> tuple:
        """The arrays coarsest-partition refinement reads, as objects: what
        a proof records and what :class:`~repro.opt.passes.MergeEquivalentPass`
        compares it with, one ``is`` per array."""
        return (
            self.messages,
            self.final,
            self.next_state,
            self.action_seq,
            self.action_seqs,
            self.actions,
        )

    def reachable_ids(self) -> set[int]:
        """State ids reachable from the start state (array BFS)."""
        return _reachable(self.next_state, len(self.messages), self.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedMachine({self.name!r}, {len(self.state_names)} states, "
            f"{self.transition_count()} transitions, "
            f"{len(self.actions)} actions/{len(self.action_seqs)} sequences)"
        )


#: The fields :meth:`IndexedMachine.__eq__` compares as they are stored.
_COMPARED = tuple(
    f.name
    for f in fields(IndexedMachine)
    if f.compare and f.name != "state_annotations"
)
