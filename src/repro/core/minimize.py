"""Step 4 of the generation process: combining equivalent states.

The paper (§3.4, Fig 13) merges sets of states that are equivalent "in the
sense that the outgoing transitions from each perform the same actions and
lead to the same destination state".  Applied once, that collapses only
states with literally identical successors; applied to a fixpoint it
computes the bisimulation quotient of the machine.  We implement both:

* :func:`one_shot_merge` — the literal single pass, kept for ablation;
* :func:`equivalence_classes` / :func:`merge_equivalent` — the fixpoint,
  the variant whose output matches the paper's published Table 1 counts.

The fixpoint is computed by :func:`coarsest_partition`, the one
implementation of the relation in the library: this module indexes a
:class:`StateMachine` into its int arrays, and the optimizer's ``merge``
pass (:class:`repro.opt.passes.MergeEquivalentPass`) hands it the arrays
of an :class:`~repro.opt.indexed.IndexedMachine`.  It is Hopcroft's
partition refinement:

* the *initial partition* separates states by finality and, per message,
  by whether they accept it and with which action sequence — everything
  about a state that does not depend on where its transitions lead;
* a *splitter* is a block ``B`` and a message ``m``: a block holding both
  states whose ``m``-transition enters ``B`` and states whose does not
  cannot be one class, and is split in two along that line, found from
  per-message predecessor lists in time proportional to the predecessors
  of ``B``;
* the *smaller-half rule*: the half a split cuts off becomes a new
  splitter only if it is the smaller one, so a state is re-examined at
  most ``log n`` times — O(w·n·log n) for ``n`` states and ``w``
  messages, where re-deriving every state's signature until nothing
  changes (Moore's algorithm) is O(w·n²) on a chain.

The relation has one coarsest stable partition, so which algorithm finds
it — and in which order splitters are taken — cannot change the classes;
``tests/core/moore_reference.py`` keeps the signature fixpoint as the
independent oracle.

Merged states keep the name of a canonical representative (the first member
in the original machine's insertion order); all reachable final states merge
into a single state named :data:`FINISH_NAME`, which becomes the machine's
``finish_state`` (paper Fig 5).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.state import State, Transition

#: Name given to the merged terminal state (the machine's finish state).
FINISH_NAME = "FINISHED"


def coarsest_partition(
    width: int,
    next_state: Sequence[int],
    output: Sequence[Hashable],
    final: Sequence[bool],
) -> list[int]:
    """Class id per state of the coarsest partition stable under every message.

    The machine is given as row-major arrays of ``width`` columns (one per
    message) and ``len(final)`` rows (one per state): ``next_state[s * width
    + m]`` is the target of state ``s`` on message ``m``, negative when the
    state does not accept it, and ``output[s * width + m]`` is any hashable
    standing for the actions that transition performs (not read where
    ``next_state`` is negative).  Two states get the same class id iff they
    agree on finality and, per message, either both lack a transition or
    both have one with equal ``output`` into states of one class.  Class
    ids are dense and numbered by each class's lowest member, so class 0
    holds state 0 and grouping states by id lists classes in order of
    their first member.
    """
    n = len(final)
    columns = range(width)

    # Initial partition: finality and, per column, (accepted?, output).
    codes: dict[Hashable, int] = {}
    local = [
        codes.setdefault(out, len(codes)) if target >= 0 else -1
        for target, out in zip(next_state, output)
    ]
    initial: dict[tuple, int] = {}
    block_of = [
        initial.setdefault(
            (final[s], *local[s * width : (s + 1) * width]), len(initial)
        )
        for s in range(n)
    ]
    blocks: list[set[int]] = [set() for _ in initial]
    for s, b in enumerate(block_of):
        blocks[b].add(s)

    # preds[m][t]: the states whose transition on message m enters t.
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in columns]
    offset = 0
    for s in range(n):
        for m in columns:
            target = next_state[offset]
            if target >= 0:
                preds[m][target].append(s)
            offset += 1

    # Every queued block is a splitter for every column.  A state accepts
    # a message iff its whole block does (initial partition), so no block
    # is ever cut between "enters B" and "has no transition".
    worklist = list(range(len(blocks)))
    while worklist:
        splitter = worklist.pop()
        for into in preds:
            hits: dict[int, list[int]] = {}
            for t in blocks[splitter]:
                for s in into[t]:
                    b = block_of[s]
                    if b in hits:
                        hits[b].append(s)
                    else:
                        hits[b] = [s]
            for b, hit in hits.items():
                block = blocks[b]
                if len(hit) == len(block):
                    continue
                # Cut off the smaller half as a new block.  The cut and the
                # relabelling cost O(len(hit)), however large the block:
                # the difference is taken only when hit is over half of it.
                if 2 * len(hit) <= len(block):
                    small = set(hit)
                else:
                    small = block.difference(hit)
                block -= small
                new = len(blocks)
                blocks.append(small)
                for s in small:
                    block_of[s] = new
                # If b is still queued both halves now are; if it is not,
                # queueing the smaller half is enough (Hopcroft).
                worklist.append(new)

    order: dict[int, int] = {}
    return [order.setdefault(b, len(order)) for b in block_of]


def equivalence_classes(machine: StateMachine) -> list[list[State]]:
    """Partition the machine's states into behavioural equivalence classes.

    Two states are equivalent iff they agree on finality and, for every
    message, either both lack a transition or both have transitions with
    identical action sequences leading to equivalent states.  Classes
    come in insertion order of their first member, members in insertion
    order.  Raises :class:`MachineStructureError` for a transition that
    targets a state, or is on a message, the machine lacks.
    """
    states = machine.states
    state_index = {state.name: i for i, state in enumerate(states)}
    message_index = {message: m for m, message in enumerate(machine.messages)}
    width = len(message_index)
    next_state = [-1] * (len(states) * width)
    output: list[Hashable] = [None] * len(next_state)
    for i, state in enumerate(states):
        row = i * width
        for t in state.transitions:
            target = state_index.get(t.target_name)
            if target is None:
                raise MachineStructureError(
                    f"transition {t!r} from {state.name!r} targets "
                    f"unknown state {t.target_name!r}"
                )
            column = message_index.get(t.message)
            if column is None:
                raise MachineStructureError(
                    f"transition {t!r} from {state.name!r} is on "
                    f"undeclared message {t.message!r}"
                )
            next_state[row + column] = target
            output[row + column] = t.actions

    cls = coarsest_partition(
        width, next_state, output, [state.final for state in states]
    )
    groups: dict[int, list[State]] = {}
    for state, c in zip(states, cls):
        groups.setdefault(c, []).append(state)
    return list(groups.values())


def merge_equivalent(machine: StateMachine) -> StateMachine:
    """Return a new machine with each equivalence class collapsed to one state."""
    classes = equivalence_classes(machine)
    return _quotient(machine, classes)


def one_shot_merge(machine: StateMachine) -> StateMachine:
    """A single merging pass, as the paper's prose literally describes.

    States are combined only when their outgoing transitions have identical
    (message, actions, destination *name*) signatures.  One pass may leave
    further merges possible; iterating this operation until it stabilises
    yields the same machine as :func:`merge_equivalent`.
    """
    groups: dict[tuple, list[State]] = {}
    for state in machine.states:
        key = (state.final, state.transition_signature())
        groups.setdefault(key, []).append(state)
    return _quotient(machine, list(groups.values()))


def _quotient(machine: StateMachine, classes: list[list[State]]) -> StateMachine:
    """Build the quotient machine for a given partition of states.

    ``classes`` come in insertion order of their first member (both
    callers build them while walking ``machine.states``), and that is the
    insertion order of the quotient's states.
    """
    representative: dict[str, str] = {}
    for group in classes:
        name = _class_name(group)
        for member in group:
            representative[member.name] = name

    merged = StateMachine(
        machine.messages,
        space=machine.space,
        name=machine.name,
        parameters=machine.parameters,
    )

    finish_name: str | None = None
    for group in classes:
        leader = group[0]
        name = representative[leader.name]
        new_state = State(
            name,
            vector=leader.vector,
            annotations=leader.annotations,
            final=leader.final,
        )
        member_names = sorted(member.name for member in group)
        new_state.set_merged_names(member_names)
        if len(group) > 1:
            new_state.annotate(
                f"Represents {len(group)} equivalent states: "
                + ", ".join(member_names)
            )
        merged.add_state(new_state)
        if leader.final and finish_name is None:
            finish_name = name

    for group in classes:
        leader = group[0]
        target_state = merged.get_state(representative[leader.name])
        if leader.final:
            continue
        rewritten = []
        for transition in leader.transitions:
            rewritten.append(
                Transition(
                    transition.message,
                    representative[transition.target_name],
                    transition.actions,
                    transition.annotations,
                )
            )
        target_state.replace_transitions(rewritten)

    merged.set_start(representative[machine.start_state.name])
    if finish_name is not None:
        merged.set_finish(finish_name)
    merged.check_integrity()
    return merged


def _class_name(group: list[State]) -> str:
    """Name for a merged class: FINISHED for final classes, else the leader."""
    if len(group) > 1 and all(member.final for member in group):
        return FINISH_NAME
    return group[0].name
