"""Step 4 of the generation process: combining equivalent states.

The paper (§3.4, Fig 13) merges sets of states that are equivalent "in the
sense that the outgoing transitions from each perform the same actions and
lead to the same destination state".  Applied once, that collapses only
states with literally identical successors; applied to a fixpoint it
computes the bisimulation quotient of the machine.  We implement both:

* :func:`one_shot_merge` — the literal single pass, kept for ablation;
* :func:`equivalence_classes` / :func:`merge_equivalent` — the fixpoint,
  the variant whose output matches the paper's published Table 1 counts.

Both run on row-major arrays: the generation engines hand step 4 the
rows they explored (:func:`_quotient_rows` partitions them as they stand
and remaps the representatives' rows once, straight into the quotient
IR), and every other caller an :class:`~repro.opt.indexed.IndexedMachine`,
interned first for a hand-built machine.  The fixpoint is
:func:`coarsest_partition`, the one implementation of the relation in the
library (the optimizer's ``merge`` pass runs it too, on every IR that
does not carry a quotient's proof), Hopcroft's partition refinement:

* the *initial partition* separates states by finality and, per message,
  by whether they accept it and with which action sequence — everything
  about a state that does not depend on where its transitions lead;
* a *splitter* is a block ``B`` and a message ``m``: a block holding both
  states whose ``m``-transition enters ``B`` and states whose does not
  is split in two along that line, found from per-message predecessor
  lists in time proportional to the predecessors of ``B``;
* the *smaller-half rule*: only the smaller half a split cuts off becomes
  a new splitter, so a state is re-examined at most ``log n`` times —
  O(w·n·log n) for ``n`` states and ``w`` messages, where Moore's
  signature fixpoint is O(w·n²) on a chain.

The relation has one coarsest stable partition, so neither the algorithm
nor the splitter order can change the classes.  The oracles are kept in
``tests/core``: ``moore_reference.py`` (the signature fixpoint) and
``quotient_reference.py`` (the object quotient the array remap replaced).

The quotient keeps each class under its first member (lowest id, i.e.
original insertion order), with that member's row, vector and
annotations; every class records its members' names, and a class of more
than one is annotated "Represents N equivalent states".  Only those
larger classes cost a walk of their members: a class of one keeps its
state's fields as they are.  All reachable final states merge into one
state named :data:`FINISH_NAME`, the machine's ``finish_state`` (paper
Fig 5).

A quotient is its own coarsest partition, so refining it again can only
return the identity.  Step 4 (:func:`_quotient_rows`, and
:func:`_quotient` for :func:`merge_equivalent`) therefore records the
quotient's own array objects as its proof (:func:`_proved`), and the
``merge`` pass accepts an IR whose arrays are still those very objects
without running :func:`coarsest_partition`.
``dataclasses.replace`` keeps the proof, so an annotation-only replace
keeps it valid and one that swaps an array voids it.  The literal
:func:`one_shot_merge` partition is not the coarsest and records none.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import replace

from repro.core.machine import StateMachine
from repro.core.state import State

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
    cls = _classes(_indexed(machine))
    groups: list[list[State]] = [[] for _ in range(max(cls) + 1)]
    for state, c in zip(machine.states, cls):
        groups[c].append(state)
    return groups


def merge_equivalent(machine: StateMachine) -> StateMachine:
    """Return a new machine with each equivalence class collapsed to one state."""
    return StateMachine._over(_quotient(_indexed(machine)), machine.space)


def one_shot_merge(machine: StateMachine) -> StateMachine:
    """A single merging pass, as the paper's prose literally describes.

    States are combined only when their outgoing transitions have identical
    (message, actions, destination *name*) signatures.  One pass may leave
    further merges possible; iterating this operation until it stabilises
    yields the same machine as :func:`merge_equivalent`.
    """
    im = _indexed(machine)
    names, width, seq_key = im.state_names, im.width, _seq_key(im)
    outgoing = [
        t >= 0 and (names[t], seq_key[a]) for t, a in zip(im.next_state, im.action_seq)
    ]
    signatures: dict[tuple, int] = {}
    cls = [
        signatures.setdefault(
            (final, *outgoing[s * width : (s + 1) * width]), len(signatures)
        )
        for s, final in enumerate(im.final)
    ]
    return StateMachine._over(_collapse(im, cls), machine.space)


def _indexed(machine: StateMachine):
    """The machine's IR: the one it carries, or its objects interned."""
    from repro.opt.indexed import IndexedMachine

    return IndexedMachine.from_machine(machine)


def _seq_key(im) -> list[tuple[str, ...]]:
    """Action strings per pool entry, so duplicate entries compare equal."""
    return [tuple(im.actions[a] for a in seq) for seq in im.action_seqs]


def _classes(im) -> list[int]:
    """:func:`coarsest_partition` of an IR's arrays."""
    seq_key = _seq_key(im)
    output = [seq_key[a] if a >= 0 else None for a in im.action_seq]
    return coarsest_partition(im.width, im.next_state, output, im.final)


def _quotient(im):
    """Step 4 on an IR: its bisimulation quotient, proved (:func:`_proved`)."""
    return _proved(_collapse(im, _classes(im)))


def _quotient_rows(arrays, keep, new_id, start, names, final, vectors, **identity):
    """Step 4 on a generation engine's explored rows, straight into the
    proved quotient IR, with one remap of the rows that are left.

    ``arrays`` is the engine's :class:`~repro.core.pipeline._Arrays`; state
    ``i`` is its row ``keep[i]``, ``new_id[row]`` the state of a kept row
    and ``start`` the start state.  ``names``, ``final`` and ``vectors``
    are per state, and ``identity`` holds the IR's ``name``,
    ``parameters``, ``messages`` and ``describe``.  The engines intern each action
    sequence once, so sequence ids compare as their actions do and are
    the partition's output as they stand."""
    from repro.opt.indexed import IndexedMachine

    width = arrays.width
    targets, seqs = arrays.next_state, arrays.action_seq
    if len(keep) * width < len(targets):
        # Rows were pruned: the partition reads the kept ones, renumbered.
        offsets = _row_offsets(keep, width)
        targets = [targets[o] for o in offsets]
        targets = [new_id[t] if t >= 0 else -1 for t in targets]
        seqs = [seqs[o] for o in offsets]
    cls = coarsest_partition(width, targets, seqs, final)
    reps, fields = _merged_states(cls, names, final, (), vectors)
    target_of = [cls[s] if s >= 0 else -1 for s in new_id]
    rows = _remap_rows(arrays, list(arrays.seqs), [keep[r] for r in reps], target_of)
    quotient = IndexedMachine(**identity, start=cls[start], **fields, **rows)
    return _proved(quotient)


def _proved(quotient):
    """``quotient`` carrying the proof that it is a bisimulation quotient
    (its own arrays), so the optimizer's ``merge`` pass accepts it
    instead of refining it again."""
    return replace(quotient, _proof=quotient._quotient_arrays())


def _collapse(im, cls: Sequence[int]):
    """The quotient IR for a partition of ``im``'s states into classes.

    ``cls`` numbers classes by lowest member, so class ``c`` becomes
    state ``c`` and the quotient keeps the original order of first
    members (see the module docstring for names and annotations).
    """
    keep, fields = _merged_states(
        cls, im.state_names, im.final, im.state_annotations, im.state_vectors
    )
    rows = _remap_rows(im, _seq_key(im), keep, cls)
    return replace(im, start=cls[im.start], **fields, **rows)


def _merged_states(cls, names, final, notes, vectors) -> tuple[list[int], dict]:
    """The lowest member of each class of ``cls``, in class order, and the
    quotient's per-state fields as keywords, for states with ``names``,
    ``final``, annotations ``notes`` and ``vectors`` (either of those two
    may be empty).  A class of one state keeps that state's fields as
    they are; only the members of larger classes are walked."""
    # A dict keeps the last value stored under a key, so walking the
    # states from the last leaves each class's lowest member.
    lowest = dict(zip(reversed(cls), range(len(cls) - 1, -1, -1)))
    keep = sorted(lowest.values())
    state_names = [names[s] for s in keep]
    members = [(name,) for name in state_names]
    annotations = [notes[s] for s in keep] if notes else [()] * len(keep)
    if len(keep) < len(cls):
        groups: dict[int, list[int]] = {}
        for s in [s for s, c in enumerate(cls) if keep[c] != s]:
            groups.setdefault(cls[s], [keep[cls[s]]]).append(s)
        for c, group in groups.items():
            merged = tuple(sorted([names[s] for s in group]))
            members[c] = merged
            annotations[c] += (
                f"Represents {len(group)} equivalent states: " + ", ".join(merged),
            )
            if final[group[0]]:
                state_names[c] = FINISH_NAME
    kept_final = [final[s] for s in keep]
    return keep, {
        "state_names": tuple(state_names),
        "finish": kept_final.index(True) if True in kept_final else -1,
        "final": tuple(kept_final),
        "state_annotations": tuple(annotations),
        "state_vectors": tuple([vectors[s] for s in keep]) if vectors else (),
        "state_merged": tuple(members),
    }


def _remap_rows(arrays, seq_actions, keep, target_of) -> dict:
    """Rows ``keep`` of ``arrays`` (an IR, or anything with its
    ``next_state``/``action_seq``/``transition_annotations`` and
    ``width``), targets rewritten through ``target_of``, and the action
    pools rebuilt from those rows alone in order of first use (the pools
    :meth:`~repro.opt.indexed.IndexedMachine.from_machine` would intern);
    ``seq_actions[i]`` is the action-string tuple of sequence id ``i``.
    Returns the matching :class:`~repro.opt.indexed.IndexedMachine`
    fields as keywords."""
    width, notes = arrays.width, arrays.transition_annotations
    next_state, action_seq = arrays.next_state, arrays.action_seq
    offsets = _row_offsets(keep, width)
    seqs = [action_seq[o] for o in offsets]
    pool: dict[tuple[int, ...], int] = {(): 0}
    actions: dict[str, int] = {}
    seq_id = {-1: -1}
    for seq in dict.fromkeys(seqs):
        if seq >= 0:
            ids = tuple(actions.setdefault(a, len(actions)) for a in seq_actions[seq])
            seq_id[seq] = pool.setdefault(ids, len(pool))
    return {
        "next_state": tuple(
            [target_of[t] if t >= 0 else -1 for t in [next_state[o] for o in offsets]]
        ),
        "action_seq": tuple([seq_id[seq] for seq in seqs]),
        "action_seqs": tuple(pool),
        "actions": tuple(actions),
        "transition_annotations": {
            new: note
            for new, note in enumerate(map(notes.get, offsets))
            if note is not None
        },
    }


def _row_offsets(rows, width: int) -> list[int]:
    """The flat offsets of ``rows`` of a row-major array, row by row."""
    columns = range(width)
    return [start + c for start in [row * width for row in rows] for c in columns]
