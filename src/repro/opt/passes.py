"""Optimization passes over the :class:`~repro.opt.indexed.IndexedMachine` IR.

Each pass is a pure function from one IR instance to a new one, paired
with a *state mapping* (old id -> new id, or ``None`` for a state the
pass removed).  The pipeline composes the mappings into a name-level
``state_map`` so differential harnesses can compare optimized traces
against unoptimized replays: action logs must match exactly, state names
modulo the map.

Shipped passes (see :data:`~repro.opt.pipeline.PASSES` for the registry):

* :class:`PruneUnreachablePass` — drop states unreachable from the start
  state, with the array walk (:func:`repro.core.pipeline._reachable`)
  the generator and the HSM flattener run as their step 3.
* :class:`MergeEquivalentPass` — equivalent-state merging: the IR's
  arrays handed to :func:`repro.core.minimize.coarsest_partition`, the
  Hopcroft partition refinement generator step 4 also runs (initial
  partition by finality and per-message action sequence, predecessor
  lists per message, block splitters re-queued by the smaller-half
  rule, O(w·n·log n); that module's docstring has the details and why
  the classes do not depend on the algorithm).  This is the pass that
  claws back hierarchical-flattening blow-up: flattening copies
  inherited transitions into every leaf and routinely leaves
  behaviourally identical leaves behind.  An IR that step 4 or this
  pass made a quotient carries the proof (its own array objects); while
  every array still ``is`` the recorded one, the pass returns the IR and
  the identity mapping without refining it again.  Flattened HSMs,
  ``merge=False`` output and hand-built or parsed machines carry no
  proof and are refined.
* :class:`DeadActionEliminationPass` — compact the interned action and
  action-sequence pools: sequences no transition references (typically
  orphaned by pruning/merging) and duplicate sequences disappear.
* :class:`HotStateRenumberPass` — most-visited states get the lowest
  ids, so a dense-array dispatch loop touches the low, cache-warm end of
  the arrays for the bulk of its traffic.  "Most visited" comes from an
  observed visit-count profile when one is supplied, otherwise from a
  static in-degree estimate (start state counted as permanently hot).

The passes that move states share :func:`_rebuild`, which writes each
array of the new IR with one comprehension over the kept rows' offsets.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.minimize import _classes, _row_offsets
from repro.opt.indexed import IndexedMachine

#: Mapping produced by a pass: old state id -> new state id (None = removed).
StateMapping = dict[int, Optional[int]]


def _identity_mapping(im: IndexedMachine) -> StateMapping:
    return {i: i for i in range(len(im.state_names))}


def _rebuild(im: IndexedMachine, keep: list[int], target_of) -> IndexedMachine:
    """New IR keeping old state ids ``keep`` (in new-id order).

    ``target_of[old_target_id]`` is the new id of every target a kept
    row names; action pools are carried over untouched (compaction is
    its own pass), and so is the model's describer.  Each array is one
    comprehension over the kept rows' offsets.
    """
    offsets = _row_offsets(keep, len(im.messages))
    next_state, action_seq = im.next_state, im.action_seq
    notes = im.transition_annotations
    finish = -1
    if im.finish >= 0:
        try:
            finish = target_of[im.finish]
        except KeyError:
            finish = -1  # the finish state itself was removed
    return IndexedMachine(
        name=im.name,
        parameters=im.parameters,
        messages=im.messages,
        state_names=tuple([im.state_names[i] for i in keep]),
        next_state=tuple(
            [target_of[t] if t >= 0 else -1 for t in [next_state[o] for o in offsets]]
        ),
        action_seq=tuple([action_seq[o] for o in offsets]),
        action_seqs=im.action_seqs,
        actions=im.actions,
        start=target_of[im.start],
        finish=finish,
        final=tuple([im.final[i] for i in keep]),
        state_annotations=_kept(im.state_annotations, keep),
        state_vectors=_kept(im.state_vectors, keep),
        state_merged=_kept(im.state_merged, keep),
        transition_annotations={
            new: note
            for new, note in enumerate(map(notes.get, offsets))
            if note is not None
        },
        describe=im.describe,
    )


def _kept(sidecar: tuple, keep: list[int]) -> tuple:
    """Entries ``keep`` of a per-state sidecar; an absent one stays empty."""
    return tuple([sidecar[i] for i in keep]) if sidecar else ()


class PruneUnreachablePass:
    """Drop every state unreachable from the start state."""

    name = "prune"

    def run(self, im: IndexedMachine) -> tuple[IndexedMachine, StateMapping]:
        reachable = im.reachable_ids()
        if len(reachable) == len(im.state_names):
            return im, _identity_mapping(im)
        keep = [i for i in range(len(im.state_names)) if i in reachable]
        new_id = {old: new for new, old in enumerate(keep)}
        mapping: StateMapping = {i: new_id.get(i) for i in range(len(im.state_names))}
        return _rebuild(im, keep, new_id), mapping


class MergeEquivalentPass:
    """Collapse behaviourally equivalent states via partition refinement.

    Two states are equivalent iff they agree on finality and, per
    message, either both lack a transition or both have transitions with
    the same action sequence into equivalent states — the relation
    :func:`repro.core.minimize.equivalence_classes` computes on the name
    graph, from the same kernel
    (:func:`repro.core.minimize.coarsest_partition`), fed here with the
    IR's own arrays.  Classes keep the name of their lowest-id member,
    and the mapping records every member -> that representative.

    A quotient is already its coarsest partition: an IR whose arrays
    are the very objects its proof recorded is returned as it is, and
    the merged IR this pass returns records its own proof.
    """

    name = "merge"

    def run(self, im: IndexedMachine) -> tuple[IndexedMachine, StateMapping]:
        n = len(im.state_names)
        proof = im._proof
        if proof is not None and all(
            a is b for a, b in zip(proof, im._quotient_arrays())
        ):
            return im, _identity_mapping(im)
        # Sequences compare by their action strings, so duplicate pool
        # entries (legal in hand-built IRs) still compare equal.
        cls = _classes(im)

        # Class ids are dense and numbered by lowest member, so class c
        # is new state c, kept under the name of its lowest member:
        # surviving states keep their original relative order (and the
        # start state stays first when it was).
        groups: list[list[int]] = [[] for _ in set(cls)]
        for i, c in enumerate(cls):
            groups[c].append(i)
        if len(groups) == n:
            return im, _identity_mapping(im)
        keep = [group[0] for group in groups]
        merged = _record_merges(_rebuild(im, keep, cls), im, groups)
        # Merged by the coarsest partition, the result is a quotient.
        merged = replace(merged, _proof=merged._quotient_arrays())
        return merged, dict(enumerate(cls))


def _record_merges(
    merged: IndexedMachine, original: IndexedMachine, groups: list[list[int]]
) -> IndexedMachine:
    """Fold member names/annotations of multi-state classes into sidecars;
    ``groups[i]`` lists the original ids merged into new state ``i``."""
    state_merged = list(merged.state_merged) or [()] * len(merged.state_names)
    state_annotations = list(merged.state_annotations) or [()] * len(
        merged.state_names
    )
    for rep, group in enumerate(groups):
        if len(group) < 2:
            continue
        names: set[str] = set()
        for member in group:
            names.add(original.state_names[member])
            if original.state_merged:
                names.update(original.state_merged[member])
        state_merged[rep] = tuple(sorted(names))
        state_annotations[rep] = state_annotations[rep] + (
            f"Represents {len(group)} equivalent states: "
            + ", ".join(sorted(original.state_names[m] for m in group)),
        )
    return replace(
        merged,
        state_merged=tuple(state_merged),
        state_annotations=tuple(state_annotations),
    )


class DeadActionEliminationPass:
    """Compact the action pools: drop dead entries, fold duplicates.

    Pruning and merging remove transitions but leave the interned pools
    untouched, so sequences (and the action strings only they used) can
    become garbage; hand-built IRs may also carry duplicate sequence
    entries.  This pass rebuilds both pools from the live transitions.
    States are untouched — the mapping is always the identity.
    """

    name = "dead-actions"

    def run(self, im: IndexedMachine) -> tuple[IndexedMachine, StateMapping]:
        seq_pool: dict[tuple[int, ...], int] = {(): 0}
        action_pool: dict[str, int] = {}
        new_seq_id: dict[int, int] = {}
        action_seq = list(im.action_seq)
        for offset, old_seq in enumerate(im.action_seq):
            if old_seq < 0:
                continue
            mapped = new_seq_id.get(old_seq)
            if mapped is None:
                names = tuple(im.actions[a] for a in im.action_seqs[old_seq])
                ids = tuple(action_pool.setdefault(a, len(action_pool)) for a in names)
                mapped = seq_pool.setdefault(ids, len(seq_pool))
                new_seq_id[old_seq] = mapped
            action_seq[offset] = mapped
        if len(seq_pool) == len(im.action_seqs) and len(action_pool) == len(im.actions):
            return im, _identity_mapping(im)
        compacted = replace(
            im,
            action_seq=tuple(action_seq),
            action_seqs=tuple(sorted(seq_pool, key=seq_pool.__getitem__)),
            actions=tuple(sorted(action_pool, key=action_pool.__getitem__)),
        )
        return compacted, _identity_mapping(im)


class HotStateRenumberPass:
    """Renumber states so the hottest ones get the lowest ids.

    ``profile`` maps state names to observed visit counts (e.g. from a
    fleet's traffic) and is trusted as given; without one the pass falls
    back to transition in-degree, with the start state pinned hottest
    (every instance is born there, and auto-recycling returns them to it
    — facts in-degree alone cannot see, but an observed profile already
    reflects).  Names, traces and behaviour are untouched — only the id
    order (and therefore the dense-array layout every downstream backend
    indexes) changes.
    """

    name = "renumber"

    def __init__(self, profile: Optional[dict[str, int]] = None):
        self._profile = dict(profile) if profile else None

    def run(self, im: IndexedMachine) -> tuple[IndexedMachine, StateMapping]:
        n = len(im.state_names)
        if self._profile is not None:
            score = [self._profile.get(name, 0) for name in im.state_names]
        else:
            score = [0] * n
            for target in im.next_state:
                if target >= 0:
                    score[target] += 1
            # Start is hottest by construction; ties keep id order.
            score[im.start] = max(score) + 1
        # A stable sort keeps id order among equal scores, reversed too.
        keep = sorted(range(n), key=score.__getitem__, reverse=True)
        if keep == list(range(n)):
            return im, _identity_mapping(im)
        new_id = {old: new for new, old in enumerate(keep)}
        mapping: StateMapping = dict(new_id)
        return _rebuild(im, keep, new_id), mapping
