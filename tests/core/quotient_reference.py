"""The object quotient step 4 built before it ran on arrays, kept as an oracle.

This is the ``_quotient`` the generator ran while machines were object
graphs: it walks ``State``/``Transition`` objects and builds a fresh
``StateMachine`` state by state.  The library now remaps the arrays of an
``IndexedMachine`` instead (``repro.core.minimize._quotient``); this module
imports nothing from ``repro.core.minimize`` on purpose, so agreement
between the two is evidence about the construction, not about shared code.

Given a partition of a machine's states into classes (in insertion order
of their first member, members in insertion order), each class becomes one
state named after its first member (``FINISHED`` for a class of several
final states), keeping that member's vector, annotations and transitions
(retargeted to the representatives), recording the sorted member names,
and annotated "Represents N equivalent states: ..." when it has more than
one member.  The first final class is the finish state.
"""

from __future__ import annotations

from repro.core.machine import StateMachine
from repro.core.state import State, Transition

FINISH_NAME = "FINISHED"


def reference_quotient(machine: StateMachine, classes) -> StateMachine:
    """The quotient machine for ``classes``, a partition of ``machine``'s
    states given as lists of ``State`` objects."""
    representative: dict[str, str] = {}
    for group in classes:
        name = class_name(group)
        for member in group:
            representative[member.name] = name

    merged = StateMachine(
        machine.messages,
        space=machine.space,
        name=machine.name,
        parameters=machine.parameters,
    )

    finish_name = None
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
        if leader.final:
            continue
        merged.get_state(representative[leader.name]).replace_transitions(
            Transition(
                t.message,
                representative[t.target_name],
                t.actions,
                t.annotations,
            )
            for t in leader.transitions
        )

    merged.set_start(representative[machine.start_state.name])
    if finish_name is not None:
        merged.set_finish(finish_name)
    merged.check_integrity()
    return merged


def class_name(group) -> str:
    """Name for a merged class: FINISHED for final classes, else the leader."""
    if len(group) > 1 and all(member.final for member in group):
        return FINISH_NAME
    return group[0].name


def dump(machine: StateMachine) -> tuple:
    """Everything a machine says, in order: an exact-equality key."""
    finish = machine.finish_state
    return (
        machine.name,
        machine.messages,
        machine.start_state.name,
        finish.name if finish is not None else None,
        [
            (
                state.name,
                state.final,
                state.vector,
                state.annotations,
                state.merged_names,
                [
                    (t.message, t.target_name, t.actions, t.annotations)
                    for t in state.transitions
                ],
            )
            for state in machine.states
        ],
    )
