"""A reference resolution of hierarchical firings, kept as the oracle for
``HierarchicalModel.flatten``.

The simulator and both flatten engines resolve a firing through the same
two methods, ``HierarchicalModel.effective_transitions`` and
``HierarchicalModel.fire``, so a fault there is the same fault on both
sides of a simulator-versus-flattened check.  This module reads only the
tree (``parent``, ``children``, ``initial_child``, the declared
transitions, entry and exit actions, ``final``) and calls none of those
methods, nor ``path``, ``flat_name`` or ``initial_leaf``: it restates the
semantics of the ``repro.core.hsm`` docstring with root-to-node chains.

A firing of the transition ``owner`` declares, from leaf ``L`` to target
``T``, is scoped by the longest common prefix of the chains of ``owner``
and ``T`` without their last nodes (the least common proper ancestor is
that prefix's last node).  Every node of ``L``'s chain below the scope
exits, innermost first; the transition's actions run; then every node of
the entered leaf's chain below the scope enters, outermost first.  With
no scope the whole tree, root included, exits and re-enters.
"""

from __future__ import annotations

from repro.core.machine import StateMachine
from repro.core.state import State, Transition


def chain(node) -> list:
    """The nodes from the root down to ``node``."""
    nodes = []
    while node is not None:
        nodes.insert(0, node)
        node = node.parent
    return nodes


def entered_leaf(node):
    """The leaf entering ``node`` ends at: initial children all the way."""
    while getattr(node, "children", None):
        node = node.initial_child
    return node


def handler(leaf, message):
    """``(owner, transition)`` that handles ``message`` in ``leaf``: the
    innermost node of its chain that declares one, or ``None``."""
    if leaf.final:
        return None
    for node in reversed(chain(leaf)):
        if message in node.transitions:
            return node, node.transitions[message]
    return None


def resolve(model, leaf, owner, transition):
    """``(entered leaf, actions)`` of one firing."""
    target = next(n for n in _nodes(model.root) if n.name == transition.target)
    inner, outer = chain(owner)[:-1], chain(target)[:-1]
    depth = 0  # the number of nodes above and including the scope
    while depth < min(len(inner), len(outer)) and inner[depth] is outer[depth]:
        depth += 1
    entered = entered_leaf(target)
    actions = [a for node in reversed(chain(leaf)[depth:]) for a in node.exit_actions]
    actions += transition.actions
    actions += [a for node in chain(entered)[depth:] for a in node.entry_actions]
    return entered, tuple(actions)


def reference_flatten(model) -> StateMachine:
    """The reachable flat machine of ``model``, resolved by this module."""
    messages = model.messages()
    machine = StateMachine(messages, name=model.name)

    def name(leaf) -> str:
        return ".".join(node.name for node in chain(leaf)[1:])

    start = entered_leaf(model.root)
    frontier, seen = [start], {name(start)}
    machine.add_state(State(name(start), final=start.final))
    while frontier:
        leaf = frontier.pop(0)
        for message in messages:
            handled = handler(leaf, message)
            if handled is None:
                continue
            target, actions = resolve(model, leaf, *handled)
            if name(target) not in seen:
                seen.add(name(target))
                machine.add_state(State(name(target), final=target.final))
                frontier.append(target)
            machine.get_state(name(leaf)).record_transition(
                Transition(message, name(target), actions)
            )
    machine.set_start(name(start))
    return machine


def _nodes(node):
    yield node
    for child in getattr(node, "children", {}).values():
        yield from _nodes(child)
