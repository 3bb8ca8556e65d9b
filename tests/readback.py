"""Machines read back from executors, and the exhaustive check between two.

An executor with no table to read (the hierarchical simulator, a
generated class's instance) is read back as the machine it behaves as,
one ``set_state``/``receive`` step per (reached state, message);
:func:`repro.analysis.equivalent` then decides it against the machine it
claims to run.
"""

from repro.analysis import equivalent
from repro.core.machine import StateMachine
from repro.core.state import State, Transition


def check(a, b) -> set:
    """The reachable state pairs of two equivalent machines; fails naming
    a shortest message sequence that tells them apart."""
    verdict = equivalent(a, b)
    assert verdict, str(verdict)
    return set(verdict.pairs)


def same_names(machine) -> set:
    """The pairs :func:`check` finds between ``machine`` and a faithful copy."""
    return {(name, name) for name in machine.state_names()}


def read_executor(executor, messages) -> StateMachine:
    """What ``executor`` does from its reset state, as a machine."""
    executor.reset()
    start = executor.get_state()
    read = StateMachine(messages, name="read")
    todo, seen = [start], {start}
    while todo:
        name = todo.pop()
        executor.set_state(name)
        state = read.add_state(State(name, final=executor.is_finished()))
        for message in messages:
            executor.set_state(name)
            before = len(executor.sent)
            if executor.receive(message):
                target = executor.get_state()
                performed = executor.sent[before:]
                state.record_transition(Transition(message, target, performed))
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
    read.set_start(start)
    return read
