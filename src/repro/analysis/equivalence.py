"""Deciding whether two machines behave the same, from their start states.

Step 4 (paper §3.4) merges states that behave the same, and every later
representation — an optimised IR, the XML artefact, the flattened
hierarchy, the generated class, a fleet's dispatch table — claims the
machine it came from.  For finite deterministic machines that claim is
decidable: :func:`equivalent` runs a breadth-first search over pairs of
states, from the two start states.  Two states match when they agree on
finality and, for every message of either alphabet, on accepting it, on
the action names performed (``->`` markers stripped, as executors log
them) and, through the search, on the pair of targets.

Isomorphism is "equivalent, with one-to-one pairs"
(:attr:`Equivalence.one_to_one`): the reachable parts are the same
machine up to renaming, and with equal names where every pair is
``(name, name)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from repro.core.machine import StateMachine
from repro.core.state import strip_action_prefix
from repro.opt.indexed import IndexedMachine

#: What :func:`equivalent` reads: a machine, or the IR it is a view over.
Machine = Union[StateMachine, IndexedMachine]


@dataclass(frozen=True)
class Equivalence:
    """The verdict of :func:`equivalent`; truthy iff the machines agree.

    When they agree, ``pairs`` lists every reachable ``(left state, right
    state)`` pair, in search order.  When they differ, ``trace`` is a
    shortest message sequence that tells them apart, ``at`` the pair of
    states it ends in with the message that differs there (``None`` when
    finality differs) and ``difference`` what differs.
    """

    pairs: tuple[tuple[str, str], ...] = ()
    trace: Optional[tuple[str, ...]] = None
    at: Optional[tuple[str, str, Optional[str]]] = None
    difference: str = ""

    def __bool__(self) -> bool:
        return self.trace is None

    @property
    def one_to_one(self) -> bool:
        """Equivalent, and each state pairs with exactly one other."""
        lefts = {left for left, _ in self.pairs}
        rights = {right for _, right in self.pairs}
        return bool(self) and len(self.pairs) == len(lefts) == len(rights)

    def __str__(self) -> str:
        if self:
            return f"equivalent: {len(self.pairs)} reachable pairs"
        return (
            f"machines differ after {list(self.trace)} at {self.at}: "
            f"{self.difference}"
        )


class _Table(NamedTuple):
    messages: tuple[str, ...]
    names: tuple[str, ...]
    start: int
    final: tuple[bool, ...]
    #: Per state: message -> (target id, action names).
    moves: list[dict[str, tuple[int, tuple[str, ...]]]]


def _table(machine: Machine) -> _Table:
    """Read the arrays of an IR, or of the IR a generated machine carries,
    and a hand-built machine's own objects: nothing is interned, so a
    fault in interning shows on one side instead of on both."""
    im = machine if isinstance(machine, IndexedMachine) else machine._ir
    if im is None:
        machine.check_integrity()
        states = machine.states
        ids = {state.name: i for i, state in enumerate(states)}
        return _Table(
            machine.messages,
            tuple(ids),
            ids[machine.start_state.name],
            tuple(state.final for state in states),
            [
                {t.message: (ids[t.target_name], t.action_names) for t in s.transitions}
                for s in states
            ],
        )
    width = im.width
    performs = [
        tuple(strip_action_prefix(im.actions[a]) for a in seq) for seq in im.action_seqs
    ]
    moves = [
        {
            message: (im.next_state[offset], performs[im.action_seq[offset]])
            for message, offset in zip(im.messages, range(row, row + width))
            if im.next_state[offset] >= 0
        }
        for row in range(0, len(im.next_state), width)
    ]
    return _Table(im.messages, im.state_names, im.start, im.final, moves)


def equivalent(a: Machine, b: Machine) -> Equivalence:
    """Decide whether ``a`` and ``b`` behave the same from their start states.

    Each pair is checked as it is found, and pairs are found in order of
    the length of the message sequence that reaches them, so the first
    difference comes with a shortest distinguishing trace.
    """
    left, right = _table(a), _table(b)
    messages = tuple(dict.fromkeys(left.messages + right.messages))
    #: pair -> (the pair it was reached from, message), for the trace.
    reached: dict[tuple[int, int], Optional[tuple]] = {}

    def differ(pair, message, difference) -> Equivalence:
        trace = [] if message is None else [message]
        step = reached.get(pair)
        while step is not None:
            pair_before, step_message = step
            trace.append(step_message)
            step = reached[pair_before]
        p, q = pair
        return Equivalence(
            trace=tuple(reversed(trace)),
            at=(left.names[p], right.names[q], message),
            difference=difference,
        )

    def visit(pair, via) -> Optional[Equivalence]:
        reached[pair] = via
        p, q = pair
        if left.final[p] != right.final[q]:
            return differ(pair, None, f"final {left.final[p]} vs {right.final[q]}")
        queue.append(pair)
        return None

    queue: deque[tuple[int, int]] = deque()
    if (found := visit((left.start, right.start), None)) is not None:
        return found
    while queue:
        pair = queue.popleft()
        here, there = left.moves[pair[0]], right.moves[pair[1]]
        for message in messages:
            x, y = here.get(message), there.get(message)
            if x is None or y is None:
                if x is not y:
                    side = "left" if y is None else "right"
                    return differ(pair, message, f"accepted by the {side} only")
                continue
            if x[1] != y[1]:
                return differ(pair, message, f"actions {x[1]} vs {y[1]}")
            target = (x[0], y[0])
            if target in reached:
                continue
            if (found := visit(target, (pair, message))) is not None:
                return found
    return Equivalence(tuple((left.names[p], right.names[q]) for p, q in reached))
