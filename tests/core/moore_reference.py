"""Moore's signature fixpoint, kept as the oracle for ``coarsest_partition``.

This is the loop the library ran for step 4 before the Hopcroft kernel
replaced it, in its int-array form.  It imports nothing from
``repro.core.minimize`` on purpose: the two share no code, so agreement
between them is evidence about the relation, not about a shared bug.

Every round re-derives every state's signature ``(own class, per accepted
message (column, output, class of the target))`` and renumbers; it stops
when a round changes nothing.  O(rounds · w · n), and the number of rounds
is the length of the longest chain of merges that enable one another — up
to ``n``.
"""

from __future__ import annotations


def moore_partition(width, next_state, output, final) -> list[int]:
    """Class id per state; same arguments as ``coarsest_partition``."""
    n = len(final)
    cls = [1 if f else 0 for f in final]
    while True:
        signatures: dict[tuple, int] = {}
        refined = [0] * n
        for i in range(n):
            row = i * width
            outgoing = tuple(
                (col, output[row + col], cls[next_state[row + col]])
                for col in range(width)
                if next_state[row + col] >= 0
            )
            refined[i] = signatures.setdefault((cls[i], outgoing), len(signatures))
        if refined == cls:
            return cls
        cls = refined


def blocks(cls) -> set[frozenset[int]]:
    """A class-id list as the set of its classes, forgetting the numbering."""
    members: dict[int, set[int]] = {}
    for state, c in enumerate(cls):
        members.setdefault(c, set()).add(state)
    return {frozenset(group) for group in members.values()}
