"""The per-round-array occurrence split, kept as the oracle for
:class:`~repro.serve.vector.VectorSchedule`.

This is the function the library ran at encode time before the schedule
became two round-ordered columns: it scatters occurrence ranks back to
arrival order through per-slot counts and materialises one
``(slots, cols)`` array pair per round.  It imports nothing from
``repro.serve.vector`` on purpose: the two share no code, so agreement
between them is evidence about the round structure, not about a shared
bug.
"""

from __future__ import annotations

import numpy as np

_RADIX_LIMIT = 1 << 16


def occurrence_rounds(slots, cols) -> list:
    """``[(slots_r, cols_r), ...]`` — round *r* holds every slot's *r*-th
    event of the batch, in arrival order."""
    n = len(slots)
    if n == 0:
        return []
    top = int(slots.max()) + 1
    counts = np.bincount(slots, minlength=top)
    if int(counts.max()) <= 1:
        return [(slots, cols)]
    # Occurrence index of each event among its slot's events: stable-sort
    # by slot, then each event's rank inside its (contiguous) slot group
    # is its position minus the group's start, scattered back to arrival
    # order.  Group starts come from the exclusive prefix sum of the
    # per-slot counts — no comparisons, no accumulate scan.
    sort_key = slots.astype(np.uint16) if top <= _RADIX_LIMIT else slots
    order = np.argsort(sort_key, kind="stable")
    positions = np.arange(n, dtype=np.int64)
    group_starts = np.repeat(np.cumsum(counts) - counts, counts)
    occurrence = np.empty(n, dtype=np.int64)
    occurrence[order] = positions - group_starts
    # Regroup by occurrence round, preserving arrival order within each.
    rounds_total = int(occurrence.max()) + 1
    occ_key = (
        occurrence.astype(np.uint16) if rounds_total <= _RADIX_LIMIT else occurrence
    )
    by_round = np.argsort(occ_key, kind="stable")
    bounds = np.cumsum(np.bincount(occurrence, minlength=rounds_total))
    rounds = []
    start = 0
    for end in bounds:
        end = int(end)
        picked = by_round[start:end]
        rounds.append((slots[picked], cols[picked]))
        start = end
    return rounds
