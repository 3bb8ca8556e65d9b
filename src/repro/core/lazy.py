"""Lazy frontier-based generation engine: on-the-fly reachable-set construction.

The eager pipeline (:mod:`repro.core.pipeline`) follows the paper's §3.4
literally: enumerate the full component product space (``2^5 r^2`` states
for the commit model), attach transitions everywhere, then prune the vast
unreachable majority.  That is faithful but asymptotically wasteful — at
r=4 only 48 of 512 states survive pruning, and the ratio worsens
quadratically with the replication factor, capping the parameter range
that can be explored.

``generate_lazy(model)`` instead starts from the model's start state and
expands **only reachable states**, breadth first:

1. the start vector is state id 0;
2. the next unexpanded id's successors are elaborated on demand
   (:meth:`~repro.core.model.Elaborator.successors`, the eager engine's
   memoised per-message logic, so the engines cannot diverge) into its
   row of the same arrays the eager engine fills;
3. each target vector is interned to an id on first sight, so every state
   is discovered once whatever its fan-in; ids follow discovery order, so
   the frontier is simply the ids not yet expanded;
4. once every id is expanded, every state is reachable by construction —
   step 3 disappears — and the engines' shared tail (step 4 and names
   for the states that are left) finishes the job.

Work and memory are proportional to the *reachable* state count (roughly
linear in ``r`` for the commit family) instead of the product-space size
(quadratic in ``r``), which opens replication factors far beyond what the
eager engine can touch.  The returned machine is isomorphic to the eager
result with identical merged state counts; the
:class:`~repro.core.pipeline.GenerationReport` records ``engine="lazy"``
and the peak frontier size actually observed.
"""

from __future__ import annotations

import time

from repro.core.machine import StateMachine
from repro.core.model import AbstractModel
from repro.core.pipeline import GenerationReport, _finish, _model_arrays


def generate_lazy(
    model: AbstractModel, *, merge: bool = True
) -> tuple[StateMachine, GenerationReport]:
    """Generate ``model``'s machine by frontier expansion from the start state.

    Drop-in replacement for :func:`repro.core.pipeline.generate`: returns
    the same ``(StateMachine, GenerationReport)`` pair, with the report's
    ``initial_states`` computed arithmetically (the product space is never
    materialised), ``engine`` set to ``"lazy"`` and ``frontier_peak``
    recording the worklist's high-water mark.  ``merge`` switches the
    bisimulation quotient off for inspection of the raw reachable machine.
    """
    report = GenerationReport(model.machine_name(), model.parameters, engine="lazy")
    report.initial_states = model.space.size()
    arrays = _model_arrays(model)

    started = time.perf_counter()
    vectors: list[tuple] = []
    final: list[bool] = []
    ids: dict[tuple, int] = {}

    def discover(vector: tuple) -> int:
        state = ids.get(vector)
        if state is None:
            state = ids[vector] = len(vectors)
            vectors.append(vector)
            final.append(arrays.hooks.is_final(vector))
        return state

    discover(tuple(model.start_vector()))
    frontier_peak = expanded = 0
    while expanded < len(vectors):
        frontier_peak = max(frontier_peak, len(vectors) - expanded)
        arrays.add_row(vectors[expanded], final[expanded], discover)
        expanded += 1

    report.frontier_peak = frontier_peak
    report.timings["explore"] = time.perf_counter() - started
    return _finish(model, report, vectors, final, arrays, 0, range(len(vectors)), merge)
