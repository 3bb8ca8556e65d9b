"""Lazy frontier-based generation engine: on-the-fly reachable-set construction.

The eager pipeline (:mod:`repro.core.pipeline`) follows the paper's §3.4
literally: enumerate the full component product space (``2^5 r^2`` states
for the commit model), attach transitions everywhere, then prune the vast
unreachable majority.  That is faithful but asymptotically wasteful — at
r=4 only 48 of 512 states survive pruning, and the ratio worsens
quadratically with the replication factor, capping the parameter range
that can be explored.

``generate_lazy(model)`` instead starts from the model's start state and
expands **only reachable states** via a BFS worklist:

1. seed the frontier with the start vector;
2. pop a vector, elaborate its successors on demand
   (:meth:`~repro.core.model.AbstractModel.successors` — the same
   per-message transition logic the eager engine uses, so the two engines
   cannot diverge semantically);
3. intern each target vector on the model's state space
   (:meth:`~repro.core.components.StateSpace.intern`) so every state is
   discovered exactly once regardless of fan-in, and push unseen targets;
4. when the frontier drains, every state in the machine is reachable by
   construction — the pipeline's ``initial -> reachable`` pruning step
   disappears entirely — and the standard bisimulation quotient
   (:func:`~repro.core.minimize.merge_equivalent`) finishes the job.

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
from collections import deque

from repro.core.machine import StateMachine
from repro.core.minimize import merge_equivalent
from repro.core.model import AbstractModel, StateView
from repro.core.pipeline import GenerationReport, _annotate_states, _designate_finish
from repro.core.state import State, Transition


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
    space = model.space
    report.initial_states = space.size()

    started = time.perf_counter()
    machine = StateMachine(
        model.messages,
        space=space,
        name=model.machine_name(),
        parameters=model.parameters,
    )

    #: Every reachable vector's state, named once on discovery (vectors
    #: are interned, so later sightings are an identity-fast dict hit).
    discovered: dict[tuple, State] = {}

    def discover(vector: tuple) -> State:
        final = model.is_final(StateView(space, vector))
        state = discovered[vector] = machine.add_state(
            State(space.vector_name(vector), vector=vector, final=final)
        )
        return state

    start_vector = space.intern(model.start_vector())
    machine.set_start(discover(start_vector).name)

    frontier: deque[tuple] = deque([start_vector])
    frontier_peak = 1

    while frontier:
        if len(frontier) > frontier_peak:
            frontier_peak = len(frontier)
        vector = frontier.popleft()
        state = discovered[vector]
        if state.final:
            continue  # terminal: the algorithm has completed here
        for message, builder in model.successors(vector):
            target = space.intern(builder.vector)
            reached = discovered.get(target)
            if reached is None:
                reached = discover(target)
                frontier.append(target)
            state.record_transition(
                Transition(
                    message,
                    reached.name,
                    builder.actions,
                    builder.recorded_annotations,
                )
            )

    report.reachable_states = len(machine)
    report.transition_count = machine.transition_count()
    report.frontier_peak = frontier_peak
    report.timings["explore"] = time.perf_counter() - started

    _designate_finish(machine)
    _annotate_states(model, machine)

    if merge:
        started = time.perf_counter()
        machine = merge_equivalent(machine)
        report.timings["merge"] = time.perf_counter() - started
    report.merged_states = len(machine)

    machine.check_integrity()
    return machine, report
