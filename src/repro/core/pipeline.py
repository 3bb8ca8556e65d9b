"""The four-step state machine generation pipeline (paper §3.4).

``generate(model)`` executes:

1. **Generate possible states** — enumerate the full component product
   space (``2^5 r^2`` = 512 states for the commit model at r=4, Fig 7).
2. **Generate transitions** — run the model's per-message transition logic
   from every non-final state, recording actions and annotations (Fig 11).
   Each handler runs once per distinct sequence of values it reads, and
   states that share the sequence reuse its outcome
   (:class:`~repro.core.model.Elaborator`).
3. **Prune unreachable states** — keep only states reachable from the start
   state (512 → 48 for r=4, Fig 12).
4. **Combine equivalent states** — bisimulation quotient (48 → 33, Fig 13).

Both engines (this one and :mod:`repro.core.lazy`) intern each vector to
a state id and write step 2 straight into row-major arrays.  Their shared
tail (``_finish``) names the states step 3 leaves, spelled from the state
space's per-component tables, and runs step 4 on those explored rows
directly: the partition reads the arrays as they stand (renumbered only
when step 3 removed rows), and one remap writes the representatives' rows
into the quotient :class:`~repro.opt.indexed.IndexedMachine`, with no
intermediate IR.  The machine returned is a
:class:`~repro.core.machine.StateMachine` view over it.

The model's Fig 14 commentary is not part of generation.  The IR carries
the model's :class:`~repro.core.model.Describer` beside the state
vectors, every pass carries both, and the commentary is computed when a
machine's ``State`` objects are built (:meth:`StateMachine._objects`),
each state's lines before the notes the IR stores ("Represents N
equivalent states").  Optimising, rendering source and compiling read
the arrays only, so model → code writes no prose.

The returned :class:`GenerationReport` records the state counts after each
step together with wall-clock timings, which is exactly the data behind the
paper's Table 1.  The timings cover the whole engine: ``finish`` is the
tail outside step 4 (names, the IR, the one validation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.errors import MachineStructureError
from repro.core.machine import StateMachine
from repro.core.minimize import _quotient_rows, _remap_rows
from repro.core.model import AbstractModel, Describer, Elaborator

#: The generation engines selectable via ``engine=`` / ``--engine``.
ENGINES = ("eager", "lazy")


@dataclass
class GenerationReport:
    """Counts and timings from one run of the generation pipeline.

    ``initial_states`` / ``reachable_states`` / ``merged_states`` correspond
    to the "initial states" and "final states" columns of the paper's
    Table 1 (with the intermediate post-pruning count of Fig 12).
    """

    model_name: str
    parameters: dict
    initial_states: int = 0
    transition_count: int = 0
    reachable_states: int = 0
    merged_states: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    #: Which engine produced the machine: ``"eager"`` (four-step pipeline)
    #: or ``"lazy"`` (frontier-based on-the-fly construction).
    engine: str = "eager"
    #: Handler runs (``generate_transition`` calls) step 2 took: one per
    #: distinct read path per message, not one per (state, message) pair.
    elaborations: int = 0
    #: Largest worklist size observed by the lazy engine (0 for eager runs);
    #: with the seen-set, this bounds the engine's peak working memory.
    frontier_peak: int = 0
    #: :class:`repro.opt.PassReport` when generation ran an ``optimize=``
    #: pipeline (``None`` otherwise); its ``state_map`` relates optimized
    #: state names back to the generated ones.
    opt_report: object = None

    @property
    def total_time(self) -> float:
        """Total generation wall-clock time in seconds (Table 1, last column)."""
        return sum(self.timings.values())

    def table1_row(self) -> dict:
        """The paper's Table 1 row for this generation run."""
        return {
            "parameters": dict(self.parameters),
            "initial_states": self.initial_states,
            "final_states": self.merged_states or self.reachable_states,
            "generation_time_s": round(self.total_time, 4),
        }

    def __str__(self) -> str:
        return (
            f"{self.model_name} [{self.engine}]: {self.initial_states} initial -> "
            f"{self.reachable_states} reachable -> {self.merged_states} merged "
            f"({self.total_time:.3f}s)"
        )


def generate(
    model: AbstractModel, *, prune: bool = True, merge: bool = True
) -> tuple[StateMachine, GenerationReport]:
    """Run the pipeline for ``model``; return the machine and its report.

    ``prune`` / ``merge`` switch steps 3 / 4 off for inspection of the
    intermediate data structures (Figs 7–13).
    """
    report = GenerationReport(model.machine_name(), model.parameters)
    arrays = _Arrays(model)

    # ------------------------------------------------------------- step 1
    started = time.perf_counter()
    vectors = list(model.space.enumerate_vectors())
    final = [arrays.hooks.is_final(vector) for vector in vectors]
    report.initial_states = len(vectors)
    report.timings["enumerate"] = time.perf_counter() - started

    # ------------------------------------------------------------- step 2
    started = time.perf_counter()
    ids = {vector: i for i, vector in enumerate(vectors)}
    for vector, is_final in zip(vectors, final):
        arrays.add_row(vector, is_final, ids.__getitem__)
    start = ids.get(tuple(model.start_vector()))
    if start is None:
        raise MachineStructureError("the start vector is outside the state space")
    report.timings["transitions"] = time.perf_counter() - started

    # ------------------------------------------------------------- step 3
    keep = range(len(vectors))
    if prune:
        started = time.perf_counter()
        keep = sorted(_reachable(arrays.next_state, arrays.width, start))
        report.timings["prune"] = time.perf_counter() - started

    # ------------------------------------------------------------- step 4
    return _finish(model, report, vectors, final, arrays, start, keep, merge)


def generate_with_engine(
    model: AbstractModel,
    engine: str = "eager",
    *,
    prune: bool = True,
    merge: bool = True,
    optimize=None,
) -> tuple[StateMachine, GenerationReport]:
    """Dispatch generation to the named engine.

    ``"eager"`` runs the four-step pipeline above; ``"lazy"`` runs the
    frontier-based engine of :mod:`repro.core.lazy`, which never
    materialises the product space — requesting ``prune=False`` from it is
    a contradiction and raises :class:`ValueError` rather than silently
    returning a pruned machine.  Both engines return isomorphic machines
    with identical merged state counts.

    ``optimize`` optionally runs a :class:`repro.opt.PassPipeline` (or a
    level / pass-list spec accepted by :func:`repro.opt.parse_opt_spec`)
    over the generated machine; the pass deltas land in the report's
    ``opt_report`` and the time in ``timings["optimize"]``.
    """
    if engine == "eager":
        machine, report = generate(model, prune=prune, merge=merge)
    elif engine == "lazy":
        if not prune:
            raise ValueError(
                "prune=False requires the eager engine: the lazy engine never "
                "materialises unreachable states, so there is nothing to keep"
            )
        from repro.core.lazy import generate_lazy

        machine, report = generate_lazy(model, merge=merge)
    else:
        raise ValueError(f"unknown generation engine {engine!r}; choose from {ENGINES}")
    if optimize is not None:
        machine, report.opt_report = _run_optimizer(machine, optimize)
        if report.opt_report is not None:
            report.timings["optimize"] = report.opt_report.total_time
    return machine, report


def _run_optimizer(machine: StateMachine, optimize):
    """Run an ``optimize=`` hook (pipeline or spec) over a machine.

    Imported lazily: :mod:`repro.opt` sits above the core package, so the
    hook is the only place the core reaches up into it.
    """
    from repro.opt import as_pipeline

    pipeline = as_pipeline(optimize)
    if pipeline is None:
        return machine, None
    return pipeline.optimize_machine(machine)


class _Arrays:
    """A machine under construction: one row per state id, in id order."""

    def __init__(self, model: AbstractModel):
        #: The model's hooks, memoised for this generation call.
        self.hooks = Elaborator(model)
        self.column = {message: c for c, message in enumerate(model.messages)}
        self.width = len(self.column)
        self.next_state: list[int] = []
        self.action_seq: list[int] = []
        #: Action-string tuple -> sequence id, interned on first use.
        self.seqs: dict[tuple[str, ...], int] = {(): 0}
        self.transition_annotations: dict[int, tuple[str, ...]] = {}

    def add_row(self, vector: tuple, final: bool, target_id) -> None:
        """Step 2 for the next state id: its transitions written into a new
        row, each target vector turned into an id by ``target_id``."""
        row = len(self.next_state)
        self.next_state += [-1] * self.width
        self.action_seq += [-1] * self.width
        if final:
            return  # terminal: the algorithm has completed here
        seqs, notes = self.seqs, self.transition_annotations
        for message, target, actions, annotations in self.hooks.successors(vector):
            offset = row + self.column[message]
            self.next_state[offset] = target_id(target)
            self.action_seq[offset] = seqs.setdefault(actions, len(seqs))
            if annotations:
                notes[offset] = annotations


def _reachable(next_state, width: int, start: int) -> set[int]:
    """Step 3: the ids reachable from ``start`` over row-major targets."""
    seen = {start}
    frontier = [start]
    while frontier:
        row = frontier.pop() * width
        for target in next_state[row : row + width]:
            if target >= 0 and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def _finish(model, report, vectors, final, arrays, start, keep, merge):
    """Both engines' tail once the reachable ids ``keep`` are known (in id
    order): the states' names, step 4 when ``merge`` (the explored rows
    remapped once, into the quotient), else those rows as an IR whose
    finish state is the one final state, if there is exactly one; then
    one validation and the machine view.  The IR carries the model's
    describer, not its commentary: states are described when they are
    built (:meth:`StateMachine._objects`).  ``timings["finish"]`` is all
    of it but step 4."""
    from repro.opt.indexed import IndexedMachine

    started = time.perf_counter()
    space = model.space
    report.elaborations = arrays.hooks.elaborations
    report.transition_count = len(arrays.next_state) - arrays.next_state.count(-1)
    report.reachable_states = len(keep)
    if len(keep) < len(vectors):
        new_id = [-1] * len(vectors)
        for new, old in enumerate(keep):
            new_id[old] = new
        vectors = [vectors[s] for s in keep]
        final = [final[s] for s in keep]
    else:
        new_id = range(len(vectors))
    names = list(map(space.vector_name, vectors))
    identity = {
        "name": model.machine_name(),
        "parameters": model.parameters,
        "messages": model.messages,
        "describe": Describer(model),
    }
    if merge:
        merging = time.perf_counter()
        im = _quotient_rows(
            arrays, keep, new_id, new_id[start], names, final, vectors, **identity
        )
        report.timings["merge"] = time.perf_counter() - merging
    else:
        im = IndexedMachine(
            **identity,
            state_names=tuple(names),
            start=new_id[start],
            finish=final.index(True) if final.count(True) == 1 else -1,
            final=tuple(final),
            state_vectors=tuple(vectors),
            **_remap_rows(arrays, list(arrays.seqs), keep, new_id),
        )
    report.merged_states = im.state_count
    im.check_integrity()
    report.timings["finish"] = (
        time.perf_counter() - started - report.timings.get("merge", 0.0)
    )
    return StateMachine._over(im, space), report
