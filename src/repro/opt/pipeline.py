"""The pass pipeline: ordered passes over the shared indexed IR.

Sits between model generation and every backend (paper: the DEPLOY line
of work on optimized code generation).  A :class:`PassPipeline` runs a
sequence of :class:`Pass` objects over an
:class:`~repro.opt.indexed.IndexedMachine` and produces a
:class:`PassReport` with one :class:`PassDelta` per pass (state,
transition and action-pool counts before/after, plus wall-clock) and the
composed ``state_map`` that differential harnesses use to compare
optimized traces against unoptimized replays.

Ordering rules (enforced by the standard levels, documented for custom
pipelines):

1. ``prune`` first — later passes assume every state matters; merging
   unreachable garbage wastes refinement work and in-degree estimates.
2. ``merge`` before ``dead-actions`` — merging orphans pool entries that
   compaction then collects.  ``merge`` refines only an IR that carries
   no quotient's proof: a generated machine is step 4's quotient, and
   while its arrays are the objects step 4 made (``prune`` removing
   nothing keeps them) the pass returns it with the identity mapping.
3. ``renumber`` last — it fixes the final dense-array layout; any pass
   that adds or removes states after it would scramble the hot-first
   ordering it computed.

Optimization levels (``--opt N`` on the CLI):

===== =================================================================
``0``  no passes (the identity pipeline)
``1``  ``prune``
``2``  ``prune, merge, dead-actions``
``3``  ``prune, merge, dead-actions, renumber`` (the default "full")
===== =================================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Protocol, Union, runtime_checkable

from repro.core.machine import StateMachine
from repro.opt.indexed import IndexedMachine
from repro.opt.passes import (
    DeadActionEliminationPass,
    HotStateRenumberPass,
    MergeEquivalentPass,
    PruneUnreachablePass,
    StateMapping,
)


@runtime_checkable
class Pass(Protocol):
    """One optimization pass: a named pure IR -> (IR, state mapping) step."""

    name: str

    def run(self, im: IndexedMachine) -> tuple[IndexedMachine, StateMapping]:
        """Return the transformed IR and the old-id -> new-id mapping."""
        ...  # pragma: no cover - protocol definition


#: Registry of pass constructors, in canonical pipeline order.
PASSES: dict[str, type] = {
    "prune": PruneUnreachablePass,
    "merge": MergeEquivalentPass,
    "dead-actions": DeadActionEliminationPass,
    "renumber": HotStateRenumberPass,
}

#: Pass names per optimization level (level 3 is "full").
LEVELS: dict[int, tuple[str, ...]] = {
    0: (),
    1: ("prune",),
    2: ("prune", "merge", "dead-actions"),
    3: ("prune", "merge", "dead-actions", "renumber"),
}


@dataclass(frozen=True)
class PassDelta:
    """What one pass did to the IR: counts before/after and wall-clock."""

    name: str
    states_before: int
    states_after: int
    transitions_before: int
    transitions_after: int
    actions_before: int
    actions_after: int
    action_seqs_before: int
    action_seqs_after: int
    elapsed_s: float

    @property
    def states_removed(self) -> int:
        return self.states_before - self.states_after

    @property
    def changed(self) -> bool:
        """Whether the pass altered any counted quantity."""
        return (
            self.states_before != self.states_after
            or self.transitions_before != self.transitions_after
            or self.actions_before != self.actions_after
            or self.action_seqs_before != self.action_seqs_after
        )

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.states_before} -> {self.states_after} states, "
            f"{self.transitions_before} -> {self.transitions_after} transitions, "
            f"{self.action_seqs_before} -> {self.action_seqs_after} action seqs "
            f"({self.elapsed_s * 1000:.2f}ms)"
        )


@dataclass
class PassReport:
    """Everything one pipeline run did, with per-pass deltas.

    ``state_map`` maps every *original* state name to the name of the
    state that represents it in the optimized machine; names of pruned
    (unreachable) states are absent.  For pipelines that never merge,
    the map is the identity over surviving names.
    """

    machine_name: str
    deltas: list[PassDelta] = field(default_factory=list)
    state_map: dict[str, str] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Total optimization wall-clock time in seconds."""
        return sum(delta.elapsed_s for delta in self.deltas)

    @property
    def states_before(self) -> int:
        return self.deltas[0].states_before if self.deltas else 0

    @property
    def states_after(self) -> int:
        return self.deltas[-1].states_after if self.deltas else 0

    def delta(self, pass_name: str) -> Optional[PassDelta]:
        """The delta recorded for a named pass, if it ran."""
        for delta in self.deltas:
            if delta.name == pass_name:
                return delta
        return None

    @property
    def identity(self) -> bool:
        """Whether the whole run changed nothing (state names included)."""
        return all(not delta.changed for delta in self.deltas) and all(
            original == final for original, final in self.state_map.items()
        )

    def __str__(self) -> str:
        if not self.deltas:
            return f"{self.machine_name}: identity pipeline (no passes)"
        return (
            f"{self.machine_name}: {self.states_before} -> {self.states_after} "
            f"states over {len(self.deltas)} passes "
            f"({self.total_time * 1000:.2f}ms)"
        )


class PassPipeline:
    """An ordered sequence of passes, applied IR-in, IR-out."""

    def __init__(self, passes: tuple = (), name: str = "custom"):
        for p in passes:
            if not isinstance(p, Pass):
                raise TypeError(f"not an optimization pass: {p!r}")
        self.passes = tuple(passes)
        self.name = name

    def __len__(self) -> int:
        return len(self.passes)

    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def run(self, im: IndexedMachine) -> tuple[IndexedMachine, PassReport]:
        """Apply every pass in order; return the final IR, validated once
        when any pass ran, and the report."""
        report = PassReport(machine_name=im.name)
        original_names = im.state_names
        # Composed old-id -> current-id mapping over the original machine.
        composed: dict[int, Optional[int]] = {i: i for i in range(len(original_names))}
        for p in self.passes:
            started = time.perf_counter()
            after, mapping = p.run(im)
            elapsed = time.perf_counter() - started
            report.deltas.append(
                PassDelta(
                    name=p.name,
                    states_before=len(im.state_names),
                    states_after=len(after.state_names),
                    transitions_before=im.transition_count(),
                    transitions_after=after.transition_count(),
                    actions_before=len(im.actions),
                    actions_after=len(after.actions),
                    action_seqs_before=len(im.action_seqs),
                    action_seqs_after=len(after.action_seqs),
                    elapsed_s=elapsed,
                )
            )
            composed = {
                old: (mapping[current] if current is not None else None)
                for old, current in composed.items()
            }
            im = after
        report.state_map = {
            original_names[old]: im.state_names[current]
            for old, current in composed.items()
            if current is not None
        }
        if self.passes:
            im.check_integrity()
        return im, report

    def optimize_machine(
        self, machine: StateMachine
    ) -> tuple[StateMachine, PassReport]:
        """Convenience: machine -> IR (free for a generated one) -> passes
        -> a machine view over the result."""
        optimized, report = self.run(IndexedMachine.from_machine(machine))
        return StateMachine._over(optimized), report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassPipeline({self.name!r}, {list(self.pass_names())})"


def standard_pipeline(level: int = 3) -> PassPipeline:
    """The canonical pipeline for an optimization level (see module docs)."""
    if level not in LEVELS:
        raise ValueError(
            f"unknown optimization level {level}; choose from {sorted(LEVELS)}"
        )
    return PassPipeline(
        tuple(PASSES[name]() for name in LEVELS[level]), name=f"O{level}"
    )


def parse_opt_spec(spec: Union[str, int, None]) -> Optional[PassPipeline]:
    """Parse a ``--opt`` value: a level digit or a comma-separated pass list.

    ``None`` and ``"none"`` mean "no optimization" (``None`` is returned
    so callers can skip the IR round-trip entirely); ``"full"`` is level
    3; otherwise the value must be a level in ``0..3`` or pass names from
    :data:`PASSES` joined with commas, e.g. ``"prune,merge"``.
    """
    if spec is None:
        return None
    if isinstance(spec, int):
        return standard_pipeline(spec)
    text = spec.strip().lower()
    if text in ("", "none"):
        return None
    if text == "full":
        return standard_pipeline(3)
    if text.lstrip("-").isdigit():
        return standard_pipeline(int(text))
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in PASSES]
    if unknown:
        raise ValueError(
            f"unknown optimization pass(es) {unknown}; "
            f"choose from {list(PASSES)} or a level in {sorted(LEVELS)}"
        )
    return PassPipeline(tuple(PASSES[name]() for name in names), name=",".join(names))


def as_pipeline(
    optimize: Union["PassPipeline", str, int, None],
) -> Optional[PassPipeline]:
    """Normalise an ``optimize=`` argument to a pipeline (or ``None``)."""
    if optimize is None or isinstance(optimize, PassPipeline):
        return optimize
    return parse_opt_spec(optimize)


def format_pass_table(report: PassReport) -> str:
    """Render a report's per-pass deltas as an aligned table."""
    header = (
        f"{'pass':<13} {'states':>13} {'transitions':>15} "
        f"{'actions':>11} {'action seqs':>12} {'ms':>8}"
    )
    lines = [header, "-" * len(header)]
    for d in report.deltas:
        lines.append(
            f"{d.name:<13} {d.states_before:>5d} > {d.states_after:<5d} "
            f"{d.transitions_before:>6d} > {d.transitions_after:<6d} "
            f"{d.actions_before:>4d} > {d.actions_after:<4d} "
            f"{d.action_seqs_before:>5d} > {d.action_seqs_after:<4d} "
            f"{d.elapsed_s * 1000:>8.2f}"
        )
    return "\n".join(lines)
