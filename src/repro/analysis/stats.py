"""State-space statistics: the numbers behind the paper's Table 1.

Provides per-machine structural statistics, the commit family's Table 1
rows (initial/final state counts and generation time for a set of
replication factors), and the closed form for the merged commit machine
size discovered during calibration: ``12 f^2 + 16 f + 5`` states, a
function of the fault tolerance ``f`` alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.machine import StateMachine
from repro.models.commit import CommitModel, fault_tolerance

#: The paper's Table 1 parameter points and published counts.
# One published row per line beats the 88-column rule here.
# fmt: off
PAPER_TABLE1 = (
    {"f": 1, "r": 4, "initial_states": 512, "final_states": 33, "generation_time_s": 0.10},
    {"f": 2, "r": 7, "initial_states": 1568, "final_states": 85, "generation_time_s": 0.12},
    {"f": 4, "r": 13, "initial_states": 5408, "final_states": 261, "generation_time_s": 0.38},
    {"f": 8, "r": 25, "initial_states": 20000, "final_states": 901, "generation_time_s": 2.2},
    {"f": 15, "r": 46, "initial_states": 67712, "final_states": 2945, "generation_time_s": 19.1},
)
# fmt: on


@dataclass
class MachineStats:
    """Structural statistics of one generated machine."""

    name: str
    states: int
    final_states: int
    transitions: int
    phase_transitions: int
    transitions_per_state: dict[int, int]

    @property
    def simple_transitions(self) -> int:
        """Transitions that perform no actions."""
        return self.transitions - self.phase_transitions


def machine_stats(machine: StateMachine) -> MachineStats:
    """Compute structural statistics for ``machine``."""
    histogram = Counter(len(state.transitions) for state in machine.states)
    return MachineStats(
        name=machine.name,
        states=len(machine),
        final_states=len(machine.final_states()),
        transitions=machine.transition_count(),
        phase_transitions=machine.phase_transition_count(),
        transitions_per_state=dict(sorted(histogram.items())),
    )


def initial_state_count(replication_factor: int) -> int:
    """Size of the unpruned commit state space: ``2^5 r^2`` (paper §3.4)."""
    return 32 * replication_factor * replication_factor


def merged_state_formula(f: int) -> int:
    """Merged commit machine size at ``r = 3f + 1``: ``12 f^2 + 16 f + 5``.

    Fits all five published Table 1 rows exactly (each uses the minimal
    replication factor for its fault tolerance).  For general ``r`` see
    :func:`merged_state_count`.
    """
    return 12 * f * f + 16 * f + 5


def merged_state_count(replication_factor: int) -> int:
    """General closed form of the merged commit machine size.

    ``12 f^2 + 16 f + 5 + (r - 3f - 1)(4f + 4)`` with
    ``f = floor((r-1)/3)``: the Table 1 value plus one extra "slack column"
    of ``4f + 4`` states for each unit of replication factor beyond the
    minimal ``3f + 1`` (counter headroom above the thresholds survives
    merging as additional counting states).  Verified exhaustively for
    ``r`` in 4..24 and property-tested.
    """
    f = fault_tolerance(replication_factor)
    slack = replication_factor - (3 * f + 1)
    return merged_state_formula(f) + slack * (4 * f + 4)


@dataclass
class Table1Row:
    """One regenerated row of the paper's Table 1."""

    f: int
    r: int
    initial_states: int
    pruned_states: int
    final_states: int
    generation_time_s: float
    #: Handler runs step 2 took (:attr:`GenerationReport.elaborations`).
    elaborations: int = 0

    def matches_paper(self) -> bool:
        """Whether the machine-independent counts equal the published ones."""
        for row in PAPER_TABLE1:
            if row["r"] == self.r:
                return (
                    row["f"] == self.f
                    and row["initial_states"] == self.initial_states
                    and row["final_states"] == self.final_states
                )
        return False


def table1_row(replication_factor: int, engine: str = "eager") -> Table1Row:
    """Generate the commit machine and report its Table 1 row.

    ``engine`` selects the eager pipeline or the lazy frontier engine; the
    machine-independent state counts are identical either way, only the
    generation time changes.
    """
    model = CommitModel(replication_factor)
    _, report = model.generate_with_report(engine=engine)
    return Table1Row(
        f=fault_tolerance(replication_factor),
        r=replication_factor,
        initial_states=report.initial_states,
        pruned_states=report.reachable_states,
        final_states=report.merged_states,
        generation_time_s=report.total_time,
        elaborations=report.elaborations,
    )


def table1(
    replication_factors: tuple[int, ...] = (4, 7, 13, 25, 46),
    engine: str = "eager",
) -> list[Table1Row]:
    """Regenerate the paper's Table 1 for the given replication factors."""
    return [table1_row(r, engine=engine) for r in replication_factors]


def format_table1(rows: list[Table1Row]) -> str:
    """Render rows in the paper's Table 1 layout, plus whether each row's
    machine-independent counts reproduce the published ones."""
    lines = [
        "f   r   initial states   final states   generation time (s)   matches paper",
        "--  --  --------------   ------------   -------------------   -------------",
    ]
    for row in rows:
        lines.append(
            f"{row.f:<3d} {row.r:<3d} {row.initial_states:<16d} "
            f"{row.final_states:<14d} {row.generation_time_s:<21.3f} "
            f"{'yes' if row.matches_paper() else 'NO'}"
        )
    return "\n".join(lines)
