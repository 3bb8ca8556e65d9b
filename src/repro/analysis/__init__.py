"""Analysis utilities: state-space statistics, equivalence, spectrum.

* :mod:`repro.analysis.stats` — structural statistics and the regenerated
  Table 1 (including the merged-size closed form ``12 f^2 + 16 f + 5``);
* :mod:`repro.analysis.equivalence` — :func:`equivalent`, the exhaustive
  check that two machines behave the same, with the shortest trace that
  tells them apart when they do not;
* :mod:`repro.analysis.spectrum` — the FSM/EFSM/algorithm spectrum and the
  phase-quotient derivation that cross-validates the 9-state commit EFSM;
* :mod:`repro.analysis.flatten_stats` — state/transition blow-up factors
  of the hierarchical flattening pipeline.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.equivalence import Equivalence, equivalent
    from repro.analysis.flatten_stats import (
        bundled_flatten_reports,
        flatten_blowup,
        format_flatten_table,
    )
    from repro.analysis.peerset_check import (
        ExplorationResult,
        PeerSetExplorer,
        check_contending_updates,
        check_single_update,
    )
    from repro.analysis.properties import (
        PropertyReport,
        action_at_most_once,
        action_exactly_once,
        action_required,
        commit_protocol_properties,
        finish_always_reachable,
    )
    from repro.analysis.spectrum import (
        COMMIT_PHASE_FLAGS,
        FINISHED_PHASE,
        PhaseTransition,
        commit_spectrum,
        efsm_phase_transitions,
        fsm_vs_efsm_table,
        phase_names,
        phase_quotient,
    )
    from repro.analysis.stats import (
        PAPER_TABLE1,
        MachineStats,
        Table1Row,
        format_table1,
        initial_state_count,
        machine_stats,
        merged_state_count,
        merged_state_formula,
        table1,
        table1_row,
    )

__all__ = [
    "COMMIT_PHASE_FLAGS",
    "Equivalence",
    "ExplorationResult",
    "PeerSetExplorer",
    "PropertyReport",
    "action_at_most_once",
    "action_exactly_once",
    "action_required",
    "bundled_flatten_reports",
    "check_contending_updates",
    "check_single_update",
    "commit_protocol_properties",
    "finish_always_reachable",
    "FINISHED_PHASE",
    "MachineStats",
    "PAPER_TABLE1",
    "PhaseTransition",
    "Table1Row",
    "commit_spectrum",
    "efsm_phase_transitions",
    "equivalent",
    "flatten_blowup",
    "format_flatten_table",
    "format_table1",
    "fsm_vs_efsm_table",
    "initial_state_count",
    "machine_stats",
    "merged_state_count",
    "merged_state_formula",
    "phase_names",
    "phase_quotient",
    "table1",
    "table1_row",
]

# Resolved on first use (see repro._lazy): a table1 run loads the
# statistics, not the peer-set explorer or the flattening reports.
_EXPORTS = {
    "repro.analysis.equivalence": ("Equivalence", "equivalent"),
    "repro.analysis.flatten_stats": (
        "bundled_flatten_reports",
        "flatten_blowup",
        "format_flatten_table",
    ),
    "repro.analysis.peerset_check": (
        "ExplorationResult",
        "PeerSetExplorer",
        "check_contending_updates",
        "check_single_update",
    ),
    "repro.analysis.properties": (
        "PropertyReport",
        "action_at_most_once",
        "action_exactly_once",
        "action_required",
        "commit_protocol_properties",
        "finish_always_reachable",
    ),
    "repro.analysis.spectrum": (
        "COMMIT_PHASE_FLAGS",
        "FINISHED_PHASE",
        "PhaseTransition",
        "commit_spectrum",
        "efsm_phase_transitions",
        "fsm_vs_efsm_table",
        "phase_names",
        "phase_quotient",
    ),
    "repro.analysis.stats": (
        "PAPER_TABLE1",
        "MachineStats",
        "Table1Row",
        "format_table1",
        "initial_state_count",
        "machine_stats",
        "merged_state_count",
        "merged_state_formula",
        "table1",
        "table1_row",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
