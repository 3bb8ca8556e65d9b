"""Problem-specific abstract models.

* :mod:`repro.models.commit` — the paper's BFT commit protocol (§2.2, §3);
* :mod:`repro.models.commit_efsm` — its 9-state EFSM formulation (§5.3);
* :mod:`repro.models.chandra_toueg` — a Chandra–Toueg-style coordinator
  round (§5.2);
* :mod:`repro.models.termination` — message-counting termination detection
  (§5.2);
* :mod:`repro.models.threshold_sig` — threshold-signature share collection
  (§5.2);
* :mod:`repro.models.session_hsm` — a hierarchical sessioned connection
  protocol (nested retry and auth regions);
* :mod:`repro.models.commit_hsm` — the generated commit machine embedded
  as a region of a hierarchical transactional session.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.core.errors import ModelDefinitionError

if TYPE_CHECKING:
    from repro.core.hsm import HierarchicalModel
    from repro.models.chandra_toueg import CoordinatorRoundModel, majority
    from repro.models.commit import (
        MESSAGES,
        MIN_REPLICATION_FACTOR,
        CommitModel,
        fault_tolerance,
        generate_commit_machine,
    )
    from repro.models.commit_efsm import build_commit_efsm, commit_efsm_executor
    from repro.models.commit_hsm import build_commit_hsm
    from repro.models.session_hsm import build_session_hsm
    from repro.models.termination import TerminationModel
    from repro.models.threshold_sig import ThresholdSignatureModel

#: Bundled hierarchical models, addressable from the CLI and benchmarks.
HIERARCHICAL_MODELS = ("session", "commit")


def build_hierarchical_model(
    name: str, replication_factor: int = 4, engine: str = "eager"
) -> HierarchicalModel:
    """Build a bundled hierarchical model by registry name.

    ``replication_factor`` and ``engine`` only affect models that embed a
    generated machine (currently ``commit``).
    """
    if name == "session":
        from repro.models.session_hsm import build_session_hsm

        return build_session_hsm()
    if name == "commit":
        from repro.models.commit_hsm import build_commit_hsm

        return build_commit_hsm(replication_factor, engine=engine)
    raise ModelDefinitionError(
        f"unknown hierarchical model {name!r}; choose from {HIERARCHICAL_MODELS}"
    )


__all__ = [
    "CommitModel",
    "CoordinatorRoundModel",
    "HIERARCHICAL_MODELS",
    "MESSAGES",
    "MIN_REPLICATION_FACTOR",
    "TerminationModel",
    "ThresholdSignatureModel",
    "build_commit_efsm",
    "build_commit_hsm",
    "build_hierarchical_model",
    "build_session_hsm",
    "commit_efsm_executor",
    "fault_tolerance",
    "generate_commit_machine",
    "majority",
]

# Resolved on first use (see repro._lazy): a fleet over one model loads
# that model's module and none of the rest of the zoo.
_EXPORTS = {
    "repro.models.chandra_toueg": ("CoordinatorRoundModel", "majority"),
    "repro.models.commit": (
        "MESSAGES",
        "MIN_REPLICATION_FACTOR",
        "CommitModel",
        "fault_tolerance",
        "generate_commit_machine",
    ),
    "repro.models.commit_efsm": ("build_commit_efsm", "commit_efsm_executor"),
    "repro.models.commit_hsm": ("build_commit_hsm",),
    "repro.models.session_hsm": ("build_session_hsm",),
    "repro.models.termination": ("TerminationModel",),
    "repro.models.threshold_sig": ("ThresholdSignatureModel",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
