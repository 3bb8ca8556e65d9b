"""Baseline implementations the generated machines are compared against."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.generic_commit import FINISHED_NAME, GenericCommitAlgorithm

__all__ = ["FINISHED_NAME", "GenericCommitAlgorithm"]

# Resolved on first use (see repro._lazy).
_EXPORTS = {
    "repro.baselines.generic_commit": ("FINISHED_NAME", "GenericCommitAlgorithm"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
