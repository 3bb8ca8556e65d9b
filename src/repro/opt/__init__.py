"""Machine optimization: a pass pipeline over a shared indexed IR.

The implementation stage the paper's generative pipeline (design ->
implementation -> deployment) leaves implicit: between model generation
and every backend sits :class:`IndexedMachine` — states, messages and
actions interned to dense integer ids with flat transition arrays — and
a :class:`PassPipeline` of structural passes over it:

* ``prune``        — unreachable-state pruning;
* ``merge``        — equivalent-state merging (partition refinement),
  the pass that claws back hierarchical-flattening blow-up;
* ``dead-actions`` — dead/duplicate action-pool elimination;
* ``renumber``     — hot-state renumbering for dense-array dispatch.

Consumers share the IR: the fleet execution plane builds its dispatch
arrays from it, the source renderer can emit indexed-dispatch modules
from it, and ``generate_with_engine`` / ``HierarchicalModel.flatten``
accept an ``optimize=`` hook that runs a pipeline before handing the
machine on.  Optimized machines are trace-identical to their inputs up
to the report's ``state_map`` (merged states answer to their
representative's name); action logs match exactly.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.opt.indexed import IndexedMachine
    from repro.opt.passes import (
        DeadActionEliminationPass,
        HotStateRenumberPass,
        MergeEquivalentPass,
        PruneUnreachablePass,
    )
    from repro.opt.pipeline import (
        LEVELS,
        PASSES,
        Pass,
        PassDelta,
        PassPipeline,
        PassReport,
        as_pipeline,
        format_pass_table,
        parse_opt_spec,
        standard_pipeline,
    )

__all__ = [
    "DeadActionEliminationPass",
    "HotStateRenumberPass",
    "IndexedMachine",
    "LEVELS",
    "MergeEquivalentPass",
    "PASSES",
    "Pass",
    "PassDelta",
    "PassPipeline",
    "PassReport",
    "PruneUnreachablePass",
    "as_pipeline",
    "format_pass_table",
    "parse_opt_spec",
    "standard_pipeline",
]

# Resolved on first use (see repro._lazy): a fleet builds its dispatch
# arrays from IndexedMachine without loading the pass pipeline.
_EXPORTS = {
    "repro.opt.indexed": ("IndexedMachine",),
    "repro.opt.passes": (
        "DeadActionEliminationPass",
        "HotStateRenumberPass",
        "MergeEquivalentPass",
        "PruneUnreachablePass",
    ),
    "repro.opt.pipeline": (
        "LEVELS",
        "PASSES",
        "Pass",
        "PassDelta",
        "PassPipeline",
        "PassReport",
        "as_pipeline",
        "format_pass_table",
        "parse_opt_spec",
        "standard_pipeline",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
