"""repro — generative state-machine toolchain.

A reproduction of *"Design, Implementation and Deployment of State Machines
Using a Generative Approach"* (Kirby, Dearle & Norcross, DSN 2007): a
framework for designing a distributed algorithm as a family of finite state
machines generated from a single abstract model, together with renderers
(text, diagrams, source code), a deployment runtime, and a simulated
distributed storage substrate exercising the paper's Byzantine-fault-
tolerant commit protocol.

Quickstart::

    from repro.models.commit import CommitModel
    from repro.render.text import TextRenderer

    machine = CommitModel(replication_factor=4).generate_state_machine()
    print(len(machine))                      # 33 states (paper Table 1)
    print(TextRenderer().render(machine))    # Fig 14-style description

Two generation engines produce identical machines: the eager four-step
pipeline (:func:`repro.generate`, paper §3.4) and the lazy frontier-based
engine (:func:`repro.generate_lazy`), which expands only reachable states
and scales to parameter values the eager engine cannot touch.  Select one
per call with ``generate_state_machine(engine="lazy")`` or on the command
line with ``python -m repro.cli generate --engine lazy``.

For serving a *population* of machine instances — partitioned by session
key across worker processes, with dispatch in batches and
snapshot/restore — see
:class:`repro.FleetEngine` (the fleet execution plane,
:mod:`repro.serve`).

Hierarchical designs (nested regions, inherited transitions, entry/exit
actions) are authored with :class:`repro.HierarchicalModel`
(:mod:`repro.core.hsm`) and flattened — eagerly or lazily — into plain
machines that run unchanged on every backend and on the fleet;
:class:`repro.HierarchicalSimulator` executes the hierarchy directly for
differential verification.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        AbstractModel,
        BooleanComponent,
        CompositeState,
        ENGINES,
        EnumComponent,
        FlattenReport,
        GenerationReport,
        HierarchicalModel,
        HierarchicalSimulator,
        IntComponent,
        InvalidStateError,
        State,
        StateMachine,
        StateSpace,
        Transition,
        TransitionBuilder,
        generate,
        generate_lazy,
        generate_with_engine,
    )
    from repro.opt import (
        IndexedMachine,
        PassPipeline,
        PassReport,
        standard_pipeline,
    )
    from repro.serve import Fleet, FleetEngine, MultiprocessFleet, make_fleet

__version__ = "1.0.0"

__all__ = [
    "AbstractModel",
    "BooleanComponent",
    "CompositeState",
    "ENGINES",
    "EnumComponent",
    "Fleet",
    "FleetEngine",
    "MultiprocessFleet",
    "make_fleet",
    "FlattenReport",
    "GenerationReport",
    "HierarchicalModel",
    "HierarchicalSimulator",
    "IndexedMachine",
    "IntComponent",
    "InvalidStateError",
    "PassPipeline",
    "PassReport",
    "State",
    "StateMachine",
    "StateSpace",
    "Transition",
    "TransitionBuilder",
    "__version__",
    "generate",
    "generate_lazy",
    "generate_with_engine",
    "standard_pipeline",
]

# Resolved on first use (see repro._lazy): ``import repro`` loads no
# subpackage, so a process that only generates a machine never imports
# the serving stack.
_EXPORTS = {
    "repro.core": (
        "AbstractModel",
        "BooleanComponent",
        "CompositeState",
        "ENGINES",
        "EnumComponent",
        "FlattenReport",
        "GenerationReport",
        "HierarchicalModel",
        "HierarchicalSimulator",
        "IntComponent",
        "InvalidStateError",
        "State",
        "StateMachine",
        "StateSpace",
        "Transition",
        "TransitionBuilder",
        "generate",
        "generate_lazy",
        "generate_with_engine",
    ),
    "repro.opt": ("IndexedMachine", "PassPipeline", "PassReport", "standard_pipeline"),
    "repro.serve": ("Fleet", "FleetEngine", "MultiprocessFleet", "make_fleet"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
