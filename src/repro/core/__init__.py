"""Core generative state-machine framework (paper §3, §5.1).

Public surface:

* :class:`~repro.core.components.StateSpace` and the component classes
  (``BooleanComponent``, ``IntComponent``, ``EnumComponent``) declare an
  abstract state space;
* :class:`~repro.core.model.AbstractModel` is subclassed per algorithm and
  executed to generate machines;
* :class:`~repro.core.machine.StateMachine`, :class:`~repro.core.state.State`
  and :class:`~repro.core.state.Transition` form the generated
  representation handed to renderers and the runtime;
* :func:`~repro.core.pipeline.generate` runs the four-step pipeline and
  reports per-step counts and timings;
* :func:`~repro.core.lazy.generate_lazy` is the frontier-based engine that
  builds the reachable set on the fly instead of enumerating the product
  space (select per call with :func:`~repro.core.pipeline.generate_with_engine`);
* :mod:`~repro.core.efsm` provides the extended-FSM representation of §5.3;
* :mod:`~repro.core.hsm` provides hierarchical machines
  (:class:`~repro.core.hsm.CompositeState` trees owned by a
  :class:`~repro.core.hsm.HierarchicalModel`) and the flattening
  pipeline that expands them into plain :class:`StateMachine` objects;
* :class:`~repro.core.wiring.Wiring` declares how a model's instances
  talk to each other (storage, the checker and scenarios read it).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.components import (
        BooleanComponent,
        EnumComponent,
        IntComponent,
        StateComponent,
        StateSpace,
    )
    from repro.core.errors import (
        ComponentError,
        DeploymentError,
        InvalidStateError,
        MachineStructureError,
        ModelDefinitionError,
        RenderError,
        ReproError,
        SimulationError,
    )
    from repro.core.hsm import (
        CompositeState,
        FlattenReport,
        HierarchicalModel,
        HierarchicalSimulator,
        HsmTransition,
        LeafState,
    )
    from repro.core.lazy import generate_lazy
    from repro.core.machine import StateMachine
    from repro.core.minimize import (
        FINISH_NAME,
        equivalence_classes,
        merge_equivalent,
        one_shot_merge,
    )
    from repro.core.model import AbstractModel, StateView, TransitionBuilder
    from repro.core.pipeline import (
        ENGINES,
        GenerationReport,
        generate,
        generate_with_engine,
    )
    from repro.core.state import State, Transition
    from repro.core.wiring import Wiring

__all__ = [
    "AbstractModel",
    "BooleanComponent",
    "ComponentError",
    "CompositeState",
    "DeploymentError",
    "ENGINES",
    "EnumComponent",
    "FINISH_NAME",
    "FlattenReport",
    "GenerationReport",
    "HierarchicalModel",
    "HierarchicalSimulator",
    "HsmTransition",
    "LeafState",
    "IntComponent",
    "InvalidStateError",
    "MachineStructureError",
    "ModelDefinitionError",
    "RenderError",
    "ReproError",
    "SimulationError",
    "State",
    "StateComponent",
    "StateMachine",
    "StateSpace",
    "StateView",
    "Transition",
    "TransitionBuilder",
    "Wiring",
    "equivalence_classes",
    "generate",
    "generate_lazy",
    "generate_with_engine",
    "merge_equivalent",
    "one_shot_merge",
]

# Resolved on first use (see repro._lazy): a process that only serves a
# generated table never loads the hierarchical or EFSM layers.
_EXPORTS = {
    "repro.core.components": (
        "BooleanComponent",
        "EnumComponent",
        "IntComponent",
        "StateComponent",
        "StateSpace",
    ),
    "repro.core.errors": (
        "ComponentError",
        "DeploymentError",
        "InvalidStateError",
        "MachineStructureError",
        "ModelDefinitionError",
        "RenderError",
        "ReproError",
        "SimulationError",
    ),
    "repro.core.hsm": (
        "CompositeState",
        "FlattenReport",
        "HierarchicalModel",
        "HierarchicalSimulator",
        "HsmTransition",
        "LeafState",
    ),
    "repro.core.lazy": ("generate_lazy",),
    "repro.core.machine": ("StateMachine",),
    "repro.core.minimize": (
        "FINISH_NAME",
        "equivalence_classes",
        "merge_equivalent",
        "one_shot_merge",
    ),
    "repro.core.model": ("AbstractModel", "StateView", "TransitionBuilder"),
    "repro.core.pipeline": (
        "ENGINES",
        "GenerationReport",
        "generate",
        "generate_with_engine",
    ),
    "repro.core.state": ("State", "Transition"),
    "repro.core.wiring": ("Wiring",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
