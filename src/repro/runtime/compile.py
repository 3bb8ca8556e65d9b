"""In-memory compilation and loading of generated source (paper §4.3).

"For code generated on the fly, it is necessary to compile, load and bind
to the resulting executable code dynamically."  The paper binds to the Java
6 compiler API; the Python equivalent is ``compile`` + ``exec`` into a
fresh module object.  :func:`compile_machine` renders a
:class:`~repro.core.machine.StateMachine` to source, compiles it, injects
the caller's action base class under the name the source expects, and
returns the loaded machine class together with the source and module for
inspection.
"""

from __future__ import annotations

import itertools
import types
from dataclasses import dataclass

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine
from repro.render.source import PythonSourceRenderer, machine_class_name
from repro.runtime.actions import RecordingActions

#: Name under which the action base class is bound inside generated modules.
ACTION_BASE_NAME = "ActionsBase"

_module_counter = itertools.count(1)


@dataclass(frozen=True)
class CompiledMachine:
    """Result of compiling a generated machine implementation."""

    machine: StateMachine
    source: str
    module: types.ModuleType
    cls: type

    def new_instance(self, *args, **kwargs):
        """Instantiate the generated class (arguments go to the action base)."""
        return self.cls(*args, **kwargs)


def _load_generated(
    source: str, origin: str, class_name: str, action_base: type
) -> tuple[types.ModuleType, type]:
    """Compile generated ``source`` into a fresh module bound to
    ``action_base`` and return ``(module, generated class)``.

    The generated class is the deployed artefact, so what it needs from
    its action base is verified here, once, when it is loaded: a
    ``send_*`` method found missing in the middle of a transition would
    leave the transition half performed.
    """
    module = types.ModuleType(f"repro_generated_{next(_module_counter)}")
    module.__dict__[ACTION_BASE_NAME] = action_base
    try:
        code = compile(source, filename=f"<generated {origin}>", mode="exec")
        exec(code, module.__dict__)  # noqa: S102 - deliberate dynamic load
    except SyntaxError as exc:
        raise DeploymentError(f"generated source failed to compile: {exc}") from exc
    try:
        cls = module.__dict__[class_name]
    except KeyError:
        raise DeploymentError(
            f"generated module does not define expected class {class_name!r}"
        ) from None
    # A base with its own __getattr__ resolves names itself: nothing to check.
    if not hasattr(action_base, "__getattr__"):
        missing = [
            name
            for name in cls.ACTION_METHODS
            if not callable(getattr(cls, name, None))
        ]
        if missing:
            raise DeploymentError(
                f"action base {action_base.__qualname__!r} does not define "
                f"{', '.join(missing)}, which generated class {class_name!r} "
                f"calls (RecordingActions and CallbackActions define every "
                f"name in ACTION_METHODS)"
            )
    return module, cls


def compile_machine(
    machine: StateMachine,
    action_base: type = RecordingActions,
    class_name: str | None = None,
    include_commentary: bool = True,
) -> CompiledMachine:
    """Render ``machine`` to Python source, compile and load it.

    ``action_base`` is the class supplying the ``send_*`` action methods;
    the generated class inherits from it (paper §5.1).  Raises
    :class:`~repro.core.errors.DeploymentError` if ``action_base`` lacks a
    method the generated class names in ``ACTION_METHODS`` (the bundled
    bases define them all), or if the generated source fails to compile or
    the expected class is missing — those two indicate a renderer bug, not
    a caller error.
    """
    name = class_name or machine_class_name(machine)
    renderer = PythonSourceRenderer(
        class_name=name,
        action_base=ACTION_BASE_NAME,
        include_commentary=include_commentary,
    )
    source = renderer.render(machine)
    module, cls = _load_generated(source, machine.name, name, action_base)
    return CompiledMachine(machine=machine, source=source, module=module, cls=cls)


def load_machine_class(
    machine: StateMachine, action_base: type = RecordingActions
) -> type:
    """Shorthand for ``compile_machine(...).cls``."""
    return compile_machine(machine, action_base=action_base).cls


@dataclass(frozen=True)
class CompiledEfsm:
    """Result of compiling a generated EFSM implementation."""

    source: str
    module: types.ModuleType
    cls: type

    def new_instance(self, *args, **parameters):
        """Instantiate the generated class; parameters are keywords."""
        return self.cls(*args, **parameters)


def compile_efsm(
    efsm,
    action_base: type = RecordingActions,
    class_name: str | None = None,
) -> CompiledEfsm:
    """Render an EFSM to Python source, compile and load it (paper §5.3).

    The generated class takes the EFSM parameters (e.g.
    ``replication_factor``) as constructor keywords: one compiled artefact
    serves the entire machine family.
    """
    from repro.render.efsm_source import PythonEfsmRenderer, efsm_class_name

    name = class_name or efsm_class_name(efsm)
    renderer = PythonEfsmRenderer(class_name=name, action_base=ACTION_BASE_NAME)
    source = renderer.render(efsm)
    module, cls = _load_generated(source, efsm.name, name, action_base)
    return CompiledEfsm(source=source, module=module, cls=cls)
