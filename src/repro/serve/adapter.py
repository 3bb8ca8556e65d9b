"""Common adapter over the two execution backends (paper §4.2 spectrum).

The fleet can back its instances with either end of the deployment
spectrum — the :class:`~repro.runtime.interp.MachineInterpreter` walking
the machine representation, or an instance of the generated class produced
by :func:`~repro.runtime.compile.compile_machine`.  Both already speak the
same protocol (``receive`` / ``get_state`` / ``is_finished`` / ``reset`` /
``sent``); the adapter's job is uniform construction and restoration, plus
amortising compilation: one :class:`~repro.runtime.cache.GeneratedCodeCache`
entry serves *every* instance of the same machine parameters, so spawning
a million compiled-backend sessions compiles exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine

if TYPE_CHECKING:
    from repro.runtime.cache import GeneratedCodeCache

#: Backend kinds the fleet accepts.
BACKENDS = ("interp", "compiled")

#: Process-wide cache of compiled machine classes, shared by every fleet
#: that does not bring its own cache; built by the first compiled backend.
#: Unbounded: the set of distinct machine parameters in one process is
#: small and an eviction would force a pointless recompilation.
_SHARED_COMPILED_CACHE: Optional[GeneratedCodeCache] = None


class BackendAdapter:
    """Uniform construction/restoration of protocol-identical instances."""

    def __init__(self, kind: str, machine: StateMachine, factory):
        self.kind = kind
        self.machine = machine
        self._factory = factory

    def new_instance(self):
        """A fresh instance in the machine's start state."""
        return self._factory()

    def restore_instance(self, instance, state_name: str, actions) -> None:
        """Force ``instance`` to a snapshotted state and action log."""
        instance.set_state(state_name)
        instance.sent[:] = actions


def import_backend(kind: str) -> tuple:
    """Import the runtime a ``kind`` backend runs and return its modules.

    The one list of what each backend executes: :func:`make_backend`
    reads every runtime name it uses from these modules, and a process
    about to fork workers calls this first, so the modules are imported
    once and shared by every worker instead of compiled again in each.
    A table-dispatch fleet never calls it and loads none of them.
    """
    if kind == "interp":
        import repro.runtime.interp as interp

        return (interp,)
    if kind == "compiled":
        import repro.runtime.cache as cache
        import repro.runtime.compile as compile_
        import repro.runtime.export as export

        return cache, compile_, export
    raise DeploymentError(f"unknown backend {kind!r}; choose from {BACKENDS}")


def make_backend(
    kind: str,
    machine: StateMachine,
    cache: Optional[GeneratedCodeCache] = None,
) -> BackendAdapter:
    """Build the adapter for a backend kind.

    ``interp`` instances share the one machine representation; ``compiled``
    instances share one generated class, produced at most once per machine
    parameters via ``cache`` (default: the process-wide shared cache).
    The runtime comes from :func:`import_backend`, on first use: a
    table-dispatch fleet loads neither the interpreter nor the renderers.
    """
    global _SHARED_COMPILED_CACHE
    runtime = import_backend(kind)
    if kind == "interp":
        (interp,) = runtime
        # Validate once here, not once per spawned instance.
        machine.check_integrity()
        return BackendAdapter(
            kind, machine, lambda: interp.MachineInterpreter(machine, validate=False)
        )
    cache_mod, compile_, export = runtime
    if cache is None:
        if _SHARED_COMPILED_CACHE is None:
            _SHARED_COMPILED_CACHE = cache_mod.GeneratedCodeCache(max_entries=None)
        cache = _SHARED_COMPILED_CACHE
    # The canonical parameter key keeps the entry hashable whatever
    # shape machine.parameters takes (nested dicts, lists, sets,
    # unhashable user objects) and independent of dict ordering.
    key = (
        machine.name,
        cache_mod.canonical_parameter_key(machine.parameters),
        export.machine_fingerprint(machine),
    )
    compiled = cache.get_or_generate(key, lambda: compile_.compile_machine(machine))
    return BackendAdapter(kind, machine, compiled.new_instance)
