"""Deployment runtime for generated machines (paper §4.2–4.3).

* :mod:`repro.runtime.compile` — render + compile + load generated source
  in memory (the Python analogue of the paper's Java 6 compiler binding);
* :mod:`repro.runtime.interp` — interpret a machine representation directly;
* :mod:`repro.runtime.actions` — generic action base classes bound into
  generated classes;
* :mod:`repro.runtime.policy` / :mod:`repro.runtime.cache` — when to
  generate: once, per use, or on demand with caching.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.actions import CallbackActions, RecordingActions
    from repro.runtime.cache import CacheStats, GeneratedCodeCache
    from repro.runtime.compile import (
        ACTION_BASE_NAME,
        CompiledEfsm,
        CompiledMachine,
        compile_efsm,
        compile_machine,
        load_machine_class,
    )
    from repro.runtime.export import (
        export_machine_module,
        import_machine_module,
        is_stale,
        machine_fingerprint,
    )
    from repro.runtime.interp import MachineInterpreter
    from repro.runtime.policy import GenerationPolicy, MachineFactory

__all__ = [
    "ACTION_BASE_NAME",
    "CacheStats",
    "CallbackActions",
    "CompiledEfsm",
    "CompiledMachine",
    "GeneratedCodeCache",
    "GenerationPolicy",
    "MachineFactory",
    "MachineInterpreter",
    "RecordingActions",
    "compile_efsm",
    "compile_machine",
    "export_machine_module",
    "import_machine_module",
    "is_stale",
    "machine_fingerprint",
    "load_machine_class",
]

# Resolved on first use (see repro._lazy): a process that interprets a
# machine never loads the renderers compile/export generate source with.
_EXPORTS = {
    "repro.runtime.actions": ("CallbackActions", "RecordingActions"),
    "repro.runtime.cache": ("CacheStats", "GeneratedCodeCache"),
    "repro.runtime.compile": (
        "ACTION_BASE_NAME",
        "CompiledEfsm",
        "CompiledMachine",
        "compile_efsm",
        "compile_machine",
        "load_machine_class",
    ),
    "repro.runtime.export": (
        "export_machine_module",
        "import_machine_module",
        "is_stale",
        "machine_fingerprint",
    ),
    "repro.runtime.interp": ("MachineInterpreter",),
    "repro.runtime.policy": ("GenerationPolicy", "MachineFactory"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
