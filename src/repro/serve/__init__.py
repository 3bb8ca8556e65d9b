"""Fleet execution plane: serving many machine instances.

Scales the paper's single-machine deployment story (§4) to a population:
instances live in columnar slots (:mod:`repro.serve.store`), every event
is interned to a ``(slot, column)`` int pair at intake, queues in one
flat ``[slot, col, ...]`` schedule and is dispatched in batches by one
of three modes (:mod:`repro.serve.fleet`): ``naive``, the per-instance
reference the differential suites compare against; ``encoded``, int
arithmetic over the machine's flat dispatch table; ``vector``, the same
table as numpy gather/scatter.  Keys are partitioned once, across
worker processes, by :mod:`repro.serve.mpfleet`.  Snapshot/restore and
a metrics surface (:mod:`repro.serve.metrics`) come with every mode.
Both execution
backends of the ``naive`` mode — interpreter and compiled generated
class — plug in through :mod:`repro.serve.adapter`;
:mod:`repro.serve.workload` fabricates arrival patterns and
:mod:`repro.serve.differential` proves fleet runs identical to standalone
single-instance runs.  :mod:`repro.serve.scenario` layers virtual time on
top: per-model timers, machine-driven routing between instances, and
fault injection with snapshot-replay recovery.  Any engine feeds the
telemetry plane (:mod:`repro.obs`) via ``FleetEngine(telemetry=...)``.
:mod:`repro.serve.vector` holds the optional numpy-backed gather/scatter
kernel behind ``make_fleet(mode="vector")``; ``HAS_NUMPY`` reports
whether it can run here.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.adapter import BACKENDS, BackendAdapter, make_backend
    from repro.serve.api import (
        ENCODINGS,
        Fleet,
        MODEL_FACTORIES,
        fleet_machine,
        make_fleet,
    )
    from repro.serve.differential import (
        diff_against_standalone,
        diff_fleets,
        standalone_traces,
    )
    from repro.obs.telemetry import FleetTelemetry
    from repro.serve.fleet import DISPATCH_MODES, FleetEngine, FleetSnapshot
    from repro.serve.mpfleet import EncodedFleetSchedule, MultiprocessFleet
    from repro.serve.recovery import (
        FleetRecoveringError,
        RecoveryPolicy,
        RecoveryTelemetry,
        WorkerJournal,
    )
    from repro.serve.metrics import FleetMetrics
    from repro.serve.scenario import (
        GroupTopology,
        Scenario,
        ScenarioEngine,
        ScenarioFaultPlan,
        ScenarioSnapshot,
        TimedEvent,
        run_scenario,
        scenario_traces,
    )
    from repro.serve.store import (
        LOG_POLICIES,
        InstanceSnapshot,
        InstanceStore,
        session_keys,
        shard_of,
    )
    from repro.serve.vector import (
        HAS_NUMPY,
        NUMPY_UNAVAILABLE_REASON,
        VectorKernel,
        VectorSchedule,
        require_numpy,
    )
    from repro.serve.workload import (
        SCENARIOS,
        ScenarioSpec,
        SessionSimulator,
        WorkloadSpec,
        generate_scenario,
        generate_workload,
    )

__all__ = [
    "BACKENDS",
    "BackendAdapter",
    "DISPATCH_MODES",
    "ENCODINGS",
    "EncodedFleetSchedule",
    "Fleet",
    "FleetEngine",
    "FleetMetrics",
    "FleetRecoveringError",
    "FleetSnapshot",
    "FleetTelemetry",
    "HAS_NUMPY",
    "NUMPY_UNAVAILABLE_REASON",
    "MODEL_FACTORIES",
    "MultiprocessFleet",
    "GroupTopology",
    "InstanceSnapshot",
    "InstanceStore",
    "LOG_POLICIES",
    "RecoveryPolicy",
    "RecoveryTelemetry",
    "SCENARIOS",
    "Scenario",
    "ScenarioEngine",
    "ScenarioFaultPlan",
    "ScenarioSnapshot",
    "ScenarioSpec",
    "SessionSimulator",
    "TimedEvent",
    "VectorKernel",
    "VectorSchedule",
    "WorkerJournal",
    "WorkloadSpec",
    "diff_against_standalone",
    "diff_fleets",
    "fleet_machine",
    "generate_scenario",
    "generate_workload",
    "make_backend",
    "make_fleet",
    "require_numpy",
    "run_scenario",
    "scenario_traces",
    "session_keys",
    "shard_of",
    "standalone_traces",
]

# Resolved on first use (see repro._lazy): building an ``encoded`` fleet
# loads neither numpy, asyncio nor multiprocessing; ``mpfleet`` and the
# scenario plane load when something names them.
_EXPORTS = {
    "repro.serve.adapter": ("BACKENDS", "BackendAdapter", "make_backend"),
    "repro.serve.api": (
        "ENCODINGS",
        "Fleet",
        "MODEL_FACTORIES",
        "fleet_machine",
        "make_fleet",
    ),
    "repro.serve.differential": (
        "diff_against_standalone",
        "diff_fleets",
        "standalone_traces",
    ),
    "repro.obs.telemetry": ("FleetTelemetry",),
    "repro.serve.fleet": ("DISPATCH_MODES", "FleetEngine", "FleetSnapshot"),
    "repro.serve.mpfleet": ("EncodedFleetSchedule", "MultiprocessFleet"),
    "repro.serve.recovery": (
        "FleetRecoveringError",
        "RecoveryPolicy",
        "RecoveryTelemetry",
        "WorkerJournal",
    ),
    "repro.serve.metrics": ("FleetMetrics",),
    "repro.serve.scenario": (
        "GroupTopology",
        "Scenario",
        "ScenarioEngine",
        "ScenarioFaultPlan",
        "ScenarioSnapshot",
        "TimedEvent",
        "run_scenario",
        "scenario_traces",
    ),
    "repro.serve.store": (
        "LOG_POLICIES",
        "InstanceSnapshot",
        "InstanceStore",
        "session_keys",
        "shard_of",
    ),
    "repro.serve.vector": (
        "HAS_NUMPY",
        "NUMPY_UNAVAILABLE_REASON",
        "VectorKernel",
        "VectorSchedule",
        "require_numpy",
    ),
    "repro.serve.workload": (
        "SCENARIOS",
        "ScenarioSpec",
        "SessionSimulator",
        "WorkloadSpec",
        "generate_scenario",
        "generate_workload",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
