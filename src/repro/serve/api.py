"""The unified fleet surface: one protocol, one factory, two engines.

PRs 2–7 grew the serve plane around one concrete class —
:class:`~repro.serve.fleet.FleetEngine` — and its accreted method
surface (one ``run`` spelling per schedule encoding, ad-hoc snapshot
types).  A second engine cannot sanely implement that surface, so this
module is the redesign that makes the process-parallel fleet
(:mod:`repro.serve.mpfleet`) possible:

* :class:`Fleet` — the structural protocol both engines satisfy.
  Everything layered on the serve plane (the differential harness, the
  scenario engine, the gateway, the CLI) targets this protocol, never a
  concrete class.
* :func:`make_fleet` — the one keyword surface that builds either
  implementation: ``workers=None`` (default) yields the in-process
  :class:`~repro.serve.fleet.FleetEngine`; ``workers=N`` yields a
  :class:`~repro.serve.mpfleet.MultiprocessFleet` with ``N`` worker
  processes.

The protocol's guarantees (what a caller may rely on from *any* fleet):

* **One dispatch entry point, one intake.**  ``run(events,
  encoding=...)`` accepts ``(key, message)`` string batches
  (``"events"``), pre-interned schedules from ``encode_flat``
  (``"flat"``), or sniffs the batch (``"auto"``) — an explicit name is
  never overridden, so a schedule passed as ``"events"`` is refused;
  every dispatch mode interns at ``post``/``run`` and executes ``(slot,
  column)`` ints.
  Encoded schedules are fleet-specific — encode against the fleet that
  will run the schedule.
* **One error shape.**  Unknown instances and messages raise
  :class:`~repro.core.errors.DeploymentError` with the same message
  text whichever implementation — and whichever side of a process
  boundary — rejected them.
* **Portable snapshots.**  ``snapshot()`` returns a
  :class:`~repro.serve.fleet.FleetSnapshot` that any fleet of the same
  machine can ``restore()``, whatever its worker layout.
* **One metrics model.**  ``telemetry_registry()`` returns the fleet's
  one :class:`~repro.obs.metrics.MetricsRegistry` — counters, depth
  gauges and, instrumented, latency histograms, never ``None`` — and
  ``metrics`` is the read-only
  :class:`~repro.serve.metrics.FleetMetrics` view over its counters.
* **Explicit shutdown.**  ``close()`` releases whatever the fleet owns
  (worker processes, pipes); every fleet is also a context manager.
"""

from __future__ import annotations

from importlib import import_module
from typing import Optional, Protocol, runtime_checkable

from repro.core.errors import DeploymentError
from repro.core.machine import StateMachine
from repro.obs.telemetry import FleetTelemetry
from repro.serve.fleet import ENCODINGS, FleetEngine, FleetSnapshot
from repro.serve.metrics import FleetMetrics
from repro.serve.store import InstanceSnapshot

__all__ = ["ENCODINGS", "Fleet", "MODEL_FACTORIES", "fleet_machine", "make_fleet"]


@runtime_checkable
class Fleet(Protocol):
    """Structural protocol every fleet implementation satisfies.

    See the module docstring for the behavioural guarantees.  The
    protocol is ``runtime_checkable`` so conformance tests can assert
    ``isinstance(fleet, Fleet)``; static checkers verify the full
    signatures.
    """

    # -- identity / configuration --------------------------------------
    @property
    def machine(self) -> StateMachine: ...

    @property
    def mode(self) -> str: ...

    @property
    def backend(self) -> str: ...

    @property
    def log_policy(self) -> str: ...

    @property
    def auto_recycle(self) -> bool: ...

    @property
    def state_map(self) -> Optional[dict]: ...

    # -- instance lifecycle --------------------------------------------
    def spawn(self, key: str) -> int: ...

    def spawn_many(self, count: int, prefix: str = "session") -> list[str]: ...

    def despawn(self, key: str) -> None: ...

    def recycle(self, key: str) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: str) -> bool: ...

    # -- per-instance observation --------------------------------------
    def state_name(self, key: str) -> str: ...

    def actions_since(self, key: str, start: int = 0) -> tuple[str, ...]: ...

    def trace(self, key: str) -> InstanceSnapshot: ...

    def is_finished(self, key: str) -> bool: ...

    # -- event intake and dispatch -------------------------------------
    def encode_flat(self, events): ...

    def post(
        self,
        key: str,
        message: str,
        source: Optional[str] = None,
        trace_id: Optional[int] = None,
    ) -> bool: ...

    def deliver(self, key: str, message: str) -> bool: ...

    def drain_all(self) -> int: ...

    def run(self, events, encoding: str = "auto") -> FleetMetrics: ...

    # -- snapshot / restore --------------------------------------------
    def snapshot(self, allow_partial: bool = False) -> FleetSnapshot: ...

    def restore(
        self, snapshot: FleetSnapshot, allow_partial: bool = False
    ) -> None: ...

    # -- observability / shutdown --------------------------------------
    @property
    def metrics(self) -> FleetMetrics: ...

    def telemetry_registry(self): ...

    def close(self) -> None: ...


#: Bundled models by short name: home module, class and canonical
#: parameters.  Only the named model's module is imported — the serve
#: plane does not pay for the rest of the zoo.
_BUNDLED_MODELS = {
    "commit": ("repro.models.commit", "CommitModel", {"replication_factor": 4}),
    "chandra-toueg": (
        "repro.models.chandra_toueg",
        "CoordinatorRoundModel",
        {"processes": 5},
    ),
    "termination": ("repro.models.termination", "TerminationModel", {"max_tasks": 3}),
    "threshold-sig": (
        "repro.models.threshold_sig",
        "ThresholdSignatureModel",
        {"signers": 4, "threshold": 3},
    ),
}

#: Short model names :func:`make_fleet` resolves (canonical parameters).
MODEL_FACTORIES = tuple(_BUNDLED_MODELS)

_MACHINE_CACHE: dict = {}


def fleet_machine(model: str, engine: str = "eager") -> StateMachine:
    """A cached generated machine for a bundled model name.

    Generation is the expensive step; callers building many fleets over
    the same model (tests, benchmarks, the CLI) share one machine per
    ``(model, engine)``.
    """
    if model not in _BUNDLED_MODELS:
        raise DeploymentError(
            f"unknown bundled model {model!r}; "
            f"choose from {MODEL_FACTORIES}"
        )
    cache_key = (model, engine)
    if cache_key not in _MACHINE_CACHE:
        home, name, parameters = _BUNDLED_MODELS[model]
        factory = getattr(import_module(home), name)
        _MACHINE_CACHE[cache_key] = factory(**parameters).generate_state_machine(
            engine=engine
        )
    return _MACHINE_CACHE[cache_key]


def make_fleet(
    model="commit",
    *,
    mode: str = "encoded",
    backend: str = "interp",
    workers: Optional[int] = None,
    log_policy: str = "full",
    optimize=None,
    telemetry=None,
    auto_recycle: bool = False,
    engine: str = "eager",
    **kwargs,
) -> Fleet:
    """Build any :class:`Fleet` implementation from one keyword surface.

    ``model`` is a bundled model name (one of :data:`MODEL_FACTORIES`),
    an already-generated :class:`~repro.core.machine.StateMachine`, or a
    model object with a ``generate_state_machine`` method; ``engine``
    selects the generation engine when generation happens here.

    ``workers=None`` (the default) builds the in-process
    :class:`~repro.serve.fleet.FleetEngine`.  ``workers=N`` builds a
    :class:`~repro.serve.mpfleet.MultiprocessFleet` with ``N`` worker
    processes — including ``N=1``, which pays the full IPC path and is
    the honest single-worker baseline for scaling measurements.

    ``telemetry=True`` is the portable "instrument this fleet" spelling:
    in-process it becomes a fresh
    :class:`~repro.obs.telemetry.FleetTelemetry`, multiprocess it
    enables the per-worker instruments.  An instance is accepted by the
    in-process engine only: a multiprocess fleet refuses it, since no
    process would feed it.

    ``backend`` is read only by ``mode="naive"``; the table modes refuse
    any backend but the default ``"interp"``.

    Remaining keyword arguments pass through to the chosen constructor
    (``start_method=`` and the supervision knobs ``journal=``,
    ``checkpoint_every=``, ``recovery=`` and ``join_timeout=`` are
    multiprocess only).
    """
    # One reading of telemetry= for both fleets, before anything is built.
    if telemetry is False:
        telemetry = None
    elif not (telemetry is None or telemetry is True) and not isinstance(
        telemetry, FleetTelemetry
    ):
        raise DeploymentError(
            "telemetry must be None, True, False or a FleetTelemetry, "
            f"got {telemetry!r}"
        )
    if isinstance(model, str):
        machine = fleet_machine(model, engine)
    elif isinstance(model, StateMachine):
        machine = model
    else:
        machine = model.generate_state_machine(engine=engine)
    if telemetry is True and workers is None:
        telemetry = FleetTelemetry()
    common = dict(
        mode=mode,
        backend=backend,
        log_policy=log_policy,
        optimize=optimize,
        auto_recycle=auto_recycle,
        telemetry=telemetry,
        **kwargs,
    )
    if workers is None:
        return FleetEngine(machine, **common)
    from repro.serve.mpfleet import MultiprocessFleet

    return MultiprocessFleet(machine, workers=workers, **common)
