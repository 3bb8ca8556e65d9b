"""Structural guard on cold start: what each entry point may import.

``import repro`` once loaded the whole serving stack — numpy, asyncio,
multiprocessing, the scenario plane and the storage simulator — into
every process, including one that only generates and runs a machine.
The two package surfaces now resolve their re-exports on first use
(:mod:`repro._lazy`) and numpy is imported by the first vector fleet;
these tests pin that down by looking at ``sys.modules`` in fresh
interpreters, as PR 18's MRO guard pins the action bases: a stray
top-level import fails here before it shows up as 0.2 s of ``setup_s``.
"""

import os
import subprocess
import sys

import pytest

from repro.serve import HAS_NUMPY

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: The two public surfaces as they stood before they turned lazy.
REPRO_ALL = [
    "AbstractModel", "BooleanComponent", "CompositeState", "ENGINES",
    "EnumComponent", "Fleet", "FleetEngine", "MultiprocessFleet", "make_fleet",
    "FlattenReport", "GenerationReport", "HierarchicalModel",
    "HierarchicalSimulator", "IndexedMachine", "IntComponent",
    "InvalidStateError", "PassPipeline", "PassReport", "State", "StateMachine",
    "StateSpace", "Transition", "TransitionBuilder", "__version__", "generate",
    "generate_lazy", "generate_with_engine", "standard_pipeline",
]  # fmt: skip
SERVE_ALL = [
    "BACKENDS", "BackendAdapter", "DISPATCH_MODES", "ENCODINGS",
    "EncodedFleetSchedule", "Fleet", "FleetEngine", "FleetMetrics",
    "FleetRecoveringError", "FleetSnapshot", "FleetTelemetry", "HAS_NUMPY",
    "NUMPY_UNAVAILABLE_REASON", "MODEL_FACTORIES", "MultiprocessFleet",
    "GroupTopology", "InstanceSnapshot", "InstanceStore", "LOG_POLICIES",
    "PartitionCheckpoint", "RecoveryPolicy", "RecoveryTelemetry", "RouteRule",
    "SCENARIOS", "Scenario", "ScenarioEngine", "ScenarioFaultPlan",
    "ScenarioMetrics", "ScenarioProfile", "ScenarioSnapshot", "ScenarioSpec",
    "SessionSimulator", "TimedEvent", "TimerRule", "VectorKernel",
    "VectorSchedule", "WorkerJournal", "WorkloadSpec",
    "diff_against_hierarchical", "diff_against_standalone", "diff_fleets",
    "fleet_machine", "generate_scenario", "generate_workload",
    "hierarchical_traces", "make_backend", "make_fleet", "require_numpy",
    "run_scenario", "scenario_traces", "session_keys", "shard_of",
    "standalone_traces",
]  # fmt: skip

_PRELUDE = """
import sys

def loaded(*names):
    return sorted(name for name in names if name in sys.modules)
"""


def probe(code: str) -> None:
    """Run ``code`` in a fresh interpreter that sees only ``src``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_generating_layers_load_no_serving_layer():
    # The rule: core/opt/render/runtime/models never import serve/obs/storage.
    probe(
        """
import repro, repro.core, repro.models, repro.opt, repro.render, repro.runtime
assert not loaded(
    "numpy", "asyncio", "multiprocessing", "repro.serve", "repro.storage", "repro.obs"
), loaded(*sys.modules)
"""
    )


_ENCODED_FLEET = """
from repro.serve import make_fleet, HAS_NUMPY
fleet = make_fleet("commit", mode="encoded")
(key,) = fleet.spawn_many(1)
assert fleet.deliver(key, "update")
heavy = loaded(
    "numpy", "asyncio", "multiprocessing", "repro.serve.mpfleet", "repro.serve.scenario"
)
assert not heavy, heavy
"""


def test_encoded_fleet_loads_neither_numpy_nor_the_other_planes():
    # HAS_NUMPY is still the constant an eager import used to compute.
    probe(
        _ENCODED_FLEET
        + """
import os
try:
    import numpy
except ImportError:
    numpy = None
assert HAS_NUMPY is (numpy is not None and not os.environ.get("REPRO_NO_NUMPY"))
"""
    )


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")
def test_first_vector_fleet_is_what_imports_numpy():
    probe(
        _ENCODED_FLEET
        + """
assert HAS_NUMPY is True
make_fleet("commit", mode="vector")
assert loaded("numpy", "asyncio", "multiprocessing") == ["numpy"]
"""
    )


def test_numpy_that_fails_to_import_is_the_canonical_error(tmp_path):
    # Present for find_spec, broken on import: HAS_NUMPY was decided
    # without importing, so the failure surfaces when the first vector
    # fleet asks — as the DeploymentError every other refusal is.
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(
        "raise ImportError('libopenblas.so.0: cannot open shared object file')\n"
    )
    probe(
        f"""
import os
os.environ.pop("REPRO_NO_NUMPY", None)
sys.path.insert(0, {str(tmp_path)!r})
from repro.core.errors import DeploymentError
from repro.serve import HAS_NUMPY, make_fleet
assert HAS_NUMPY is True
for workers in (None, 2):
    try:
        make_fleet("commit", mode="vector", workers=workers)
    except DeploymentError as exc:
        assert str(exc) == (
            "dispatch mode 'vector' needs numpy: numpy is installed but failed "
            "to import (libopenblas.so.0: cannot open shared object file)"
        ), exc
    else:
        raise SystemExit("a broken numpy must refuse the vector fleet")
fleet = make_fleet("commit", mode="encoded")  # and the scalar path serves
(key,) = fleet.spawn_many(1)
assert fleet.deliver(key, "update")
"""
    )


@pytest.mark.parametrize(
    "argv", [None, ["--help"], ["generate", "-r", "4"], ["table1"]], ids=str
)
def test_cli_loads_no_serving_runtime(argv):
    # None: importing the CLI and building its parser, nothing run.
    probe(
        f"""
import contextlib, io
import repro.cli
repro.cli.build_parser()
argv = {argv!r}
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            status = repro.cli.main(argv)
        except SystemExit as stop:  # --help
            status = stop.code
    assert status == 0 and out.getvalue(), (status, out.getvalue())
assert not loaded("numpy", "asyncio", "multiprocessing", "repro.storage")
"""
    )


@pytest.mark.parametrize(
    "package, expected",
    [("repro", REPRO_ALL), ("repro.serve", SERVE_ALL)],
    ids=["repro", "repro.serve"],
)
def test_lazy_surface_is_the_surface_it_replaced(package, expected):
    probe(
        f"""
from importlib import import_module
package = import_module({package!r})
expected = {expected!r}
assert sorted(package.__all__) == sorted(expected), set(package.__all__) ^ set(expected)
assert set(expected) <= set(dir(package)), set(expected) - set(dir(package))
lazy = [name for names in package._EXPORTS.values() for name in names]
assert len(lazy) == len(set(lazy))
assert set(lazy) | ({{"__version__"}} & set(expected)) == set(expected)
assert not set(lazy) & set(vars(package)), "resolved before anybody asked"
for home, names in package._EXPORTS.items():
    for name in names:
        assert getattr(package, name) is getattr(import_module(home), name), name
        assert vars(package)[name] is getattr(package, name)  # hook ran once
star = {{}}
exec("from {package} import *", star)
assert set(expected) <= set(star), set(expected) - set(star)
try:
    package.no_such_name
except AttributeError as exc:
    assert {package!r} in str(exc) and "no_such_name" in str(exc), exc
else:
    raise SystemExit("an unknown name must be an AttributeError")
"""
    )
