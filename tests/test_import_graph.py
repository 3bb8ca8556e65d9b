"""Structural guard on cold start: what each entry point may import.

``import repro`` once loaded the whole serving stack — numpy, asyncio,
multiprocessing, the scenario plane and the storage simulator — into
every process, including one that only generates and runs a machine,
and a gateway once loaded the whole toolchain (every renderer, the
compiler, the hierarchical and EFSM layers, six models it never
serves).  Every package surface now resolves its re-exports on first
use (:mod:`repro._lazy`), numpy is imported by the first vector fleet
and each serving module imports only what it runs; these tests pin
that down by looking at ``sys.modules`` in fresh interpreters: a stray
top-level import fails here before it shows up as 0.2 s of ``setup_s``.
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

from repro.serve import HAS_NUMPY

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Every package surface as it stood before it turned lazy.
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
    "RecoveryPolicy", "RecoveryTelemetry",
    "SCENARIOS", "Scenario", "ScenarioEngine", "ScenarioFaultPlan",
    "ScenarioSnapshot", "ScenarioSpec",
    "SessionSimulator", "TimedEvent", "VectorKernel",
    "VectorSchedule", "WorkerJournal", "WorkloadSpec",
    "diff_against_standalone", "diff_fleets",
    "fleet_machine", "generate_scenario", "generate_workload",
    "make_backend", "make_fleet", "require_numpy",
    "run_scenario", "scenario_traces", "session_keys", "shard_of",
    "standalone_traces",
]  # fmt: skip
CORE_ALL = [
    "AbstractModel", "BooleanComponent", "ComponentError", "CompositeState",
    "DeploymentError", "ENGINES", "EnumComponent", "FINISH_NAME",
    "FlattenReport", "GenerationReport", "HierarchicalModel",
    "HierarchicalSimulator", "HsmTransition", "LeafState", "IntComponent",
    "InvalidStateError", "MachineStructureError", "ModelDefinitionError",
    "RenderError", "ReproError", "SimulationError", "State", "StateComponent",
    "StateMachine", "StateSpace", "StateView", "Transition",
    "TransitionBuilder", "Wiring", "equivalence_classes", "generate",
    "generate_lazy", "generate_with_engine", "merge_equivalent",
    "one_shot_merge",
]  # fmt: skip
MODELS_ALL = [
    "CommitModel", "CoordinatorRoundModel", "HIERARCHICAL_MODELS", "MESSAGES",
    "MIN_REPLICATION_FACTOR", "TerminationModel", "ThresholdSignatureModel",
    "build_commit_efsm", "build_commit_hsm", "build_hierarchical_model",
    "build_session_hsm", "commit_efsm_executor", "fault_tolerance",
    "generate_commit_machine", "majority",
]  # fmt: skip
RUNTIME_ALL = [
    "ACTION_BASE_NAME", "CacheStats", "CallbackActions", "CompiledEfsm",
    "CompiledMachine", "GeneratedCodeCache", "GenerationPolicy",
    "MachineFactory", "MachineInterpreter", "RecordingActions", "compile_efsm",
    "compile_machine", "export_machine_module", "import_machine_module",
    "is_stale", "machine_fingerprint", "load_machine_class",
]  # fmt: skip
RENDER_ALL = [
    "CodeBuffer", "DotRenderer", "EfsmTextRenderer", "HierarchicalDotRenderer",
    "HierarchicalOutlineRenderer", "HtmlRenderer", "JavaSourceRenderer",
    "MarkdownRenderer", "PythonEfsmRenderer", "PythonSourceRenderer",
    "Renderer", "SCXML_NS", "ScxmlRenderer", "TextRenderer", "XmlRenderer",
    "action_method_name", "camel_case", "display_action", "display_message",
    "efsm_class_name", "machine_class_name", "parse_machine_xml",
    "python_identifier",
]  # fmt: skip
OPT_ALL = [
    "DeadActionEliminationPass", "HotStateRenumberPass", "IndexedMachine",
    "LEVELS", "MergeEquivalentPass", "PASSES", "Pass", "PassDelta",
    "PassPipeline", "PassReport", "PruneUnreachablePass", "as_pipeline",
    "format_pass_table", "parse_opt_spec", "standard_pipeline",
]  # fmt: skip
OBS_ALL = [
    "Counter", "Gauge", "LatencyHistogram", "MetricsRegistry", "FleetTelemetry",
    "TraceLog", "TraceRecord", "render_json", "render_prometheus",
]  # fmt: skip

ANALYSIS_ALL = [
    "COMMIT_PHASE_FLAGS", "Equivalence", "ExplorationResult", "PeerSetExplorer",
    "PropertyReport", "action_at_most_once", "action_exactly_once",
    "action_required", "bundled_flatten_reports", "check_contending_updates",
    "check_single_update", "commit_protocol_properties",
    "finish_always_reachable", "FINISHED_PHASE", "MachineStats",
    "PAPER_TABLE1", "PhaseTransition", "Table1Row", "commit_spectrum",
    "efsm_phase_transitions", "equivalent", "flatten_blowup",
    "flatten_comparison", "format_flatten_table", "format_table1",
    "fsm_vs_efsm_table", "initial_state_count", "machine_stats",
    "merged_state_count", "merged_state_formula",
    "phase_names", "phase_quotient", "table1", "table1_row",
]  # fmt: skip
BASELINES_ALL = ["FINISHED_NAME", "GenericCommitAlgorithm"]
STORAGE_ALL = [
    "AppendOperation", "ByzantineBehaviour", "DataBlock",
    "DistributedFileSystem", "FileSystemError", "FileVersion",
    "ExponentialBackoff", "FaultPlan", "FixedBackoff", "GUID",
    "GuidCommitEngine", "HistoryOperation", "MaintenanceStats", "PID",
    "RandomBackoff", "ReplicaMaintainer", "RetrieveOperation", "RetryPolicy",
    "ServerOrder", "ServiceEndpoint", "StorageCluster", "StorageNode",
    "StoreOperation", "UpdateInstance", "VersionRecord", "agree_on_history",
    "commit_machine_for",
]  # fmt: skip
P2P_ALL = [
    "KEY_BITS", "KEY_SPACE", "ChordRing", "FingerTable", "RouteResult",
    "Router", "distance", "format_key", "in_interval", "key_for_bytes",
    "key_for_string", "parse_key", "replica_keys",
]  # fmt: skip
SIM_ALL = [
    "ExponentialLatency", "FixedLatency", "LatencyModel", "Message", "Network",
    "NetworkStats", "SimNode", "Simulator", "Timer", "UniformLatency",
]  # fmt: skip

#: Package -> its surface before the change.
SURFACES = {
    "repro": REPRO_ALL,
    "repro.serve": SERVE_ALL,
    "repro.core": CORE_ALL,
    "repro.models": MODELS_ALL,
    "repro.runtime": RUNTIME_ALL,
    "repro.render": RENDER_ALL,
    "repro.opt": OPT_ALL,
    "repro.obs": OBS_ALL,
    "repro.analysis": ANALYSIS_ALL,
    "repro.baselines": BASELINES_ALL,
    "repro.storage": STORAGE_ALL,
    "repro.storage.p2p": P2P_ALL,
    "repro.storage.sim": SIM_ALL,
}

#: The public names a package defines itself rather than re-exports;
#: every other public name must sit in its ``_EXPORTS`` table.
OWN = {
    "repro": {"__version__"},
    "repro.models": {"HIERARCHICAL_MODELS", "build_hierarchical_model"},
}

#: The toolchain a serving process never runs: the renderers, the
#: compiler and exporter, the hierarchical and EFSM layers, the
#: models it does not serve, exposition (loaded at the first scrape),
#: workload fabrication and the pass pipeline.
TOOLCHAIN = (
    "repro.render",
    "repro.runtime.compile",
    "repro.runtime.export",
    "repro.core.hsm",
    "repro.core.efsm",
    "repro.models.commit_efsm",
    "repro.models.commit_hsm",
    "repro.models.session_hsm",
    "repro.models.termination",
    "repro.models.threshold_sig",
    "repro.obs.expo",
    "repro.serve.workload",
    "repro.opt.pipeline",
)

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


def test_every_package_init_is_a_lazy_table():
    # Read, not imported: every __init__ binds an _EXPORTS table and the
    # hooks built from it, and SURFACES (which the surface test below
    # runs over) names every package.
    packages = set()
    for path in pathlib.Path(SRC, "repro").rglob("__init__.py"):
        packages.add(".".join(path.relative_to(SRC).parent.parts))
        source = path.read_text(encoding="utf-8")
        hooks = "__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)"
        assert "\n_EXPORTS = {" in source and f"\n{hooks}\n" in source, path
    assert packages == set(SURFACES)


@pytest.mark.parametrize("package", SURFACES)
def test_lazy_surface_is_the_surface_it_replaced(package):
    expected = SURFACES[package]
    probe(
        f"""
from importlib import import_module
package = import_module({package!r})
expected = {expected!r}
assert sorted(package.__all__) == sorted(expected), set(package.__all__) ^ set(expected)
assert set(expected) <= set(dir(package)), set(expected) - set(dir(package))
lazy = [name for names in package._EXPORTS.values() for name in names]
assert len(lazy) == len(set(lazy))
assert set(lazy) <= set(expected), set(lazy) - set(expected)
own = {sorted(OWN.get(package, ()))!r}
assert set(expected) - set(lazy) == set(own), set(expected) - set(lazy) ^ set(own)
assert set(own) <= set(vars(package)), set(own) - set(vars(package))
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


_GATEWAY = """
import asyncio, json
from repro.serve import make_fleet
from repro.serve.gateway import FleetGateway

async def request(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        f"{{method}} {{path}} HTTP/1.1\\r\\nContent-Length: {{len(body)}}\\r\\n"
        "Connection: close\\r\\n\\r\\n".encode() + body
    )
    status = int((await reader.readline()).split()[1])
    await reader.read()
    writer.close()
    assert status == 200, (method, path, status)

async def serve(fleet, paths):
    gateway = FleetGateway(fleet, port=0)
    await gateway.start()
    try:
        for method, path, payload in paths:
            await request(gateway.port, method, path, payload)
    finally:
        await gateway.stop()

supervision = {{"workers": {workers}, "journal": True}} if {workers} else {{}}
fleet = make_fleet("commit", mode="encoded", telemetry=True, **supervision)
try:
    (key,) = fleet.spawn_many(1)
    asyncio.run(serve(fleet, [
        ("GET", "/healthz", None),
        ("POST", "/deliver", {{"events": [[key, "update"]]}}),
        ("GET", f"/state?key={{key}}", None),
    ]))
    toolchain = loaded(*{toolchain!r})
    assert not toolchain, toolchain
    asyncio.run(serve(fleet, [("GET", "/metrics", None)]))
    assert loaded("repro.obs.expo") == ["repro.obs.expo"]  # at the first scrape
finally:
    fleet.close()
"""


@pytest.mark.parametrize("workers", [0, 2], ids=["in-process", "workers-2-parent"])
def test_serving_path_loads_no_toolchain(workers):
    # The benchmark's gateway server: one table-mode fleet behind a
    # FleetGateway, in-process or as the parent of two forked workers.
    probe(_GATEWAY.format(workers=workers, toolchain=TOOLCHAIN))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_forked_workers_import_nothing_the_parent_has_not(tmp_path):
    # Whatever a worker executes is imported by the parent before the
    # fork, so no two workers compile the same module on one CPU.  The
    # audit hook is inherited by every forked worker.
    log = tmp_path / "imports"
    vector = ", dict(mode='vector')" if HAS_NUMPY else ""
    probe(
        f"""
import os
parent = os.getpid()
out = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        os.write(out, f"{{args[0]}}\\n".encode())

sys.addaudithook(hook)
from repro.serve import make_fleet

for options in (
    dict(mode="encoded", journal=True, telemetry=True),
    dict(mode="naive"),
    dict(mode="naive", backend="compiled"),
    dict(mode="encoded", optimize=3){vector},
):
    with make_fleet("commit", workers=2, **options) as fleet:
        keys = fleet.spawn_many(8)
        fleet.run([(key, "update") for key in keys])
        fleet.post(keys[0], "vote")
        fleet.drain_all()
        fleet.snapshot()
        fleet.telemetry_registry()
"""
    )
    assert log.read_text() == ""


_FORKED_GATEWAY = """
import socket, threading
from repro.serve import make_fleet
from repro.serve.gateway import FleetGateway

stack = ("asyncio", "ssl", "_ssl", "concurrent.futures")
network = (*stack, "hashlib", "_hashlib", "base64")
supervision = {"workers": WORKERS, "journal": True} if WORKERS else {}
fleet = make_fleet("commit", mode="encoded", telemetry=True, **supervision)
try:
    # What each forked worker inherits: the gateway imported, no loop run.
    assert not loaded(*network), loaded(*network)
    gateway = FleetGateway(fleet, port=0, allow_remote_shutdown=True)
    seen = {}

    def send(port, request):
        with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
            conn.sendall(request)
            return conn.recv(4096).split(b"\\r\\n", 1)[0]

    def client(url):
        # A plain-socket client on its own thread: the probe itself never
        # imports asyncio, so only the gateway can have loaded it.
        port = int(url.rsplit(":", 1)[1])
        try:
            seen["started"] = loaded(*network)
            seen["healthz"] = send(
                port, b"GET /healthz HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n"
            )
            seen["served"] = loaded(*network)
            seen["ws"] = send(
                port,
                b"GET /ws HTTP/1.1\\r\\nUpgrade: websocket\\r\\n"
                b"Connection: Upgrade\\r\\nSec-WebSocket-Version: 13\\r\\n"
                b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\\r\\n\\r\\n",
            )
            seen["upgraded"] = loaded(*network)
        finally:
            send(port, b"POST /shutdown HTTP/1.1\\r\\nContent-Length: 0\\r\\n\\r\\n")

    gateway.run_blocking(
        announce=lambda url: threading.Thread(target=client, args=(url,)).start()
    )
    assert seen["healthz"] == b"HTTP/1.1 200 OK", seen
    assert seen["ws"] == b"HTTP/1.1 101 Switching Protocols", seen
    assert not set(stack) & {*seen["started"], *seen["served"], *seen["upgraded"]}
    assert not {"hashlib", "_hashlib"} & {*seen["started"], *seen["served"]}, seen
    assert "_hashlib" in seen["upgraded"], seen
finally:
    fleet.close()
"""


@pytest.mark.parametrize("workers", [0, 2], ids=["in-process", "workers-2-parent"])
def test_gateway_loads_its_network_stack_only_when_it_serves(workers):
    # A multiprocess fleet forks its workers from the serving process, so
    # whatever the gateway loads is mapped once per worker.  Serving loads
    # no asyncio (with ssl, libssl and libcrypto) nor concurrent.futures at
    # all, and hashlib only at the first WebSocket handshake.
    probe(f"WORKERS = {workers}\n" + _FORKED_GATEWAY)
