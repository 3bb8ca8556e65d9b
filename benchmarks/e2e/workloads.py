"""The five workloads.  Each runs k fresh repetitions (fresh server
subprocess / fresh fleet, identical seeded inputs) and reports, per metric,
one value per repetition; ``run.py`` turns those into medians with
quartiles.  ``events_per_s``, ``setup_s`` and ``peak_rss_mb`` are the
end-to-end metrics every workload has; everything else a workload measures
is reported by name beside them but carries no regression bound.

``events_per_s`` and ``setup_s`` are rescaled to host speed 1.0 by the
calibration loop run around every timed section (``stats.HostClock``);
``raw.events_per_s`` and ``raw.setup_s`` are the same quantities as the
wall clock measured them, and ``host.speed`` is the factor between them.

Work per repetition is a fixed count sized so that, at the rates measured
on the 2-CPU reference host, all repetitions together measure for about
``--seconds``; fixed counts keep the inputs — and so the oracle — the same
on every run of a seed.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

from benchmarks.e2e import contract, inputs
from benchmarks.e2e.client import (
    SHUTDOWN,
    Connection,
    closed_loop,
    quiet_gc,
)
from benchmarks.e2e.stats import HostClock, calibration_s, host_speed, percentile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: Port files, server logs and span dumps; inside the checkout, git-ignored.
WORK = HERE / ".work"

BATCH_EVENTS = 4096
REQUEST_EVENTS = 512
#: The open-loop rung's rate: about a third of ``gw-single``'s closed-loop
#: capacity on the reference host, so queueing stays mild.
OPEN_LOOP_RATE = 1500.0
CONNECTIONS = 2

#: gen-deploy's input programs (see :func:`build_gen_input`).  Chosen to span
#: the generator's engines and sizes — eager and lazy commit machines from
#: 97 to 3073 states, a second protocol, and both bundled hierarchies
#: (which exercise flattening).  r=64 (5633 states, 2.8 s per pass) does
#: not fit five repetitions in a run, so r=48 is the largest.
GEN_INPUTS = (
    "commit-r8-eager",
    "commit-r32-lazy",
    "commit-r48-lazy",
    "chandra-toueg-5",
    "session-hsm",
    "commit-hsm",
)


#: Events each generated class is driven with, per repetition.
GEN_TRACE_EVENTS = 20_000

#: Timed sections a repetition's measured loop is cut into, each bracketed
#: by the calibration loop (5 sections left 14 % spread between runs of
#: ``gw-single``, 12 and 25 both 9 %).
SECTIONS = 12


class Skipped(Exception):
    """A workload that cannot run here; the message names the reason."""


@dataclass
class Outcome:
    """One workload's run: per-repetition values for each metric."""

    workload: str
    #: name -> (unit, [one value per repetition], samples behind each value)
    metrics: dict = field(default_factory=dict)
    #: operations counted: requests, batch runs, pipeline passes, oracle checks
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, name: str, unit: str, values, samples: int = 1) -> None:
        self.metrics[name] = (unit, list(values), samples)

    def check(self, ok: bool, what: str) -> None:
        """An oracle comparison: one operation, failed on a mismatch."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"ORACLE MISMATCH: {what}")


def scaled(count: int, seconds: float, floor: int = 1) -> int:
    """``count`` is what a repetition does at the declared ``run_seconds``."""
    return max(floor, int(count * seconds / contract.RUN_SECONDS))


# ----------------------------------------------------------------------
# gateway workloads
# ----------------------------------------------------------------------


class Server:
    """One ``server.py`` subprocess, from ``Popen`` to its exit."""

    def __init__(self, workers: int, instances: int, cpu=None):
        WORK.mkdir(exist_ok=True)
        self._dir = pathlib.Path(tempfile.mkdtemp(prefix="server-", dir=WORK))
        self._port_file = self._dir / "port"
        self._log_file = self._dir / "log"
        self._log = open(self._log_file, "wb")
        before = calibration_s()
        started = perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server.py"),
                "--port-file",
                str(self._port_file),
                "--workers",
                str(workers),
                "--instances",
                str(instances),
                *(("--cpu", str(cpu)) if cpu is not None else ()),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._await_port()
            with Connection(self.port) as probe:
                self.health = probe.get_json("/healthz")
            #: ``Popen`` to the first 200 from ``/healthz``.
            self.setup_s = perf_counter() - started
            self.setup_speed = host_speed(before, calibration_s())
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            try:
                text = self._port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.002)
        raise RuntimeError(
            "server did not start listening:\n"
            + self._log_file.read_text(errors="replace")
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the gateway process and its workers."""
        pids = [self.process.pid, *self.health.get("pids", [])]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """``POST /shutdown`` and wait; escalate if the server lingers."""
        try:
            if self.process.poll() is None and hasattr(self, "port"):
                try:
                    with Connection(self.port, timeout=5.0) as last:
                        last.roundtrip(SHUTDOWN)
                    self.process.wait(timeout=15)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self._log.close()
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@contextlib.contextmanager
def one_cpu():
    """Pin this process to one CPU for the block and yield that CPU, for the
    server to be pinned to as well (``None`` where the platform cannot pin).

    With client, gateway and workers on one virtual CPU a request costs
    context switches; spread over two it costs cross-CPU wake-ups, which on
    the shared reference host take anything from 50 us to milliseconds and
    made the same commit read 3 000 to 8 000 requests/s from one run to the
    next (README, "Bounds").  On that host the two placements have the same
    median throughput, so nothing is hidden by choosing the steady one.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def _ms(ordered, q: float) -> float:
    return percentile(ordered, q) * 1e3


def _sections(items, parts: int = SECTIONS) -> list:
    """``items`` cut into at most ``parts`` contiguous, near-equal slices."""
    size = max(1, -(-len(items) // parts))
    return [items[at : at + size] for at in range(0, len(items), size)]


def _add_timed(out: Outcome, rates, raw_rates, setups, raw_setups, speeds, samples):
    out.add("events_per_s", "1/s", rates, samples)
    out.add("setup_s", "s", setups)
    out.add("raw.events_per_s", "1/s", raw_rates, samples)
    out.add("raw.setup_s", "s", raw_setups)
    out.add("host.speed", "ratio", speeds)


def gw_single(
    seed: int, seconds: float, instances=inputs.INSTANCES, reps: int = 9
) -> Outcome:
    """Single-event requests: the gateway does almost all the work.

    Closed loop, one connection.  The open loop at a fixed rate (latency
    from the due time, generator lateness) is a rung of the traced run, not
    a phase here: its generator polls instead of sleeping, and on a shared
    host a process that hogs a CPU for seconds is scheduled worse for a
    while afterwards — it slowed the closed loops that followed it.
    """
    out = Outcome("gw-single")
    machine = inputs.client_machine()
    count = scaled(5000, seconds, floor=50)
    requests = inputs.single_requests(machine, count, seed, instances)
    # A fresh server's first requests pay for code paths never run before.
    warmup, timed = requests[: count // 20], requests[count // 20 :]
    rates, raw_rates, setups, raw_setups, speeds = [], [], [], [], []
    p50, p99, rss = [], [], []
    for rep in range(reps):
        with one_cpu() as cpu, Server(0, instances, cpu) as server:
            raw_setups.append(server.setup_s)
            setups.append(server.setup_s * server.setup_speed)
            clock = HostClock()
            latencies: list = []
            with Connection(server.port) as one, quiet_gc():
                out.failed += closed_loop(one, warmup).failed
                for part in _sections(timed):
                    with clock.section():
                        result = closed_loop(one, part)
                    out.failed += result.failed
                    latencies += result.latencies
            out.attempted += count
            rates.append(len(timed) / clock.normalised)
            raw_rates.append(len(timed) / clock.raw)
            speeds.append(clock.speed)
            latencies.sort()
            p50.append(_ms(latencies, 0.50))
            p99.append(_ms(latencies, 0.99))
            rss.append(server.peak_rss_mb())
            if rep == 0:
                with Connection(server.port) as reader:
                    snapshot = reader.get_json("/snapshot")
                wrong = inputs.snapshot_mismatches(
                    machine, snapshot, inputs.delivered_events(requests), instances
                )
                out.check(not wrong, f"/snapshot differs on {wrong[:3]}")
    # One request is one event delivered (80 %) or one state read (20 %).
    _add_timed(out, rates, raw_rates, setups, raw_setups, speeds, len(timed))
    out.add("req_per_s", "1/s", rates, len(timed))
    out.add("lat_p50_ms", "ms", p50, len(timed))
    out.add("lat_p99_ms", "ms", p99, len(timed))
    out.add("peak_rss_mb", "MB", rss)
    return out


def _drive_pair(pair, parts) -> list:
    """One closed loop per connection, concurrently, each on its own slice."""
    results = [None] * len(pair)

    def drive(which: int) -> None:
        results[which] = closed_loop(pair[which], parts[which])

    threads = [
        threading.Thread(target=drive, args=(which,)) for which in range(len(pair))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if any(result is None for result in results):
        raise RuntimeError("a client thread died")
    return results


def gw_batch_mp(
    seed: int, seconds: float, instances=inputs.INSTANCES, reps: int = 7
) -> Outcome:
    """512-event bodies through gateway, journal, pipe and two workers."""
    out = Outcome("gw-batch-mp")
    machine = inputs.client_machine()
    request_count = scaled(1100, seconds, floor=8)
    events = inputs.events_for(
        machine, "uniform", request_count * REQUEST_EVENTS, seed, instances
    )
    per_connection = inputs.batch_requests(events, REQUEST_EVENTS, CONNECTIONS)
    replay = [
        event for mine in per_connection for request in mine for event in request.events
    ]
    warm = min(len(mine) for mine in per_connection) // 20
    warmup = [mine[:warm] for mine in per_connection]
    sections = list(zip(*(_sections(mine[warm:]) for mine in per_connection)))
    timed_requests = sum(len(part) for parts in sections for part in parts)
    timed_events = timed_requests * REQUEST_EVENTS
    rates, raw_rates, setups, raw_setups, speeds = [], [], [], [], []
    p50, p99, rss = [], [], []
    for rep in range(reps):
        with one_cpu() as cpu, Server(2, instances, cpu) as server:
            raw_setups.append(server.setup_s)
            setups.append(server.setup_s * server.setup_speed)
            clock = HostClock()
            latencies: list = []
            pair = [Connection(server.port) for _ in range(CONNECTIONS)]
            try:
                with quiet_gc():
                    for result in _drive_pair(pair, warmup):
                        out.failed += result.failed
                    for parts in sections:
                        with clock.section():
                            results = _drive_pair(pair, parts)
                        for result in results:
                            out.failed += result.failed
                            latencies += result.latencies
            finally:
                for connection in pair:
                    connection.close()
            out.attempted += timed_requests + CONNECTIONS * warm
            rates.append(timed_events / clock.normalised)
            raw_rates.append(timed_events / clock.raw)
            speeds.append(clock.speed)
            latencies.sort()
            p50.append(_ms(latencies, 0.50))
            p99.append(_ms(latencies, 0.99))
            rss.append(server.peak_rss_mb())
            if rep == 0:
                with Connection(server.port) as reader:
                    snapshot = reader.get_json("/snapshot")
                sent = [
                    event
                    for which in range(CONNECTIONS)
                    for request in warmup[which]
                    + [r for parts in sections for r in parts[which]]
                    for event in request.events
                ]
                wrong = inputs.snapshot_mismatches(machine, snapshot, sent, instances)
                out.check(not wrong, f"/snapshot differs on {wrong[:3]}")
    _add_timed(out, rates, raw_rates, setups, raw_setups, speeds, timed_events)
    out.add("lat_p50_ms", "ms", p50, timed_requests)
    out.add("lat_p99_ms", "ms", p99, timed_requests)
    out.add("peak_rss_mb", "MB", rss)
    return out


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bulk(
    scenario: str,
    passes: int,
    seed: int,
    seconds: float,
    instances=inputs.INSTANCES,
    reps: int = 7,
) -> Outcome:
    """No socket, no pipe: ``run(events)`` on a fresh vector fleet (phase A),
    then ``passes`` runs over the pre-encoded schedules (phase B)."""
    from repro.models.commit import CommitModel
    from repro.serve import HAS_NUMPY, make_fleet

    if not HAS_NUMPY:
        raise Skipped("numpy unavailable")
    out = Outcome(f"bulk-{scenario}")
    machine = inputs.client_machine()
    batch_count = scaled(120, seconds, floor=2)
    events = inputs.events_for(
        machine, scenario, batch_count * BATCH_EVENTS, seed, instances
    )
    batches = inputs.batches_of(events, BATCH_EVENTS)
    rates, raw_rates, setups, raw_setups, speeds = [], [], [], [], []
    encoded_per_s, p50, p99 = [], [], []
    final_states = None
    dispatched_after_a = None
    for rep in range(reps):
        # Cold set-up: a model object, not the name, so make_fleet generates
        # the machine every time instead of serving its cached copy.
        boot = HostClock()
        with boot.section():
            fleet = make_fleet(
                CommitModel(replication_factor=4),
                mode="vector",
                log_policy="off",
                auto_recycle=True,
            )
            keys = fleet.spawn_many(instances)
            schedules = [fleet.encode_flat(batch) for batch in batches]
        raw_setups.append(boot.raw)
        setups.append(boot.normalised)
        try:
            clock = HostClock()
            for part in _sections(batches):
                with clock.section():
                    for batch in part:
                        fleet.run(batch, encoding="events")
            rates.append(len(events) / clock.normalised)
            raw_rates.append(len(events) / clock.raw)
            speeds.append(clock.speed)
            out.attempted += len(batches)
            if rep == 0:
                dispatched_after_a = fleet.metrics.events_dispatched
                final_states = {key: fleet.state_name(key) for key in keys}
            latencies = []
            started = perf_counter()
            for _ in range(passes):
                for schedule in schedules:
                    before = perf_counter()
                    fleet.run(schedule, encoding="flat")
                    latencies.append(perf_counter() - before)
            elapsed = perf_counter() - started
            encoded_per_s.append(passes * len(events) / elapsed)
            out.attempted += passes * len(schedules)
            expected = len(events) * (1 + passes)
            if fleet.metrics.events_dispatched != expected:
                out.failed += 1
                out.notes.append(
                    f"rep {rep}: dispatched {fleet.metrics.events_dispatched}, "
                    f"expected {expected}"
                )
            latencies.sort()
            p50.append(_ms(latencies, 0.50))
            p99.append(_ms(latencies, 0.99))
        finally:
            fleet.close()
    # ru_maxrss is the process's peak: one value per run, read before the
    # oracle below builds its 10 000 interpreters.  It includes the harness's
    # own copy of the inputs, which is the same for every run of a size.
    peak = _maxrss_mb()
    wrong = inputs.state_mismatches(machine, final_states, events)
    out.check(not wrong, f"state_name differs on {wrong[:3]}")
    out.check(
        dispatched_after_a == len(events),
        f"events_dispatched {dispatched_after_a} != {len(events)}",
    )
    _add_timed(out, rates, raw_rates, setups, raw_setups, speeds, len(events))
    out.add("encoded_events_per_s", "1/s", encoded_per_s, passes * len(events))
    out.add("lat_p50_ms", "ms", p50, passes * len(batches))
    out.add("lat_p99_ms", "ms", p99, passes * len(batches))
    out.add("peak_rss_mb", "MB", [peak])
    return out


def bulk_uniform(seed: int, seconds: float, **size) -> Outcome:
    """Wide rounds: the vector kernel's best case."""
    return bulk("uniform", 20, seed, seconds, **size)


def bulk_hotkey(seed: int, seconds: float, **size) -> Outcome:
    """Many narrow rounds: the same code where the vector kernel is weakest."""
    return bulk("hotkey", 10, seed, seconds, **size)


def build_gen_input(name: str):
    """The generated (or flattened) machine of one gen-deploy input."""
    from repro.models import build_commit_hsm, build_session_hsm
    from repro.models.chandra_toueg import CoordinatorRoundModel
    from repro.models.commit import CommitModel

    if name.startswith("commit-r"):
        _, factor, engine = name.split("-")
        return CommitModel(int(factor[1:])).generate_state_machine(engine=engine)
    if name == "chandra-toueg-5":
        return CoordinatorRoundModel(processes=5).generate_state_machine()
    if name == "session-hsm":
        return build_session_hsm().flatten()
    if name == "commit-hsm":
        return build_commit_hsm().flatten()
    raise ValueError(f"unknown gen-deploy input {name!r}")


def drive(executor, trace) -> None:
    """Feed a trace to one machine instance, restarting it when it finishes."""
    receive, finished, reset = executor.receive, executor.is_finished, executor.reset
    for message in trace:
        if receive(message) and finished():
            reset()


def deploy(name: str, trace_length: int, seed: int) -> dict:
    """One cold pass of the paper's pipeline for one input: generate ->
    optimise -> render -> compile, then drive the compiled class and check it
    against the interpreter on the same trace.  Returns the stage times as
    measured, and model -> code and the drive also at host speed 1.0."""
    from repro.opt import standard_pipeline
    from repro.render.source import PythonSourceRenderer
    from repro.runtime.compile import compile_machine
    from repro.runtime.interp import MachineInterpreter

    to_code = HostClock()
    with to_code.section():
        t0 = perf_counter()
        machine = build_gen_input(name)
        t1 = perf_counter()
        optimized, report = standard_pipeline(3).optimize_machine(machine)
        t2 = perf_counter()
        source = PythonSourceRenderer().render(optimized)
        t3 = perf_counter()
        compiled = compile_machine(optimized)
        t4 = perf_counter()
    trace = inputs.enabled_trace(optimized, trace_length, seed)
    instance = compiled.new_instance()
    driving = HostClock()
    with driving.section():
        drive(instance, trace)
    # Oracle: the interpreter on the machine as generated, before any pass.
    reference = MachineInterpreter(machine)
    started = perf_counter()
    drive(reference, trace)
    interp_s = perf_counter() - started
    expected_state = report.state_map.get(
        reference.get_state(), reference.get_state()
    )
    return {
        "generate_s": t1 - t0,
        "opt_s": t2 - t1,
        "render_s": t3 - t2,
        "compile_s": t4 - t3,
        "model_to_code_s": to_code.raw,
        "model_to_code_normalised_s": to_code.normalised,
        "compiled_events_per_s": len(trace) / driving.raw,
        "compiled_events_per_normalised_s": len(trace) / driving.normalised,
        "interp_events_per_s": len(trace) / interp_s,
        "states": len(machine),
        "states_removed": len(machine) - len(optimized),
        "source_bytes": len(source),
        "correct": instance.get_state() == expected_state
        and list(instance.sent) == list(reference.sent),
    }


_FRESH_INTERPRETER = (
    "import repro\n"
    "from repro.models import build_commit_hsm, build_session_hsm\n"
    "from repro.models.chandra_toueg import CoordinatorRoundModel\n"
    "from repro.models.commit import CommitModel\n"
    "CommitModel(8), CommitModel(32), CommitModel(48)\n"
    "CoordinatorRoundModel(processes=5), build_session_hsm(), build_commit_hsm()\n"
)


def gen_deploy(
    seed: int, seconds: float, instances=None, reps: int = 5
) -> Outcome:
    """The paper's pipeline, cold: model -> code -> events, no serving layer
    (so no ``instances``)."""
    out = Outcome("gen-deploy")
    trace_length = scaled(GEN_TRACE_EVENTS, seconds, floor=200)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    rates, raw_rates, setups, raw_setups, speeds, to_code = [], [], [], [], [], []
    for _ in range(reps):
        fresh = HostClock()
        with fresh.section():
            subprocess.run(
                [sys.executable, "-c", _FRESH_INTERPRETER], env=env, check=True
            )
        rows = [deploy(name, trace_length, seed) for name in GEN_INPUTS]
        for name, row in zip(GEN_INPUTS, rows):
            out.check(row["correct"], f"{name}: compiled class != interpreter")
        out.attempted += len(rows)
        rates.append(
            statistics.geometric_mean(
                row["compiled_events_per_normalised_s"] for row in rows
            )
        )
        raw_rates.append(
            statistics.geometric_mean(row["compiled_events_per_s"] for row in rows)
        )
        to_code.append(sum(row["model_to_code_s"] for row in rows))
        # Everything before the first event can be handled: a fresh
        # interpreter importing repro and constructing the models, then
        # model -> code for every input.
        raw_setups.append(fresh.raw + to_code[-1])
        setups.append(
            fresh.normalised + sum(row["model_to_code_normalised_s"] for row in rows)
        )
        speeds.append(setups[-1] / raw_setups[-1])
    samples = trace_length * len(GEN_INPUTS)
    _add_timed(out, rates, raw_rates, setups, raw_setups, speeds, samples)
    out.add("generated_events_per_s", "1/s", rates, samples)
    out.add("model_to_code_s", "s", to_code, len(GEN_INPUTS))
    out.add("peak_rss_mb", "MB", [_maxrss_mb()])
    return out


RUNNERS = {
    "gw-single": gw_single,
    "gw-batch-mp": gw_batch_mp,
    "bulk-uniform": bulk_uniform,
    "bulk-hotkey": bulk_hotkey,
    "gen-deploy": gen_deploy,
}
