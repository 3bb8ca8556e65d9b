"""The traced run: one slice of events pushed through successively taller
stacks, with a span around every call into a public function.

Spans are recorded here, in the benchmark's own files — nothing under
``src/`` is instrumented.  Each span is ``(name, start, end, parent,
request_id)``; a layer's self time is its spans' time minus their
children's.  Each rung's per-event cost minus the rung below is that
layer's line item: kernel -> run -> +pipe -> +journal -> +gateway.

The end-to-end numbers never come from here: they are measured with
tracing off, and ``trace.overhead_share`` says what the spans cost.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
from time import perf_counter

from benchmarks.e2e import inputs, workloads
from benchmarks.e2e.client import (
    SHUTDOWN,
    Connection,
    WebSocketClient,
    closed_loop,
    get_request,
    open_loop,
    post_request,
    quiet_gc,
)
from benchmarks.e2e.stats import percentile

#: The ladder's slice: 390 request-sized batches of the workload's schedule.
LADDER_EVENTS = 390 * workloads.REQUEST_EVENTS
SINGLE_REQUESTS = 1000


class Recorder:
    """Spans kept in memory; written out when the run ends."""

    def __init__(self):
        #: ``[name, start, end, parent index or None, request id]``
        self.spans: list = []
        #: Index of the client's in-flight request span: the closed-loop
        #: client has one request outstanding, so the server thread can
        #: parent its spans on it without any header crossing the wire.
        self.current = None
        self._requests = 0

    def begin(self, name: str, parent=None) -> int:
        if parent is None:
            self._requests += 1
            request_id = self._requests
        else:
            request_id = self.spans[parent][4]
        self.spans.append([name, perf_counter(), None, parent, request_id])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()

    def self_times(self, since: int = 0) -> dict:
        """name -> ``[count, total seconds, self seconds]`` over the spans
        from index ``since`` on; self time is a span's time minus its
        children's."""
        table: dict = {}
        for name, start, end, parent, _ in self.spans[since:]:
            duration = end - start
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration
            if parent is not None:
                table.setdefault(self.spans[parent][0], [0, 0.0, 0.0])[2] -= duration
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request_id"],
                    "spans": self.spans,
                },
                handle,
            )


_FORWARDED = (
    "spawn",
    "spawn_many",
    "despawn",
    "recycle",
    "action_count",
    "actions_since",
    "trace",
    "is_finished",
    "encode",
    "telemetry_registry",
    "close",
)
_TRACED = (
    "run",
    "deliver",
    "post",
    "drain_all",
    "state_name",
    "encode_flat",
    "snapshot",
    "restore",
)
_PROPERTIES = (
    "machine",
    "mode",
    "backend",
    "log_policy",
    "auto_recycle",
    "state_map",
    "metrics",
)


class SpanFleet:
    """A :class:`~repro.serve.api.Fleet` that delegates every call to another
    fleet and records a span around the dispatch, read and snapshot calls."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __getattr__(self, name: str):
        # What the gateway probes beyond the protocol (check_workers, ...).
        return getattr(self._inner, name)


def _forward(name: str):
    def method(self, *args, **kwargs):
        return getattr(self._inner, name)(*args, **kwargs)

    method.__name__ = name
    return method


def _traced(name: str):
    def method(self, *args, **kwargs):
        recorder = self._recorder
        span = recorder.begin(f"fleet.{name}", recorder.current)
        try:
            return getattr(self._inner, name)(*args, **kwargs)
        finally:
            recorder.end(span)

    method.__name__ = name
    return method


for _name in _FORWARDED:
    setattr(SpanFleet, _name, _forward(_name))
for _name in _TRACED:
    setattr(SpanFleet, _name, _traced(_name))
for _name in _PROPERTIES:
    setattr(
        SpanFleet, _name, property(lambda self, _n=_name: getattr(self._inner, _n))
    )


class GatewayThread:
    """A :class:`FleetGateway` served from a thread of this process."""

    def __init__(self, fleet):
        from repro.serve.gateway import FleetGateway

        self._gateway = FleetGateway(fleet, port=0, allow_remote_shutdown=True)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("in-process gateway did not start")
        self.port = self._gateway.port

    def _serve(self) -> None:
        async def main() -> None:
            await self._gateway.start()
            self._ready.set()
            await self._gateway.serve_until_shutdown()

        asyncio.run(main())

    def stop(self) -> None:
        with Connection(self.port) as last:
            last.roundtrip(SHUTDOWN)
        self._thread.join(timeout=15.0)
        if self._thread.is_alive():
            raise RuntimeError("in-process gateway did not stop")

    def __enter__(self) -> "GatewayThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# rungs
# ----------------------------------------------------------------------

_FLEET = dict(log_policy="full", auto_recycle=True)


def _ns_per_event(seconds: float, events: int) -> float:
    return seconds * 1e9 / events


def _timed(call) -> float:
    started = perf_counter()
    call()
    return perf_counter() - started


def _median_of(reps: int, measure) -> float:
    """Median of ``reps`` fresh measurements: each rung is short, and the
    host runs 30-40 % slower for a second at a time."""
    return statistics.median(measure() for _ in range(reps))


def _fresh(instances: int, **kwargs):
    from repro.serve import make_fleet

    fleet = make_fleet("commit", **kwargs)
    fleet.spawn_many(instances)
    return fleet


def _run_all(fleet, batches, encoding: str) -> float:
    started = perf_counter()
    for batch in batches:
        fleet.run(batch, encoding=encoding)
    return perf_counter() - started


def _library_rungs(
    events, instances: int, reps: int, layer: dict, rungs: list
) -> None:
    """Everything below the socket: vector kernel, scalar loop, encode,
    ``run(events)``, telemetry, mailbox, snapshot/restore."""
    from repro.serve import VectorSchedule

    count = len(events)
    wide = inputs.batches_of(events, workloads.BATCH_EVENTS)
    narrow = inputs.batches_of(events, workloads.REQUEST_EVENTS)

    # Vector kernel on bulk-sized (4096-event) pre-encoded schedules.
    def kernel() -> float:
        fleet = _fresh(instances, mode="vector", log_policy="off", auto_recycle=True)
        schedules = [fleet.encode_flat(batch) for batch in wide]
        try:
            return _run_all(fleet, schedules, "flat")
        finally:
            fleet.close()

    kernel_ns = _ns_per_event(_median_of(reps, kernel), count)
    layer["vector.kernel_ns_per_event"] = kernel_ns
    scalar = _fresh(instances, mode="encoded", **_FLEET)
    flats_wide = [scalar.encode_flat(batch) for batch in wide]
    build = _median_of(
        reps, lambda: _timed(lambda: [VectorSchedule(flat) for flat in flats_wide])
    )
    layer["vector.schedule_build_ns_per_event"] = _ns_per_event(build, count)
    layer["vector.rounds_per_batch"] = statistics.mean(
        len(VectorSchedule(flat).rounds) for flat in flats_wide
    )
    scalar.close()
    rungs.append(("vector kernel, run(flat), 4096/batch", kernel_ns))

    # Scalar encoded loop and the string path, on request-sized batches.
    def run_flat() -> float:
        fleet = _fresh(instances, mode="encoded", **_FLEET)
        flats = [fleet.encode_flat(batch) for batch in narrow]
        try:
            return _run_all(fleet, flats, "flat")
        finally:
            fleet.close()

    def encode() -> float:
        fleet = _fresh(instances, mode="encoded", **_FLEET)
        try:
            return _timed(lambda: [fleet.encode_flat(batch) for batch in narrow])
        finally:
            fleet.close()

    def run_events(telemetry=None):
        def measure() -> float:
            fleet = _fresh(instances, mode="encoded", telemetry=telemetry, **_FLEET)
            try:
                return _run_all(fleet, narrow, "events")
            finally:
                fleet.close()

        return measure

    scalar_ns = _ns_per_event(_median_of(reps, run_flat), count)
    layer["fleet.run_flat_ns_per_event"] = scalar_ns
    layer["fleet.encode_ns_per_event"] = _ns_per_event(_median_of(reps, encode), count)
    plain = _median_of(reps, run_events())
    layer["fleet.run_events_ns_per_event"] = _ns_per_event(plain, count)
    layer["obs.telemetry_tax_share"] = _median_of(reps, run_events(True)) / plain - 1.0
    rungs.append(("scalar loop, run(flat), 512/batch", scalar_ns))
    rungs.append(("encode_flat", layer["fleet.encode_ns_per_event"]))
    rungs.append(("FleetEngine.run(events)", layer["fleet.run_events_ns_per_event"]))

    # One fleet for the remaining library quantities.
    from repro.serve import make_fleet

    fleet = make_fleet("commit", mode="encoded", **_FLEET)
    layer["fleet.spawn_us_per_instance"] = (
        _timed(lambda: fleet.spawn_many(instances)) * 1e6 / instances
    )
    posted = events[: min(count, 50_000)]
    post = fleet.post
    started = perf_counter()
    for key, message in posted:
        post(key, message)
    layer["mailbox.post_ns_per_event"] = _ns_per_event(
        perf_counter() - started, len(posted)
    )
    layer["mailbox.drain_ns_per_event"] = _ns_per_event(
        _timed(fleet.drain_all), len(posted)
    )
    _run_all(fleet, narrow, "events")
    metrics = fleet.metrics
    layer["fleet.fired_share"] = metrics.transitions_fired / metrics.events_dispatched
    started = perf_counter()
    snapshot = fleet.snapshot()
    layer["fleet.snapshot_ms"] = (perf_counter() - started) * 1e3
    layer["fleet.restore_ms"] = _timed(lambda: fleet.restore(snapshot)) * 1e3
    fleet.close()


def _process_rungs(
    events, instances: int, reps: int, layer: dict, rungs: list
) -> None:
    """One worker process: the pipe, then the journal."""
    from repro.serve import make_fleet

    count = len(events)
    narrow = inputs.batches_of(events, workloads.REQUEST_EVENTS)

    def run_events(journal: bool):
        def measure() -> float:
            fleet = make_fleet(
                "commit", mode="encoded", workers=1, journal=journal, **_FLEET
            )
            try:
                fleet.spawn_many(instances)
                return _run_all(fleet, narrow, "events")
            finally:
                fleet.close()

        return measure

    piped = _ns_per_event(_median_of(reps, run_events(False)), count)
    journaled = _ns_per_event(_median_of(reps, run_events(True)), count)
    layer["mpfleet.run_events_ns_per_event"] = piped
    layer["mpfleet.pipe_tax_ns_per_event"] = (
        piped - layer["fleet.run_events_ns_per_event"]
    )
    layer["recovery.journal_tax_ns_per_event"] = journaled - piped
    rungs.append(("MultiprocessFleet(workers=1).run(events)", piped))
    rungs.append(("+ journal=True", journaled))

    started = perf_counter()
    fleet = make_fleet("commit", mode="encoded", workers=1, **_FLEET)
    try:
        keys = fleet.spawn_many(instances)
        layer["mpfleet.spawn_s"] = perf_counter() - started
        probe = keys[:2000]
        state_name = fleet.state_name
        started = perf_counter()
        for key in probe:
            state_name(key)
        layer["mpfleet.sync_roundtrip_us"] = (
            (perf_counter() - started) * 1e6 / len(probe)
        )
        layer["mpfleet.snapshot_ms"] = _timed(fleet.snapshot) * 1e3
    finally:
        fleet.close()


def _drive(connection, requests, recorder: Recorder, span_name="request") -> tuple:
    """Closed loop over ``requests`` with one root span each (the twin of
    ``client.closed_loop``, which the untraced rung uses).  Returns
    ``(seconds, failed)``."""
    failed = 0
    roundtrip = connection.roundtrip
    started = perf_counter()
    for request in requests:
        recorder.current = span = recorder.begin(span_name)
        status, body = roundtrip(request.data)
        recorder.end(span)
        if status != 200 or not body.startswith(request.expect):
            failed += 1
    recorder.current = None
    return perf_counter() - started, failed


def _websocket_rung(port: int, events, recorder: Recorder, layer: dict) -> int:
    """``/ws`` deliver frames, one at a time.  Returns the failed frames."""
    frames = [
        WebSocketClient.frame(
            json.dumps({"op": "deliver", "key": key, "message": message}).encode()
        )
        for key, message in events
    ]
    failed = 0
    client = WebSocketClient(port)
    try:
        started = perf_counter()
        for frame in frames:
            recorder.current = span = recorder.begin("ws.frame")
            reply = client.roundtrip(frame)
            recorder.end(span)
            if not reply.startswith(b'{"fired"'):
                failed += 1
        recorder.current = None
        layer["gateway.ws_roundtrip_us"] = (
            (perf_counter() - started) * 1e6 / len(frames)
        )
    finally:
        client.close()
    return failed


def _scrape_rung(port: int, layer: dict) -> int:
    """``GET /metrics``: its cost, and the counters only the server knows."""
    with Connection(port) as scraper:
        started = perf_counter()
        status, text = scraper.roundtrip(get_request("/metrics", b"").data)
        layer["gateway.metrics_scrape_ms"] = (perf_counter() - started) * 1e3
    series = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    layer["recovery.checkpoints"] = series.get("fleet_checkpoints_total", 0.0)
    layer["gateway.errors"] = series.get("gateway_errors_total", 0.0)
    return int(status != 200)


def _gateway_rungs(
    events, seed: int, instances: int, layer: dict, rungs: list, recorder: Recorder
) -> int:
    """The gateway hosted in a thread of this process around a journaled
    one-worker fleet: batch bodies, then single events, reads, the mailbox
    path, a WebSocket and a scrape.  Returns the number of failed requests."""
    from repro.serve import make_fleet

    started = perf_counter()
    (requests,) = inputs.batch_requests(events, workloads.REQUEST_EVENTS, 1)
    sent_events = len(requests) * workloads.REQUEST_EVENTS
    layer["client.json_encode_ns_per_event"] = _ns_per_event(
        perf_counter() - started, sent_events
    )
    singles = inputs.single_requests(
        inputs.client_machine(), SINGLE_REQUESTS, seed + 2, instances
    )
    delivers = [request for request in singles if request.events]
    reads = [request for request in singles if not request.events]
    posts = [
        post_request("/post", {"key": key, "message": message}, b'{"accepted": true}')
        for key, message in inputs.delivered_events(delivers)
    ]
    drain = [post_request("/drain", {}, b'{"dispatched"')]

    def hosted(traced: bool):
        # Workers are forked before the gateway thread exists.
        fleet = make_fleet("commit", mode="encoded", workers=1, journal=True, **_FLEET)
        fleet.spawn_many(instances)
        return fleet, GatewayThread(SpanFleet(fleet, recorder) if traced else fleet)

    # Untraced twin first: same stack, no SpanFleet, no client spans.
    fleet, gateway = hosted(traced=False)
    try:
        with gateway, Connection(gateway.port) as connection, quiet_gc():
            untraced = closed_loop(connection, requests)
    finally:
        fleet.close()
    failed = untraced.failed
    rungs.append(
        (
            "+ FleetGateway, 512-event bodies",
            _ns_per_event(untraced.elapsed, sent_events),
        )
    )

    fleet, gateway = hosted(traced=True)
    try:
        with gateway:
            with Connection(gateway.port) as connection, quiet_gc():
                traced_s, bad = _drive(connection, requests, recorder)
                failed += bad
                own = recorder.self_times()["request"][2]
                layer["gateway.self_ns_per_event"] = _ns_per_event(own, sent_events)
                layer["gateway.bytes_per_event"] = (
                    connection.bytes_sent + connection.bytes_received
                ) / sent_events
                layer["trace.overhead_share"] = traced_s / untraced.elapsed - 1.0

                mark = len(recorder.spans)
                single_s, bad = _drive(connection, delivers, recorder)
                failed += bad
                own = recorder.self_times(since=mark)["request"][2]
                layer["gateway.self_us_per_request"] = own * 1e6 / len(delivers)
                rungs.append(
                    (
                        "+ FleetGateway, single event",
                        _ns_per_event(single_s, len(delivers)),
                    )
                )
                read_s, bad = _drive(connection, reads, recorder)
                failed += bad
                layer["gateway.state_read_us"] = read_s * 1e6 / len(reads)
                failed += _drive(connection, posts, recorder)[1]
                failed += _drive(connection, drain, recorder)[1]
            failed += _websocket_rung(
                gateway.port, inputs.delivered_events(delivers[:500]), recorder, layer
            )
            failed += _scrape_rung(gateway.port, layer)
    finally:
        fleet.close()
    return failed


def _open_loop_rung(seed: int, instances: int, layer: dict) -> int:
    """Latency at a fixed rate and how late the generator ran, against a
    server subprocess: the polling generator would starve a gateway thread
    of this process's interpreter lock.  Returns the failed requests."""
    machine = inputs.client_machine()
    requests = inputs.single_requests(machine, SINGLE_REQUESTS, seed + 3, instances)
    arrivals = inputs.poisson_arrivals(
        requests, workloads.OPEN_LOOP_RATE, workloads.CONNECTIONS, seed
    )
    with workloads.Server(workers=0, instances=instances) as server:
        pair = [Connection(server.port) for _ in range(workloads.CONNECTIONS)]
        try:
            with quiet_gc():
                opened = open_loop(pair, arrivals)
        finally:
            for connection in pair:
                connection.close()
    ordered = sorted(opened.latencies)
    layer["client.lat_p50_ms"] = percentile(ordered, 0.50) * 1e3
    layer["client.lat_p99_ms"] = percentile(ordered, 0.99) * 1e3
    layer["client.late_ms_p99"] = percentile(sorted(opened.lateness), 0.99) * 1e3
    return opened.failed


def _pipeline_rows(seed: int, trace_length: int, layer: dict) -> list:
    """The paper's pipeline, one row per gen-deploy input; the layer metrics
    are sums over the inputs (rates: geometric means)."""
    rows = [
        (name, workloads.deploy(name, trace_length, seed))
        for name in workloads.GEN_INPUTS
    ]
    stages = [row for _, row in rows]
    hierarchies = [row for name, row in rows if name.endswith("-hsm")]
    layer["core.generate_s"] = sum(row["generate_s"] for row in stages)
    layer["core.flatten_s"] = sum(row["generate_s"] for row in hierarchies)
    layer["core.states"] = sum(row["states"] for row in stages)
    layer["opt.pipeline_s"] = sum(row["opt_s"] for row in stages)
    layer["opt.states_removed"] = sum(row["states_removed"] for row in stages)
    layer["render.source_s"] = sum(row["render_s"] for row in stages)
    layer["render.source_bytes"] = sum(row["source_bytes"] for row in stages)
    layer["runtime.compile_s"] = sum(row["compile_s"] for row in stages)
    layer["runtime.interp_events_per_s"] = statistics.geometric_mean(
        row["interp_events_per_s"] for row in stages
    )
    layer["runtime.compiled_events_per_s"] = statistics.geometric_mean(
        row["compiled_events_per_s"] for row in stages
    )
    return rows


def run_ladder(
    workload: str, seed: int, seconds: float, instances=inputs.INSTANCES, reps: int = 3
) -> dict:
    """The traced run for one workload: its arrival scenario through every
    rung.  Returns the per-layer metrics, the ladder, the pipeline rows, the
    span table and the counts of operations attempted and failed."""
    from repro.serve import HAS_NUMPY

    if not HAS_NUMPY:
        raise workloads.Skipped("numpy unavailable")
    scenario = "hotkey" if workload == "bulk-hotkey" else "uniform"
    machine = inputs.client_machine()
    count = workloads.scaled(LADDER_EVENTS, seconds, floor=4 * workloads.BATCH_EVENTS)
    events = inputs.events_for(machine, scenario, count, seed, instances)
    layer: dict = {}
    rungs: list = []
    recorder = Recorder()
    _library_rungs(events, instances, reps, layer, rungs)
    _process_rungs(events, instances, reps, layer, rungs)
    failed = _gateway_rungs(events, seed, instances, layer, rungs, recorder)
    pipeline = _pipeline_rows(
        seed, workloads.scaled(workloads.GEN_TRACE_EVENTS, seconds, floor=200), layer
    )
    failed += sum(not row["correct"] for _, row in pipeline)
    # Last, because its generator polls: see workloads.gw_single.
    failed += _open_loop_rung(seed, instances, layer)
    workloads.WORK.mkdir(exist_ok=True)
    spans_path = workloads.WORK / f"spans-{workload}.json"
    recorder.write(spans_path)
    return {
        "scenario": scenario,
        "events": count,
        "layer": layer,
        "rungs": rungs,
        "pipeline": pipeline,
        "spans": recorder.self_times(),
        "spans_path": str(spans_path),
        "attempted": len(recorder.spans) + len(pipeline),
        "failed": failed,
    }
