"""In-process gateway tests: HTTP endpoints, error shapes, WebSocket.

Each test boots a :class:`FleetGateway` on an ephemeral port inside one
``asyncio.run`` and speaks raw HTTP/1.1 (and raw RFC 6455 frames) over
``asyncio.open_connection`` — no client library, same as the gateway
itself.  The closing test is the operability contract in miniature: the
snapshot scraped over HTTP restores into a fresh in-process fleet that
then matches the served fleet trace-for-trace.
"""

import asyncio
import base64
import hashlib
import json
import os

import pytest

from repro.serve import diff_fleets, make_fleet
from repro.serve.gateway import FleetGateway, snapshot_from_json, snapshot_to_json


async def http(reader, writer, method, path, payload=None):
    """One HTTP/1.1 request on a kept-alive connection."""
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    data = await reader.readexactly(int(headers.get("content-length", "0")))
    if headers.get("content-type", "").startswith("application/json"):
        return status, json.loads(data)
    return status, data.decode()


def gateway_test(body, fleet_kwargs=None, **gateway_kwargs):
    """Run ``body(gateway, reader, writer)`` against a live gateway over an
    in-process fleet, or one built with ``fleet_kwargs``."""

    async def main():
        fleet = make_fleet("commit", mode="encoded", **(fleet_kwargs or {}))
        gateway = FleetGateway(fleet, port=0, **gateway_kwargs)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                await body(gateway, reader, writer)
            finally:
                writer.close()
        finally:
            await gateway.stop()
            fleet.close()

    asyncio.run(main())


def test_healthz_spawn_deliver_state():
    async def body(gateway, reader, writer):
        status, out = await http(reader, writer, "GET", "/healthz")
        assert (status, out) == (200, {"status": "ok", "instances": 0})
        status, out = await http(
            reader, writer, "POST", "/spawn", {"count": 3}
        )
        assert status == 200 and len(out["spawned"]) == 3
        key = out["spawned"][0]
        status, out = await http(
            reader, writer, "POST", "/deliver", {"key": key, "message": "update"}
        )
        assert (status, out) == (200, {"fired": True})
        status, out = await http(reader, writer, "GET", f"/state?key={key}")
        assert status == 200 and out["key"] == key and not out["finished"]
        status, out = await http(reader, writer, "GET", f"/trace?key={key}")
        assert status == 200 and isinstance(out["actions"], list)
        status, out = await http(
            reader, writer, "POST", "/post", {"key": key, "message": "vote"}
        )
        assert (status, out) == (200, {"accepted": True})
        status, out = await http(reader, writer, "POST", "/drain")
        assert (status, out) == (200, {"dispatched": 1})

    gateway_test(body)


def test_error_shapes_carry_over_the_wire():
    async def body(gateway, reader, writer):
        status, out = await http(
            reader, writer, "POST", "/deliver",
            {"key": "ghost", "message": "update"},
        )
        assert (status, out["error"]) == (400, "unknown instance 'ghost'")
        status, out = await http(reader, writer, "GET", "/nope")
        assert status == 404 and "unknown path" in out["error"]
        status, out = await http(reader, writer, "POST", "/deliver", None)
        assert status == 400 and "missing field" in out["error"]
        status, out = await http(reader, writer, "GET", "/spawn")
        assert status == 405
        writer.write(b"POST /deliver HTTP/1.1\r\nContent-Length: 3\r\n\r\nzzz")
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        assert status == 400  # not JSON
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        await reader.readexactly(length)
        # Connection survives the malformed request (keep-alive).
        status, out = await http(reader, writer, "GET", "/healthz")
        assert status == 200

    gateway_test(body)


@pytest.mark.parametrize(
    "method, path, refusal",
    [
        ("POST", "/state?key=session-0000000", "use GET /state?key=..."),
        ("DELETE", "/trace?key=session-0000000", "use GET /trace?key=..."),
        ("POST", "/metrics", "use GET /metrics"),
    ],
    ids=["state", "trace", "metrics"],
)
def test_get_only_endpoints_refuse_other_methods(method, path, refusal):
    # At the parent these three answered 200 to any method.
    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 1})
        status, out = await http(reader, writer, method, path)
        assert (status, out) == (405, {"error": refusal})
        assert gateway._errors.value == 1
        status, _ = await http(reader, writer, "GET", path)
        assert status == 200

    gateway_test(body)


def test_shutdown_is_gated():
    async def body(gateway, reader, writer):
        status, out = await http(reader, writer, "POST", "/shutdown")
        assert status == 403 and "remote shutdown disabled" in out["error"]

    gateway_test(body)


def test_shutdown_stops_the_server_when_allowed():
    async def main():
        fleet = make_fleet("commit", mode="encoded")
        gateway = FleetGateway(fleet, port=0, allow_remote_shutdown=True)
        serving = asyncio.ensure_future(gateway.serve_until_shutdown())
        await asyncio.sleep(0)  # let it bind
        while gateway._server is None:
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", gateway.port
        )
        status, out = await http(reader, writer, "POST", "/shutdown")
        assert (status, out) == (200, {"status": "shutting down"})
        writer.close()
        await asyncio.wait_for(serving, timeout=5)
        fleet.close()

    asyncio.run(main())


def test_metrics_exposes_fleet_and_gateway_series():
    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 2})
        status, out = await http(reader, writer, "GET", "/healthz")
        assert status == 200
        status, text = await http(reader, writer, "GET", "/metrics")
        assert status == 200
        assert "gateway_requests_total" in text
        assert "gateway_request_seconds" in text
        assert "fleet_instances_spawned_total 2" in text

    gateway_test(body)


def test_snapshot_scrape_restores_into_fresh_fleet():
    async def body(gateway, reader, writer):
        status, out = await http(
            reader, writer, "POST", "/spawn", {"count": 6}
        )
        keys = out["spawned"]
        events = [[key, "update"] for key in keys] + [
            [keys[0], "vote"], [keys[3], "vote"]
        ]
        status, out = await http(
            reader, writer, "POST", "/deliver", {"events": events}
        )
        assert (status, out) == (200, {"dispatched": len(events)})
        status, snap = await http(reader, writer, "GET", "/snapshot")
        assert status == 200

        replica = make_fleet("commit", mode="naive")
        replica.restore(snapshot_from_json(snap))
        assert diff_fleets(gateway.fleet, replica, keys) == []
        replica.close()

        # And the wire snapshot restores back through the gateway too.
        status, out = await http(reader, writer, "POST", "/restore", snap)
        assert (status, out) == (200, {"restored": len(keys)})

    gateway_test(body)


#: Wire snapshots whose types are wrong, as (field, value, the error's
#: start).  Before the checks ``snapshot_from_json`` accepted them all:
#: the int key reached the fleet, which cleared its population and then
#: failed with a 500; the int state was refused only by the fleet; "ab"
#: restored as the actions ('a', 'b'); and a ``lost`` manifest of "ab"
#: or a dict made a bogus partial snapshot of the lost keys ('a', 'b')
#: or the dict's keys.
MISTYPED_SNAPSHOTS = {
    "int-key": ("instances", {"key": 5, "state": "T/0/F/0/F/F/F", "actions": []}),
    "int-state": ("instances", {"key": "fresh", "state": 3, "actions": []}),
    "str-actions": (
        "instances",
        {"key": "fresh", "state": "T/0/F/0/F/F/F", "actions": "ab"},
    ),
    "str-lost": ("lost", "ab"),
    "dict-lost": ("lost", {"fresh": 1}),
    "int-in-lost": ("lost", ["fresh", 7]),
}


@pytest.mark.parametrize("kind", sorted(MISTYPED_SNAPSHOTS))
@pytest.mark.parametrize("partial", ["", "?partial=1"], ids=["whole", "partial"])
def test_mistyped_snapshot_is_a_400_and_restores_nothing(kind, partial):
    field, value = MISTYPED_SNAPSHOTS[kind]

    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 2})
        status, snap = await http(reader, writer, "GET", "/snapshot")
        if field == "lost":
            snap["lost"] = value
            error = "malformed snapshot payload: 'lost' must be a list of strings"
        else:
            snap["instances"].append(value)
            error = "malformed snapshot payload: instance 2"
        status, out = await http(reader, writer, "POST", "/restore" + partial, snap)
        assert status == 400
        assert out["error"].startswith(error)
        assert len(gateway.fleet) == 2
        assert "fresh" not in gateway.fleet

    gateway_test(body)


async def ws_open(reader, writer):
    """Upgrade this connection to ``/ws``; returns the ``ws(obj)``
    coroutine that sends one masked JSON text frame and parses the reply."""
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            "GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    status_line = await reader.readline()
    assert b"101" in status_line
    accept = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if line.lower().startswith(b"sec-websocket-accept:"):
            accept = line.split(b":", 1)[1].strip().decode()
    expected = base64.b64encode(
        hashlib.sha1(
            (key + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11").encode()
        ).digest()
    ).decode()
    assert accept == expected

    async def ws(obj):
        payload = json.dumps(obj).encode()
        mask = os.urandom(4)
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        writer.write(bytes((0x81, 0x80 | len(payload))) + mask + masked)
        await writer.drain()
        head = await reader.readexactly(2)
        length = head[1] & 0x7F
        if length == 126:
            length = int.from_bytes(await reader.readexactly(2), "big")
        return json.loads(await reader.readexactly(length))

    return ws


def test_websocket_roundtrip():
    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 2})
        ws = await ws_open(reader, writer)
        assert (await ws({"op": "len"})) == {"instances": 2}
        out = await ws(
            {"op": "deliver", "key": "session-0000000", "message": "update"}
        )
        assert out == {"fired": True}
        out = await ws({"op": "state", "key": "session-0000000"})
        assert out["key"] == "session-0000000"
        out = await ws({"op": "deliver", "key": "ghost", "message": "x"})
        assert out == {"error": "unknown instance 'ghost'"}
        out = await ws({"op": "warp"})
        assert "unknown op" in out["error"]
        # Clean close handshake.
        mask = os.urandom(4)
        writer.write(bytes((0x88, 0x80)) + mask)
        await writer.drain()
        frame = await reader.readexactly(2)
        assert frame[0] & 0x0F == 0x8

    gateway_test(body)


# ---------------------------------------------------------------------------
# mistyped fields: the client's 400, never a 500 with an exception name
# ---------------------------------------------------------------------------

_STRING = "field {!r} must be a string".format
_COUNT = "field 'count' must be a non-negative integer"

#: (path, payload, refusal).  At the parent the first three and every
#: /deliver and /post row answered 500 with a Python exception name
#: (ValueError, TypeError, AttributeError: 'int' object has no attribute
#: 'encode', TypeError: unhashable type); the rest answered 200 and
#: spawned 2, nothing, 1, and keys named "7-0000000".
MISTYPED = [
    ("/spawn", {"count": "x"}, _COUNT),
    ("/spawn", {"count": None}, _COUNT),
    ("/spawn", {"key": 5}, _STRING("key")),
    ("/spawn", {"count": 2.7}, _COUNT),
    ("/spawn", {"count": -3}, _COUNT),
    ("/spawn", {"count": True}, _COUNT),
    ("/spawn", {"count": 1, "prefix": 7}, _STRING("prefix")),
    ("/deliver", {"key": ["a"], "message": "update"}, _STRING("key")),
    ("/deliver", {"key": "session-0000000", "message": ["x"]}, _STRING("message")),
    ("/post", {"key": ["a"], "message": "update"}, _STRING("key")),
    ("/post", {"key": "session-0000000", "message": ["x"]}, _STRING("message")),
]


@pytest.mark.parametrize(
    "path, payload, refusal",
    MISTYPED,
    ids=[f"{path} {json.dumps(payload)}" for path, payload, _ in MISTYPED],
)
def test_mistyped_field_is_a_counted_400(path, payload, refusal):
    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 1})
        status, out = await http(reader, writer, "POST", path, payload)
        assert (status, out) == (400, {"error": refusal})
        assert gateway._errors.value == 1
        # Nothing was spawned or delivered, and the connection lives on.
        status, out = await http(reader, writer, "GET", "/state?key=session-0000000")
        assert status == 200 and out["state"] == gateway.fleet.machine.start_state.name
        assert len(gateway.fleet) == 1

    gateway_test(body)


#: The gateway's two production shapes: in-process, and two journaled
#: workers (the ``gw-batch-mp`` server).
GATEWAY_FLEETS = {"inproc": {}, "mp-journal": {"workers": 2, "journal": True}}

#: ``{"events": ...}`` bodies that are not ``[[key, message], ...]`` of
#: strings.  The two-key object names a spawned instance and a real
#: message, so it would unpack into a valid pair if it were not refused.
MALFORMED_BATCHES = [
    7,
    "ab",
    {"session-0000000": "update"},
    ["ab"],
    [None],
    [{"session-0000000": 1, "update": 2}],
    [["session-0000000"]],
    [["session-0000000", "update", "update"]],
    [[5, "update"]],
    [["session-0000000", 5]],
    [[["session-0000000"], "update"]],
    [["session-0000000", ["update"]]],
    [["session-0000000", "update"], ["session-0000001"]],
    [["session-0000000", "update"], ["ghost", {"update": 1}]],
]


@pytest.mark.parametrize("shape", sorted(GATEWAY_FLEETS))
def test_malformed_batch_is_refused_whole(shape):
    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 3})
        _, before = await http(reader, writer, "GET", "/snapshot")
        for events in MALFORMED_BATCHES:
            status, out = await http(
                reader, writer, "POST", "/deliver", {"events": events}
            )
            assert (status, out) == (
                400,
                {"error": "events must be [[key, message], ...]"},
            ), events
            # Nothing was dispatched, not even the well-formed pairs.
            assert await http(reader, writer, "GET", "/snapshot") == (200, before)
        assert gateway.fleet.metrics.events_dispatched == 0

    gateway_test(body, GATEWAY_FLEETS[shape])


@pytest.mark.parametrize("shape", sorted(GATEWAY_FLEETS))
def test_batch_with_unknown_keys_dispatches_the_valid_events(shape):
    valid = [["session-0000000", "update"], ["session-0000002", "update"]]
    unknown = [["ghost", "update"], ["session-0000001", "flarp"]]
    with make_fleet("commit") as reference:
        reference.spawn_many(3)
        reference.run([tuple(event) for event in valid])
        expected = snapshot_to_json(reference.snapshot())["instances"]

    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 3})
        events = [valid[0], unknown[0], valid[1], unknown[1]]
        status, out = await http(
            reader, writer, "POST", "/deliver", {"events": events}
        )
        assert (status, out["error"]) == (
            400,
            "dispatch rejected 2 event(s) with unknown instance or message: "
            "('ghost', 'update'), ('session-0000001', 'flarp')",
        )
        _, snap = await http(reader, writer, "GET", "/snapshot")
        by_key = {inst["key"]: inst for inst in snap["instances"]}
        assert by_key == {inst["key"]: inst for inst in expected}
        assert gateway.fleet.metrics.events_dispatched == len(valid)

    gateway_test(body, GATEWAY_FLEETS[shape])


WS_ERROR_FRAMES = [
    ({"op": "deliver", "key": ["a"], "message": "update"}, _STRING("key")),
    ({"op": "deliver", "key": 5, "message": "update"}, _STRING("key")),
    ({"op": "post", "key": "session-0000000", "message": ["x"]}, _STRING("message")),
    ({"op": "state", "key": 5}, _STRING("key")),
    ({"op": "state"}, "missing field(s): key"),
    ({"op": "deliver", "key": "nope", "message": "update"}, "unknown instance 'nope'"),
    ({"op": "bogus"}, "unknown op 'bogus'"),
    (["op", "len"], "malformed frame: 'list' object has no attribute 'get'"),
]


@pytest.mark.parametrize(
    "frame, refusal",
    WS_ERROR_FRAMES,
    ids=[json.dumps(frame) for frame, _ in WS_ERROR_FRAMES],
)
def test_websocket_error_reply_is_a_counted_error(frame, refusal):
    # Every /ws error reply counts, as every HTTP status >= 400 does; the
    # last three rows (unknown instance, unknown op, not an object) were
    # answered but not counted.
    async def body(gateway, reader, writer):
        await http(reader, writer, "POST", "/spawn", {"count": 1})
        ws = await ws_open(reader, writer)
        assert await ws(frame) == {"error": refusal}
        assert gateway._errors.value == 1
        assert await ws({"op": "len"}) == {"instances": 1}

    gateway_test(body)


# ---------------------------------------------------------------------------
# gateway hardening: read timeout, body cap, graceful degradation
# ---------------------------------------------------------------------------


async def raw_http(reader, writer, request: bytes):
    """Send raw bytes; return (status, headers, parsed JSON body)."""
    writer.write(request)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, json.loads(body)


def test_stalled_request_times_out_with_408():
    async def body(gateway, reader, writer):
        # A request line with headers that never finish: the reader
        # coroutine must not be held hostage.
        writer.write(b"POST /deliver HTTP/1.1\r\nHost: test\r\n")
        await writer.drain()
        status, headers, out = await raw_http(reader, writer, b"")
        assert status == 408
        assert "timed out" in out["error"]
        assert headers["connection"] == "close"

    gateway_test(body, read_timeout=0.2)


def test_unfinished_body_times_out_with_408():
    async def body(gateway, reader, writer):
        # Content-Length promises more bytes than the client ever sends.
        writer.write(
            b"POST /deliver HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 500\r\n\r\n{\"key\":"
        )
        await writer.drain()
        status, _headers, out = await raw_http(reader, writer, b"")
        assert status == 408
        assert "timed out" in out["error"]

    gateway_test(body, read_timeout=0.2)


def test_oversized_body_refused_with_413():
    async def body(gateway, reader, writer):
        status, headers, out = await raw_http(
            reader,
            writer,
            b"POST /restore HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 4096\r\n\r\n",  # body intentionally unsent
        )
        assert status == 413
        assert "exceeds" in out["error"]
        # Refused before the body was read: the connection closes.
        assert headers["connection"] == "close"

    gateway_test(body, max_body=1024)


class _RecoveringFleet:
    """Fleet stub pinned in a recovery window."""

    def __init__(self):
        from repro.serve import FleetRecoveringError

        self._error = FleetRecoveringError(
            "fleet worker 0 is recovering; retry shortly",
            worker_id=0,
            retry_after=1.5,
        )

    def __len__(self):
        return 4

    def deliver(self, key, message):
        raise self._error

    def state_name(self, key):
        raise self._error

    def check_workers(self):
        return ["recovering", "live"]

    def worker_pids(self):
        return [1111, 2222]

    def close(self):
        pass


def test_recovering_partition_degrades_to_503_with_retry_after():
    async def main():
        gateway = FleetGateway(_RecoveringFleet(), port=0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                payload = json.dumps(
                    {"key": "session-0000000", "message": "update"}
                ).encode()
                status, headers, out = await raw_http(
                    reader,
                    writer,
                    b"POST /deliver HTTP/1.1\r\nHost: test\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload,
                )
                assert status == 503
                assert headers["retry-after"] == "2"  # ceil(1.5)
                assert out["retry_after"] == 1.5
                assert "recovering" in out["error"]
                # The connection survives a 503 (keep-alive, not close):
                # /healthz reports the per-worker lifecycle states.
                status, out = await http(reader, writer, "GET", "/healthz")
                assert status == 200
                assert out["status"] == "recovering"
                assert out["workers"] == ["recovering", "live"]
                assert out["pids"] == [1111, 2222]
            finally:
                writer.close()
        finally:
            await gateway.stop()

    asyncio.run(main())


def test_healthz_surfaces_worker_states_on_mp_fleet():
    async def main():
        fleet = make_fleet("commit", mode="encoded", workers=2)
        gateway = FleetGateway(fleet, port=0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                status, out = await http(reader, writer, "GET", "/healthz")
                assert status == 200
                assert out["status"] == "ok"
                assert out["workers"] == ["live", "live"]
                assert len(out["pids"]) == 2
            finally:
                writer.close()
        finally:
            await gateway.stop()
            fleet.close()

    asyncio.run(main())


def test_partial_snapshot_carries_lost_manifest_over_the_wire():
    async def main():
        fleet = make_fleet("commit", mode="encoded", workers=2)
        gateway = FleetGateway(fleet, port=0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                status, out = await http(
                    reader, writer, "POST", "/spawn", {"count": 8}
                )
                assert status == 200
                keys = out["spawned"]
                casualties = sorted(
                    k for k in keys if fleet.worker_of(k) == 1
                )
                fleet._workers[1].process.kill()
                fleet._workers[1].process.join()
                # Strict snapshot refuses over the wire too.
                status, out = await http(reader, writer, "GET", "/snapshot")
                assert status == 400
                assert "cannot snapshot" in out["error"]
                status, wire = await http(
                    reader, writer, "GET", "/snapshot?partial=1"
                )
                assert status == 200
                assert sorted(wire["lost"]) == casualties
                # The wire form round-trips the manifest, and restore
                # enforces the same strictness.
                snapshot = snapshot_from_json(wire)
                assert sorted(snapshot.lost) == casualties
                status, out = await http(
                    reader, writer, "POST", "/restore", wire
                )
                assert status == 400
                assert "snapshot is partial" in out["error"]
                status, out = await http(
                    reader, writer, "POST", "/restore?partial=1", wire
                )
                assert status == 400  # fleet has a dead worker
            finally:
                writer.close()
        finally:
            await gateway.stop()
            fleet.close()

    asyncio.run(main())
