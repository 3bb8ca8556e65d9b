"""The gateway's own loop: back-pressure, partial sends, read deadlines,
stopping from another thread, and the body decoder it feeds.

The loop runs under ``run_blocking`` on a thread of the test, the way the
CLI runs it on the main thread, and the clients are plain blocking
sockets, so nothing here imports asyncio except ``stop()``'s caller.
"""

import asyncio
import contextlib
import json
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.serve.gateway as gateway_module
from repro.serve import make_fleet
from repro.serve.gateway import FleetGateway, snapshot_to_json


@contextlib.contextmanager
def serving(fleet, **options):
    """A gateway over ``fleet`` served by ``run_blocking`` on a thread,
    stopped from this one on the way out."""
    gateway = FleetGateway(fleet, port=0, **options)
    bound = threading.Event()
    thread = threading.Thread(
        target=gateway.run_blocking,
        kwargs={"announce": lambda url: bound.set()},
        daemon=True,
    )
    thread.start()
    assert bound.wait(timeout=10)
    try:
        yield gateway
    finally:
        asyncio.run(gateway.stop())
        thread.join(timeout=10)
        assert not thread.is_alive()


def connect(port: int, receive_buffer: int = 0) -> socket.socket:
    """A client socket; a small ``receive_buffer`` makes a slow reader."""
    client = socket.socket()
    if receive_buffer:
        client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, receive_buffer)
    client.settimeout(10)
    client.connect(("127.0.0.1", port))
    return client


def get(path: str, close: bool = False) -> bytes:
    connection = "Connection: close\r\n" if close else ""
    return f"GET {path} HTTP/1.1\r\nHost: test\r\n{connection}\r\n".encode()


def post(path: str, body: bytes) -> bytes:
    head = f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}"
    return head.encode() + b"\r\n\r\n" + body


def read_replies(client: socket.socket, count: int) -> list:
    """``count`` whole replies as ``(status, body)``, read as they arrive."""
    data, replies = b"", []
    while len(replies) < count:
        head_end = data.find(b"\r\n\r\n")
        if head_end >= 0:
            head = data[:head_end].decode("latin-1")
            length = int(head.lower().split("content-length:")[1].split()[0])
            end = head_end + 4 + length
            if len(data) >= end:
                replies.append((int(head.split()[1]), data[head_end + 4 : end]))
                data = data[end:]
                continue
        chunk = client.recv(1 << 16)
        assert chunk, f"closed after {len(replies)} of {count} replies"
        data += chunk
    assert data == b""
    return replies


def wait_for(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_a_client_that_stops_reading_is_paused_while_others_are_served():
    fleet = make_fleet("commit", mode="encoded")
    keys = fleet.spawn_many(2000)
    snapshot = snapshot_to_json(fleet.snapshot())
    paths = [p for i in range(40) for p in ("/snapshot", f"/state?key={keys[i]}")]
    try:
        with serving(fleet, read_timeout=1.0) as gateway:
            with connect(gateway.port, receive_buffer=4096) as slow:
                slow.sendall(b"".join(get(path) for path in paths))
                # About 5.5 MB of replies: the kernel holds a fraction, the
                # gateway keeps at most one reply past the high-water mark
                # and then stops reading and answering this connection.
                assert wait_for(lambda: any(c._paused for c in gateway._connections))
                served = gateway._requests.value
                assert served < len(paths)
                with connect(gateway.port) as other:
                    other.sendall(get("/healthz", close=True))
                    ((status, _),) = read_replies(other, 1)
                    assert status == 200
                # A paused connection waits for its client, past the read
                # deadline, without a 408.
                time.sleep(1.5)
                assert any(c._paused for c in gateway._connections)
                replies = read_replies(slow, len(paths))
            assert [status for status, _ in replies] == [200] * len(paths)
            for path, (_, body) in zip(paths, replies):
                if path == "/snapshot":
                    assert json.loads(body) == snapshot
                else:
                    assert json.loads(body)["key"] == path.rsplit("=", 1)[1]
            assert gateway._errors.value == 0
    finally:
        fleet.close()


def test_a_reply_larger_than_the_socket_buffers_arrives_whole():
    fleet = make_fleet("commit", mode="encoded")
    fleet.spawn_many(2000)
    expected = snapshot_to_json(fleet.snapshot())
    try:
        with serving(fleet) as gateway:
            with connect(gateway.port, receive_buffer=4096) as client:
                client.sendall(get("/snapshot", close=True))
                time.sleep(0.2)  # the first send is partial, the rest kept
                data = b""
                while chunk := client.recv(1 << 12):
                    data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == expected
    finally:
        fleet.close()


def test_every_reply_pushes_the_read_deadline_forward():
    fleet = make_fleet("commit", mode="encoded")
    (key,) = fleet.spawn_many(1)
    try:
        with serving(fleet, read_timeout=0.5) as gateway:
            with connect(gateway.port) as client:
                # Three read timeouts' worth of steady keep-alive traffic.
                for _ in range(10):
                    client.sendall(get(f"/state?key={key}"))
                    ((status, _),) = read_replies(client, 1)
                    assert status == 200
                    time.sleep(0.15)
                # Then idle: answered 408 and closed.
                ((status, body),) = read_replies(client, 1)
                assert status == 408 and b"timed out" in body
                assert client.recv(1) == b""
    finally:
        fleet.close()


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_reads_on_a_first_connection_map_no_memory(tmp_path):
    """A read buffer past the mmap threshold costs page faults on every
    ``recv`` of a served process's first connection."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    port_file = tmp_path / "port"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--port-file", str(port_file),
        ],
        # glibc's default mmap threshold, pinned: no large block freed
        # earlier in the process can raise it, so every run sees it.
        env={
            **os.environ,
            "PYTHONPATH": str(src),
            "MALLOC_MMAP_THRESHOLD_": str(128 << 10),
        },
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )  # fmt: skip

    def minor_faults() -> int:
        stat = pathlib.Path(f"/proc/{server.pid}/stat").read_text()
        return int(stat.rpartition(")")[2].split()[7])

    deliver = post("/deliver", b'{"key": "k", "message": "vote"}')
    requests = [deliver, get("/state?key=k")]
    try:
        deadline = time.monotonic() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            assert server.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        with connect(int(port_file.read_text())) as client:
            client.sendall(post("/spawn", b'{"key": "k"}'))
            read_replies(client, 1)
            for request in requests * 50:  # warm up
                client.sendall(request)
                read_replies(client, 1)
            before = minor_faults()
            for request in requests * 1000:
                client.sendall(request)
                read_replies(client, 1)
            faults = minor_faults() - before
        assert faults < 0.1 * 2000, f"{faults} minor faults in 2000 requests"
    finally:
        server.kill()
        server.wait()


def test_stop_from_another_thread_closes_idle_keepalive_connections():
    fleet = make_fleet("commit", mode="encoded")
    try:
        with contextlib.ExitStack() as stack:
            gateway = stack.enter_context(serving(fleet))
            idle = [stack.enter_context(connect(gateway.port)) for _ in range(3)]
            for client in idle:
                client.sendall(get("/healthz"))
                ((status, _),) = read_replies(client, 1)
                assert status == 200
            assert len(gateway._connections) == 3
            asyncio.run(gateway.stop())
            for client in idle:
                assert client.recv(1) == b""
            assert wait_for(lambda: not gateway._connections)
    finally:
        fleet.close()


def test_a_frame_that_fails_to_serve_closes_its_connection_alone():
    fleet = make_fleet("commit", mode="encoded")
    upgrade = (
        b"GET /ws HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
        b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
    )
    # Nested past the recursion limit: decoding raises RecursionError,
    # which no /ws reply path catches.
    nested = b"[" * 5000
    try:
        with serving(fleet) as gateway:
            with connect(gateway.port) as client:
                client.sendall(upgrade)
                assert client.recv(1 << 12).startswith(b"HTTP/1.1 101")
                client.sendall(b"\x81\x7e" + len(nested).to_bytes(2, "big") + nested)
                assert client.recv(1) == b""
            assert gateway._errors.value == 1
            with connect(gateway.port) as other:
                other.sendall(get("/healthz", close=True))
                ((status, _),) = read_replies(other, 1)
                assert status == 200
    finally:
        fleet.close()


def test_a_loop_that_crashes_raises_where_it_is_awaited():
    fleet = make_fleet("commit", mode="encoded")
    gateway = FleetGateway(fleet, port=0)
    gateway._accept = lambda server: 1 / 0

    async def main():
        await gateway.start()
        with contextlib.suppress(ConnectionError):  # reset as the loop fails
            connect(gateway.port).close()
        with pytest.raises(ZeroDivisionError):
            await asyncio.wait_for(gateway.serve_until_shutdown(), timeout=10)
        with pytest.raises(ZeroDivisionError):
            await gateway.stop()

    try:
        asyncio.run(main())
        assert all(server.fileno() == -1 for server in gateway._server)
    finally:
        fleet.close()


def test_the_host_is_served_on_every_address_it_resolves_to():
    found = socket.getaddrinfo(None, 0, 0, socket.SOCK_STREAM, 0, socket.AI_PASSIVE)
    loopback = {socket.AF_INET: "127.0.0.1", socket.AF_INET6: "::1"}
    fleet = make_fleet("commit", mode="encoded")
    try:
        with serving(fleet, host="") as gateway:
            families = sorted(server.family for server in gateway._server)
            assert families == sorted(info[0] for info in found)
            for server in gateway._server:
                if server.family == socket.AF_INET6:  # IPv6 only, as asyncio
                    option = server.getsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY)
                    assert option == 1
                address = (loopback[server.family], gateway.port)
                with socket.create_connection(address, timeout=10) as client:
                    client.sendall(get("/healthz", close=True))
                    ((status, _),) = read_replies(client, 1)
                    assert status == 200
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# bodies and /ws frames decode exactly as json.loads decodes them
# ----------------------------------------------------------------------

_FAST = gateway_module._json_loads
_VALID = {"key": "session-0000001", "message": "update"}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["key", "message", "events", "op"]), inner),
    max_leaves=6,
)
#: Ways a client can frame a JSON text that ``json.loads`` accepts or
#: refuses with a message of its own.
_FRAMINGS = [
    lambda text: text.encode(),
    lambda text: b"\xef\xbb\xbf" + text.encode(),  # UTF-8 BOM
    lambda text: text.encode("utf-16"),
    lambda text: text.encode("utf-32-le"),
    lambda text: f" \n{text}\t".encode(),
    lambda text: text.encode() + b" x",  # extra data after the value
    lambda text: text.encode() + b"\xff",  # not UTF-8
    lambda text: text.encode()[:-1],
    lambda text: text.encode("utf-8", "surrogatepass") + b'"\xed\xa0\x80"',
]


@pytest.fixture(scope="module")
def twins():
    """Two gateways over fleets that start alike and are sent alike."""
    fleets = [make_fleet("commit", mode="encoded") for _ in range(2)]
    for fleet in fleets:
        fleet.spawn_many(4)
    yield [FleetGateway(fleet, port=0) for fleet in fleets]
    for fleet in fleets:
        fleet.close()


def _answers(gateway, decode, body: bytes) -> list:
    """Every reply ``body`` gets, with ``decode`` as the gateway's decoder."""
    gateway_module._json_loads = decode
    try:
        return [
            *(gateway._route("POST", path, body) for path in ("/deliver", "/post")),
            gateway._ws_reply(body),
        ]
    finally:
        gateway_module._json_loads = _FAST


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.one_of(st.just(_VALID), _JSON_VALUES).map(json.dumps),
            st.sampled_from(_FRAMINGS),
        ).map(lambda pair: pair[1](pair[0])),
        st.binary(max_size=24),
    )
)
@example(json.dumps(_VALID).encode() + b" x")
@example(json.dumps(_VALID).encode() + b"\n")
@example(b'{"key": "session-0000001", "message": "update"}{}')
@example(b"\xef\xbb\xbf" + json.dumps(_VALID).encode())
@example(json.dumps(_VALID).encode("utf-16-be"))
@example(b'{"key": "\xed\xa0\x80", "message": "update"}')
@example(b"NaN")
@example(b"")
def test_bodies_decode_as_json_loads_decodes_them(twins, body):
    fast, reference = twins
    assert _answers(fast, _FAST, body) == _answers(reference, json.loads, body)
    assert len(fast.fleet) == len(reference.fleet)
