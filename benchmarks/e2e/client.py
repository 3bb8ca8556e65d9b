"""The load generator: raw keep-alive sockets, closed and open loops.

One client process, at most two connections.  Requests are serialised to
bytes before any clock starts and sent over ``TCP_NODELAY`` sockets on
loopback; nothing here imports the program under test.

* :func:`closed_loop` sends a connection's next request only after the
  previous reply arrived — callers that each wait for an answer.
* :func:`open_loop` sends on a fixed schedule whatever the server does
  (requests are pipelined on their connection) and times each request
  **from its due time**, so a stall is charged to every request it
  delays.  It also reports how late the generator itself ran.
"""

from __future__ import annotations

import base64
import contextlib
import gc
import json
import os
import socket
from collections import deque
from dataclasses import dataclass
from time import perf_counter

_HEADER_END = b"\r\n\r\n"
_LENGTH = b"content-length:"


@dataclass(frozen=True)
class Request:
    """One pre-serialised HTTP request and the cheap check of its reply."""

    data: bytes
    #: The reply body must start with this (``b'{"dispatched": 512}'`` pins
    #: the batch size; ``b'{"fired"'`` only the shape).
    expect: bytes
    #: The ``(key, message)`` events the request delivers (empty for reads).
    events: tuple = ()


def post_request(path: str, payload, expect: bytes, events=()) -> Request:
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return Request(head.encode("latin-1") + body, expect, tuple(events))


#: ``POST /shutdown`` that also ends its own connection, so the server has no
#: reader left to cancel when its event loop winds down.
SHUTDOWN = (
    b"POST /shutdown HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
    b"Content-Length: 0\r\n\r\n"
)


def get_request(target: str, expect: bytes) -> Request:
    return Request(
        f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1"), expect
    )


def _split_response(buffer: bytes):
    """``(status, body, rest)`` for the first complete response, else ``None``."""
    end = buffer.find(_HEADER_END)
    if end < 0:
        return None
    head = buffer[:end]
    at = head.lower().find(_LENGTH)
    length = 0
    if at >= 0:
        stop = head.find(b"\r\n", at)
        length = int(head[at + len(_LENGTH) : stop if stop >= 0 else None])
    body_start = end + len(_HEADER_END)
    if len(buffer) < body_start + length:
        return None
    status = int(head[9:12])
    return status, buffer[body_start : body_start + length], buffer[
        body_start + length :
    ]


class Connection:
    """A keep-alive HTTP/1.1 client connection over a raw socket."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.bytes_sent = 0
        self.bytes_received = 0

    def roundtrip(self, data: bytes) -> tuple[int, bytes]:
        """Send one request, block for its reply: ``(status, body)``."""
        self.sock.sendall(data)
        self.bytes_sent += len(data)
        buffer = self._buffer
        while True:
            parsed = _split_response(buffer)
            if parsed is not None:
                status, body, self._buffer = parsed
                return status, body
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection mid-reply")
            self.bytes_received += len(chunk)
            buffer += chunk

    def get_json(self, target: str):
        status, body = self.roundtrip(get_request(target, b"").data)
        if status != 200:
            raise ConnectionError(f"GET {target} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class LoopResult:
    """What one loop measured; latencies in seconds, in completion order."""

    latencies: list
    elapsed: float
    failed: int
    #: Open loop only: send time minus due time per request.
    lateness: list


@contextlib.contextmanager
def quiet_gc():
    """Keep the client's own garbage collector out of the timed loops: a
    full collection over the pre-built requests pauses the generator for
    tens of milliseconds, which the server would be blamed for."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def closed_loop(connection: Connection, requests) -> LoopResult:
    """Every request back-to-back on one connection, each after the last reply."""
    latencies: list = []
    failed = 0
    roundtrip = connection.roundtrip
    started = perf_counter()
    for request in requests:
        sent = perf_counter()
        status, body = roundtrip(request.data)
        latencies.append(perf_counter() - sent)
        if status != 200 or not body.startswith(request.expect):
            failed += 1
    return LoopResult(latencies, perf_counter() - started, failed, [])


def open_loop(connections, arrivals) -> LoopResult:
    """Send ``arrivals`` — ``(due offset s, connection index, Request)`` in due
    order — each at its due time, from one thread, without waiting for
    replies.  Latency runs from the due time to the reply's arrival.

    The loop never sleeps: it polls the clock and the non-blocking sockets.
    A sleeping generator is woken 0.1-1.5 ms late on a virtual CPU, which
    would be charged to the server; polling costs one CPU, which a host
    with two has to spare beside a single-threaded gateway.
    """
    sockets = [connection.sock for connection in connections]
    in_flight = [deque() for _ in sockets]
    buffers = [b"" for _ in sockets]
    latencies: list = []
    lateness: list = []
    failed = 0
    for sock in sockets:
        sock.setblocking(False)
    try:
        total = len(arrivals)
        sent = done = 0
        started = perf_counter()
        last_progress = started
        while done < total:
            now = perf_counter()
            if sent < total:
                offset, which, request = arrivals[sent]
                due = started + offset
                if now >= due:
                    # Requests are a few hundred bytes: the loopback send
                    # buffer always takes them whole.
                    sockets[which].sendall(request.data)
                    lateness.append(now - due)
                    in_flight[which].append((due, request.expect))
                    sent += 1
                    continue
            for which, sock in enumerate(sockets):
                if not in_flight[which]:
                    continue
                try:
                    chunk = sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                arrived = last_progress = perf_counter()
                buffer = buffers[which] + chunk
                while True:
                    parsed = _split_response(buffer)
                    if parsed is None:
                        break
                    status, body, buffer = parsed
                    due, expect = in_flight[which].popleft()
                    latencies.append(arrived - due)
                    done += 1
                    if status != 200 or not body.startswith(expect):
                        failed += 1
                buffers[which] = buffer
            if sent >= total and now - last_progress > 30.0:
                raise ConnectionError(
                    f"open loop stalled: {total - done} replies outstanding"
                )
        elapsed = perf_counter() - started
    finally:
        for sock in sockets:
            sock.settimeout(30.0)
    return LoopResult(latencies, elapsed, failed, lateness)


class WebSocketClient:
    """The few frames of RFC 6455 the ``/ws`` rung needs: text frames,
    client-masked, replies unmasked and under 64 KiB."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        key = base64.b64encode(os.urandom(16)).decode()
        self.sock.sendall(
            (
                "GET /ws HTTP/1.1\r\nHost: bench\r\nUpgrade: websocket\r\n"
                "Connection: Upgrade\r\nSec-WebSocket-Version: 13\r\n"
                f"Sec-WebSocket-Key: {key}\r\n\r\n"
            ).encode("latin-1")
        )
        reply = b""
        while _HEADER_END not in reply:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed during the upgrade")
            reply += chunk
        if not reply.startswith(b"HTTP/1.1 101"):
            raise ConnectionError(f"websocket upgrade refused: {reply[:80]!r}")
        self._buffer = reply.split(_HEADER_END, 1)[1]

    @staticmethod
    def frame(payload: bytes) -> bytes:
        """A masked text frame (the all-zero mask leaves the payload as is)."""
        length = len(payload)
        if length < 126:
            head = bytes((0x81, 0x80 | length))
        else:
            head = bytes((0x81, 0x80 | 126)) + length.to_bytes(2, "big")
        return head + b"\x00\x00\x00\x00" + payload

    def roundtrip(self, frame: bytes) -> bytes:
        """Send one frame, block for the reply frame's payload."""
        self.sock.sendall(frame)
        buffer = self._buffer
        while True:
            marker = buffer[1] & 0x7F if len(buffer) >= 2 else 127
            if marker < 126:
                start, length = 2, marker
            elif marker == 126 and len(buffer) >= 4:
                start, length = 4, int.from_bytes(buffer[2:4], "big")
            else:
                start, length = 0, len(buffer) + 1  # header incomplete
            if len(buffer) >= start + length:
                self._buffer = buffer[start + length :]
                return buffer[start : start + length]
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the websocket")
            buffer += chunk

    def close(self) -> None:
        self.sock.close()
