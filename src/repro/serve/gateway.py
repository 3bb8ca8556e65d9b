"""HTTP/WebSocket gateway: a fleet serving real traffic.

The front door of the serve plane.  A :class:`FleetGateway` binds any
:class:`~repro.serve.api.Fleet` — in-process engine or multiprocess
fleet alike — behind a small HTTP/1.1 + WebSocket API, hand-rolled on
one :mod:`selectors` loop, :meth:`FleetGateway._serve` (the repository
has a no-dependencies rule, and the CLI's server loads no asyncio or
TLS stack).  All fleet calls run on the loop's thread, so the gateway
serializes access to the fleet without any locking; the fleet's own
batch paths stay the throughput story, the gateway is the
*operability* story — spawn, deliver, snapshot and scrape over the wire.

Endpoints::

    GET  /healthz            liveness + instance count
    POST /spawn              {"key": k} | {"count": n, "prefix"?: p}
    POST /deliver            {"key": k, "message": m}
                             | {"events": [[k, m], ...]}  (one batch run)
    POST /post               queue one event (posted path)
    POST /drain              flush queued traffic
    GET  /state?key=k        current state name
    GET  /trace?key=k        state + full action log
    GET  /snapshot           portable fleet snapshot (JSON)
    POST /restore            snapshot JSON -> rebuilt population
    GET  /metrics            Prometheus text: fleet + gateway instruments
    POST /shutdown           stop serving (requires allow_remote_shutdown)
    GET  /ws                 WebSocket: {"op": "deliver"|"post"|"state"|
                             "len", ...} JSON frames

Unknown instances/messages surface as HTTP 400 with the fleet's
canonical :class:`~repro.core.errors.DeploymentError` message — the
error-shape guarantee of the Fleet protocol extends over the wire.
Fields are typed before the fleet sees them: ``key``, ``message`` and
``prefix`` must be JSON strings and ``count`` a non-negative integer;
anything else is a ``400`` (``field 'count' must be ...``) counted in
``gateway_errors_total``, over HTTP and in ``/ws`` frames alike: that
counter takes every HTTP reply with a status of 400 or more, every
``/ws`` error reply and every refused frame (close 1002 or 1009).  A
batch body is the exception that keeps the same refusals without a
per-event check: the gateway checks in C that every pair is a list and
lets the fleet's one interning walk (``encode_flat``) type the rest;
only a batch that walk refuses is checked pair by pair.

The wire is handled in two layers.  :func:`parse_request` and
:func:`parse_frame` are pure functions over bytes: given a buffer they
return one parsed request (or frame) and how many bytes it took,
``None`` when the buffer does not hold a whole one yet, or raise
:class:`_HttpError`; they read no socket and keep no state, so they are
tested byte by byte without a gateway.  :class:`_Connection` is the
protocol around them, one per client, and :class:`_Transport` its
socket.  ``data_received`` appends to the connection's buffer, answers
*every* complete request in it in arrival order (pipelining) and writes
each reply to the transport before it returns — a request costs one
turn of the loop, with no task, future or stream reader in between.  A
head is parsed once: while its body arrives, segments are collected and
joined when the declared length is in, so buffering a body costs linear
time however the client splits it.  Replies that outrun the client
pause the connection (reading and answering both) until the transport
has drained, so a client that pipelines without reading cannot grow the
write buffer without bound.  Whatever else serving one connection raises
closes that connection alone.

The gateway degrades rather than wedges.  Each connection carries one
read deadline, pushed forward by every reply: a connection that stalls
mid-request (or idles past the keep-alive window) is answered with
``408`` and closed after ``read_timeout`` seconds.  A request whose
``Content-Length`` exceeds ``max_body`` is refused with ``413`` before
the body is read, and a WebSocket frame that declares more than
``max_body`` bytes is refused with close code 1009 — a slow or hostile
client can never hold memory or a connection forever.  A frame the
gateway cannot serve — a fragment (FIN clear, or a continuation), an RSV
bit no extension negotiated, a reserved opcode — is refused with close
code 1002 and counted in ``gateway_errors_total``; fragments are never
reassembled.  Framing the parser cannot trust is answered with ``400``,
``Connection: close`` and a closed connection (the stream cannot be
resynchronised), never with a traceback:

    ================================================  ======
    request head over 64 KiB (``_MAX_HEAD``)          400
    request line without a method and a target        400
    header line without a colon                       400
    ``Content-Length`` not a decimal number           400
    two ``Content-Length`` headers that disagree      400
    ``Transfer-Encoding`` (chunked bodies)            400
    ``Content-Length`` over ``max_body``              413
    ================================================  ======

Requests that land on a supervised fleet's recovering partition return
``503`` with a ``Retry-After`` header (from
:class:`~repro.serve.recovery.FleetRecoveringError`) instead of an
error: the partition is healing, not gone, and ``/healthz`` reports the
per-worker ``live``/``recovering``/``dead`` states while it does.

Gateway-side instruments (``gateway_requests_total``,
``gateway_errors_total``, ``gateway_request_seconds``,
``gateway_ws_messages_total``) live in their own
:class:`~repro.obs.metrics.MetricsRegistry` and are merged with the
fleet's registry on every ``/metrics`` scrape.
"""

from __future__ import annotations

import contextlib
import json
import re
import selectors
import socket
from json.encoder import encode_basestring_ascii as _quote
from json.scanner import make_scanner
from math import ceil
from time import monotonic, perf_counter
from typing import Optional
from urllib.parse import unquote, urlsplit

from repro.core.errors import DeploymentError
from repro.obs.metrics import MetricsRegistry
from repro.serve.fleet import FleetSnapshot
from repro.serve.recovery import FleetRecoveringError
from repro.serve.store import InstanceSnapshot

__all__ = ["FleetGateway", "snapshot_from_json", "snapshot_to_json"]

_WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
#: Close-frame payload: status 1009, "message too big".
_WS_TOO_BIG = (1009).to_bytes(2, "big")
#: Close-frame payload: status 1002, "protocol error".
_WS_PROTOCOL_ERROR = (1002).to_bytes(2, "big")
#: The first bytes of the frames the gateway serves: FIN set, no RSV
#: bit, and text, binary, close, ping or pong.  Anything else is a
#: fragment (the gateway does not reassemble), an extension it never
#: negotiated or a reserved opcode, and is refused with 1002.
_WS_SERVABLE = frozenset((0x81, 0x82, 0x88, 0x89, 0x8A))

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JSON = "application/json"

#: Reply heads by ``(status, content type, close)``, as byte templates
#: of the body length, the extra header lines and the body.
_REPLY_HEADS: dict = {}


def _json_body(obj) -> bytes:
    """The body of every JSON reply: ``json.dumps(obj)`` and a newline."""
    return (json.dumps(obj) + "\n").encode("utf-8")


_SCAN = make_scanner(json.JSONDecoder())


def _json_loads(body: bytes):
    """``json.loads(body)``: the C scanner alone for UTF-8 that is one
    JSON value with nothing around it, ``json.loads`` for anything else
    (a BOM, UTF-16/32, surrounding whitespace, an error and its text)."""
    try:
        text = body.decode()
        value, end = _SCAN(text, 0)
        if end == len(text):
            return value
    except (ValueError, StopIteration):
        pass
    return json.loads(body)


#: The one-event paths' replies, by the fleet's answer: two bodies each.
_FIRED = {f: (200, _json_body({"fired": f}), _JSON) for f in (False, True)}
_ACCEPTED = {f: (200, _json_body({"accepted": f}), _JSON) for f in (False, True)}


def _dispatched_reply(count: int):
    """``{"dispatched": count}``, formatted as ``_json_body`` would."""
    return 200, b'{"dispatched": %d}\n' % count, _JSON


def _state_reply(key: str, state: str, finished: bool):
    """``{"key", "state", "finished"}``, formatted as ``_json_body`` would
    (its escaper, its separators) with ``finished`` a bool."""
    body = '{"key": %s, "state": %s, "finished": %s}\n' % (
        _quote(key), _quote(state), "true" if finished else "false"
    )
    return 200, body.encode("ascii"), _JSON


def _query(string: str) -> dict:
    """A query string's fields, the first value of each name:
    ``{n: v[0] for n, v in parse_qs(string).items()}`` in one pass."""
    fields = {}
    for field in string.split("&"):
        name, _, value = field.partition("=")
        if value:
            name = unquote(name.replace("+", " "))
            if name not in fields:
                fields[name] = unquote(value.replace("+", " "))
    return fields


def snapshot_to_json(snapshot: FleetSnapshot) -> dict:
    """A fleet snapshot as a JSON-safe dict (the wire form).

    Partial snapshots carry their ``lost`` manifest so the wire form
    stays honest about missing partitions; whole snapshots omit the
    field, keeping the wire form of PR 8 byte-identical.
    """
    wire = {
        "machine": snapshot.machine_name,
        "instances": [
            {"key": inst.key, "state": inst.state, "actions": list(inst.actions)}
            for inst in snapshot.instances
        ],
    }
    if snapshot.lost:
        wire["lost"] = list(snapshot.lost)
    return wire


def snapshot_from_json(payload: dict) -> FleetSnapshot:
    """Rebuild a :class:`FleetSnapshot` from its wire form.

    Wire types are checked here — every ``key`` and ``state`` a string,
    every ``actions`` and the ``lost`` manifest a list of strings — so a
    mistyped body is the client's ``400`` (a :class:`DeploymentError`),
    never an integer key or a string split into one-letter actions or
    lost keys reaching the fleet.
    """
    try:
        instances = []
        for index, inst in enumerate(payload["instances"]):
            key, state, actions = inst["key"], inst["state"], inst["actions"]
            if (
                type(key) is not str
                or type(state) is not str
                or type(actions) is not list
                or not all(type(action) is str for action in actions)
            ):
                raise DeploymentError(
                    f"malformed snapshot payload: instance {index} needs a "
                    "string 'key' and 'state' and a list of strings as 'actions'"
                )
            instances.append(InstanceSnapshot(key, state, tuple(actions)))
        lost = payload.get("lost", [])
        if type(lost) is not list or not all(type(key) is str for key in lost):
            raise DeploymentError(
                "malformed snapshot payload: 'lost' must be a list of strings"
            )
        return FleetSnapshot(
            machine_name=payload["machine"],
            instances=tuple(instances),
            lost=tuple(lost),
        )
    except (KeyError, TypeError) as exc:
        raise DeploymentError(f"malformed snapshot payload: {exc}") from exc


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


# ----------------------------------------------------------------------
# the wire: pure parsers over bytes, and the protocol that feeds them
# ----------------------------------------------------------------------

#: Cap on a request head (request line + headers), the limit the stream
#: reader this parser replaced imposed on each line.
_MAX_HEAD = 1 << 16

#: The blank line that ends a head (bare ``\n`` line ends are accepted),
#: from its first ``\n``: a leading ``\r?`` would cost 4x to scan for.
_HEAD_END = re.compile(rb"\n\r?\n")


def parse_request(buffer: bytes, max_body: int):
    """The first HTTP request in ``buffer``, if it is all there.

    Returns ``(method, target, headers, body, consumed)`` — header names
    lower-cased, ``consumed`` the bytes the request took — or ``None``
    when more bytes are needed.  Raises :class:`_HttpError` (``400``,
    or ``413`` for a declared body over ``max_body``) for a request that
    no further bytes can repair.  ``None`` is never returned for a buffer
    longer than ``_MAX_HEAD + 4 + max_body``, which bounds what a
    connection buffers.  ``headers`` is the caller's own copy.
    """
    head = _parse_head(buffer, max_body)
    if head is None or len(buffer) < head[4]:
        return None
    method, target, headers, body_start, end = head[:5]
    return method, target, dict(headers), buffer[body_start:end], end


#: Parsed header blocks (the head after the request line) by their raw
#: bytes: ``(headers, length, close, upgrade)``, as a keep-alive client
#: sends the same few again and again.  At most ``_BLOCKS_KEPT`` blocks of
#: at most ``_BLOCK_BYTES`` (cleared when full), never a refused one.
_BLOCKS: dict = {}
_BLOCKS_KEPT = 256
_BLOCK_BYTES = 1024


def _parse_head(buffer: bytes, max_body: int):
    """:func:`parse_request` up to the body: ``(method, target, headers,
    body_start, end, close, upgrade)`` once the head is whole (``end`` is
    where the body will stop), else ``None``.  ``close``/``upgrade`` flag
    ``Connection: close``/``Upgrade: websocket``; ``headers`` is shared."""
    found = _HEAD_END.search(buffer)
    # Without the blank line yet, the last three bytes may be the start
    # of it rather than head.
    at = len(buffer) - 3 if found is None else found.start()
    head_end = at - 1 if found and buffer[at - 1 : at] == b"\r" else at
    if head_end > _MAX_HEAD:
        raise _HttpError(400, f"request head exceeds {_MAX_HEAD} bytes")
    if found is None:
        return None
    line, _, block = buffer[:head_end].partition(b"\n")
    request_line = line.decode("latin-1").split()
    if len(request_line) < 2:
        raise _HttpError(400, "malformed request line")
    parsed = _BLOCKS.get(block)
    if parsed is None:
        parsed = _parse_block(block)
        if len(block) <= _BLOCK_BYTES:
            if len(_BLOCKS) >= _BLOCKS_KEPT:
                _BLOCKS.clear()
            _BLOCKS[block] = parsed
    headers, length, close, upgrade = parsed
    if length > max_body:
        raise _HttpError(
            413, f"request body of {length} bytes exceeds the {max_body}-byte limit"
        )
    body_start = found.end()
    method, target = request_line[0].upper(), request_line[1]
    return method, target, headers, body_start, body_start + length, close, upgrade


def _parse_block(block: bytes):
    """A header block as ``(headers, length, close, upgrade)``."""
    headers: dict[str, str] = {}
    for line in block.decode("latin-1").split("\n") if block else ():
        name, colon, value = line.partition(":")
        if not colon:
            raise _HttpError(400, "malformed header line (no colon)")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise _HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        # Reading past a body framed some other way would parse its
        # bytes as the next request.
        raise _HttpError(
            400, "Transfer-Encoding is not supported; send Content-Length"
        )
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit() and len(declared) < 20):
        raise _HttpError(400, f"malformed Content-Length {declared[:32]!r}")
    close = headers.get("connection", "").lower() == "close"
    upgrade = headers.get("upgrade", "").lower() == "websocket"
    return headers, int(declared), close, upgrade


def parse_frame(buffer: bytes, max_body: int):
    """The first WebSocket frame in ``buffer``, if it is all there.

    Returns ``(opcode, payload, consumed)`` with the payload unmasked, or
    ``None`` when more bytes are needed.  A frame that declares more
    than ``max_body`` payload bytes raises :class:`_HttpError` ``413``
    as soon as its length field is readable; the connection answers that
    with close code 1009.
    """
    if len(buffer) < 2:
        return None
    length = buffer[1] & 0x7F
    start = 2
    if length >= 126:
        start = 4 if length == 126 else 10
        if len(buffer) < start:
            return None
        length = int.from_bytes(buffer[2:start], "big")
    if length > max_body:
        raise _HttpError(
            413,
            f"frame payload of {length} bytes exceeds the "
            f"{max_body}-byte limit",
        )
    masked = buffer[1] & 0x80
    if masked:
        start += 4
    end = start + length
    if len(buffer) < end:
        return None
    payload = buffer[start:end]
    if masked and length:
        # One big-integer XOR against the mask repeated to length.
        mask = (buffer[start - 4 : start] * (length // 4 + 1))[:length]
        payload = (
            int.from_bytes(payload, "big") ^ int.from_bytes(mask, "big")
        ).to_bytes(length, "big")
    return buffer[0] & 0x0F, payload, end


_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
#: Bytes read per ``recv`` at most.  ``recv`` allocates the whole size
#: before it shrinks the result to what arrived, and a buffer over
#: glibc's default 128 KiB mmap threshold is mapped and unmapped per call
#: (two minor faults and ≈ 20 µs a read, measured at 256 KiB).
_READ_SIZE = 1 << 16
#: Unsent reply bytes past which a connection stops reading and answering
#: until its client has taken them all.
_HIGH_WATER = 1 << 16
#: The read deadline of a connection that has none: upgraded or closing.
_NEVER = float("inf")


class _Transport:
    """One accepted socket, as :class:`_Connection` writes to it: a reply
    is sent at once as far as the kernel takes it and the rest is kept;
    past ``_HIGH_WATER`` kept bytes the connection pauses (the socket is
    not read) until all are sent.  ``close`` flushes, then closes."""

    __slots__ = ("_sock", "_selector", "_connection", "_pending", "_closing")

    def __init__(self, sock, selector, connection):
        self._sock = sock
        self._selector = selector
        self._connection = connection
        self._pending = bytearray()
        self._closing = False
        selector.register(sock, _READ, self.ready)

    def ready(self, mask: int) -> None:
        """The loop's callback: send what is kept, then read.  Whatever
        serving this connection raises closes it alone, as an error."""
        try:
            if mask & _WRITE:
                self._flush()
            if mask & _READ and not self._closing:
                try:
                    data = self._sock.recv(_READ_SIZE)
                except OSError:  # reset by the peer
                    return self.abort()
                if data:
                    self._connection.data_received(data)
                else:  # end of stream: flush the replies, then close
                    self._connection.close()
        except Exception:  # e.g. a /ws frame nested past the recursion limit
            self._connection._gateway._errors.add(1)
            self.abort()

    def write(self, data: bytes) -> None:
        if self._closing:
            return
        if not self._pending:
            try:
                sent = self._sock.send(data)
            except OSError:  # full, or reset: _flush finds out which
                sent = 0
            if sent == len(data):
                return
            data = data[sent:]
            self._watch(_READ | _WRITE)
        self._pending += data
        if len(self._pending) > _HIGH_WATER and not self._connection._paused:
            self._connection._paused = True
            self._watch(_WRITE)

    def _flush(self) -> None:
        try:  # the socket is writable: an error is the peer's
            del self._pending[: self._sock.send(self._pending)]
        except OSError:
            return self.abort()
        if self._pending:
            return
        if self._closing:
            return self.abort()
        self._watch(_READ)
        if self._connection._paused:
            self._connection.resume_writing()

    def _watch(self, events: int) -> None:
        self._selector.modify(self._sock, events, self.ready)

    def close(self) -> None:
        self._closing = True
        if self._pending:
            self._watch(_WRITE)
        else:
            self.abort()

    def abort(self) -> None:
        """Close at once, dropping whatever is kept."""
        self._closing = True
        if self._sock.fileno() >= 0:
            self._selector.unregister(self._sock)
            self._sock.close()
        self._connection.connection_lost()


class _Connection:
    """One client connection: bytes in, replies out, in the same loop turn."""

    __slots__ = (
        "_gateway",
        "_transport",
        "_buffer",
        "_head",
        "_chunks",
        "_missing",
        "_websocket",
        "_paused",
        "_deadline",
    )

    def __init__(self, gateway: "FleetGateway"):
        self._gateway = gateway
        self._transport = None
        self._buffer = b""
        #: The parsed head of a request whose body is still arriving, the
        #: segments received since it was parsed, and the bytes missing.
        self._head = None
        self._chunks: list[bytes] = []
        self._missing = 0
        self._websocket = False  # upgraded: the buffer holds frames
        self._paused = False  # the transport's write buffer is full
        #: Once this has passed the loop answers ``408`` and closes.
        self._deadline = monotonic() + gateway._read_timeout

    # -- transport callbacks -------------------------------------------

    def connection_lost(self) -> None:
        self._gateway._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        if self._head is not None:
            # A body is arriving behind a parsed head: collect segments
            # and join them once, when the last declared byte is here.
            self._chunks.append(data)
            self._missing -= len(data)
            if self._missing > 0:
                return
            self._buffer = b"".join([self._buffer, *self._chunks])
            self._chunks = []
        else:
            self._buffer = self._buffer + data if self._buffer else data
        self._pump()

    def resume_writing(self) -> None:
        # The client took every reply: the deadline runs from here.
        self._paused = False
        self._deadline = monotonic() + self._gateway._read_timeout
        self._pump()

    # -- requests and frames -------------------------------------------

    def close(self) -> None:
        """Flush what was written, then close; buffered input is dropped."""
        self._buffer = b""
        self._head = None
        self._chunks = []
        self._deadline = _NEVER
        self._transport.close()

    def _refuse(self, status: int, message: str) -> None:
        """Count and answer a request that cannot be served, then close:
        past bad framing the stream cannot be resynchronised."""
        gateway = self._gateway
        gateway._requests.add(1)
        gateway._errors.add(1)
        self._transport.write(
            gateway._response(
                *gateway._json(status, {"error": message}), True
            )
        )
        self.close()

    def _pump(self) -> None:
        """Answer every complete request (or frame) buffered, in order."""
        while self._buffer and not self._paused:
            served = (
                self._serve_frame()
                if self._websocket
                else self._serve_request()
            )
            if not served:
                break

    def _serve_request(self) -> bool:
        """Serve one buffered HTTP request; false when none is complete."""
        gateway = self._gateway
        started = perf_counter()
        head = self._head
        if head is None:
            try:
                head = _parse_head(self._buffer, gateway._max_body)
            except _HttpError as exc:
                self._refuse(exc.status, exc.message)
                return False
            if head is None:
                return False
            if len(self._buffer) < head[4]:
                self._head, self._missing = head, head[4] - len(self._buffer)
                return False
        self._head = None
        method, target, headers, body_start, end, close, upgrade = head
        body = self._buffer[body_start:end]
        self._buffer = self._buffer[end:]
        if upgrade and target.split("?", 1)[0] == "/ws":
            return self._upgrade(headers)
        status, payload, content_type, extra = gateway._route(
            method, target, body
        )
        gateway._requests.add(1)
        if status >= 400:
            gateway._errors.add(1)
        self._transport.write(
            gateway._response(status, payload, content_type, close, extra)
        )
        gateway._latency.observe(perf_counter() - started)
        if close:
            self.close()
            return False
        self._deadline = monotonic() + gateway._read_timeout
        return True

    def _upgrade(self, headers: dict) -> bool:
        """Answer the WebSocket handshake; from here the buffer is frames."""
        key = headers.get("sec-websocket-key")
        if not key:
            self._refuse(400, "missing Sec-WebSocket-Key")
            return False
        import base64
        import hashlib

        accept = base64.b64encode(
            hashlib.sha1((key + _WS_MAGIC).encode("latin-1")).digest()
        ).decode("latin-1")
        self._transport.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        # A WebSocket may idle: the read deadline guards HTTP requests.
        self._deadline = _NEVER
        self._websocket = True
        return True

    def _serve_frame(self) -> bool:
        """Serve one buffered WebSocket frame; false when none is complete."""
        gateway = self._gateway
        if self._buffer[0] not in _WS_SERVABLE:
            self._send_frame(0x8, _WS_PROTOCOL_ERROR, failed=True)
            self.close()
            return False
        try:
            parsed = parse_frame(self._buffer, gateway._max_body)
        except _HttpError:
            self._send_frame(0x8, _WS_TOO_BIG, failed=True)
            self.close()
            return False
        if parsed is None:
            return False
        opcode, payload, consumed = parsed
        self._buffer = self._buffer[consumed:]
        if opcode == 0x8:  # close
            self._transport.write(b"\x88\x00")
            self.close()
            return False
        if opcode == 0x9:  # ping -> pong
            self._send_frame(0xA, payload)
        elif opcode in (0x1, 0x2):
            gateway._ws_messages.add(1)
            self._send_frame(0x1, *gateway._ws_reply(payload))
        return True

    def _send_frame(self, opcode: int, payload: bytes, failed: bool = False) -> None:
        """Write one frame; the one place a ``/ws`` error is counted: an
        error reply, or a close for a frame the gateway refuses."""
        if failed:
            self._gateway._errors.add(1)
        self._transport.write(self._gateway._frame(opcode, payload))


class FleetGateway:
    """Serve one fleet over HTTP and WebSocket."""

    def __init__(
        self,
        fleet,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        allow_remote_shutdown: bool = False,
        read_timeout: float = 30.0,
        max_body: int = 1 << 20,
    ):
        self._fleet = fleet
        self.host = host
        self.port = port  # rebound to the actual port after start()
        self._allow_remote_shutdown = allow_remote_shutdown
        self._read_timeout = read_timeout
        self._max_body = max_body
        self._server: Optional[tuple] = None  # the listening sockets, once bound
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake: tuple = ()  # a socket pair: stop() writes, the loop wakes
        self._stopping = False
        self._done = None  # start()'s future, resolved when the loop ends
        self._connections: set[_Connection] = set()
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "gateway_requests_total", "HTTP requests handled"
        )
        self._errors = self.registry.counter(
            "gateway_errors_total",
            "HTTP replies with an error status and /ws error replies or refusals",
        )
        self._latency = self.registry.histogram(
            "gateway_request_seconds", "request receipt to response written"
        )
        self._ws_messages = self.registry.counter(
            "gateway_ws_messages_total", "WebSocket messages handled"
        )

    @property
    def fleet(self):
        return self._fleet

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind, then serve on a daemon thread; ``self.port`` becomes the
        bound port.  Awaiting :meth:`stop` or :meth:`serve_until_shutdown`
        returns once that loop has ended, or raises what ended it."""
        import asyncio  # loaded already: this coroutine runs on it
        import threading
        from concurrent.futures import Future

        self._bind()
        done = Future()
        done.set_running_or_notify_cancel()  # only the loop's end settles it

        def serve() -> None:
            try:
                done.set_result(self._serve())
            except BaseException as exc:
                done.set_exception(exc)

        threading.Thread(target=serve, daemon=True).start()
        self._done = asyncio.wrap_future(done)

    async def stop(self) -> None:
        """Stop accepting, flush and close open connections (idempotent;
        from any thread).  Waits for the loop to end when :meth:`start`
        hosts it; a :meth:`run_blocking` caller returns on its own."""
        self._stopping = True
        with contextlib.suppress(IndexError, OSError):  # not bound, or ended
            self._wake[1].send(b"\0")
        if self._done is not None:
            await self._done

    async def serve_until_shutdown(self) -> None:
        """Start, then serve until ``/shutdown`` or :meth:`stop`."""
        if self._server is None:
            await self.start()
        await self._done

    def run_blocking(self, announce=None, port_file: Optional[str] = None) -> None:
        """Synchronous entry point for the CLI: serve on this thread until
        shutdown (or a ``KeyboardInterrupt``, which propagates).

        ``announce`` is called with the listening URL once bound;
        ``port_file`` (when given) receives the bound port as text — the
        robust way for a parent process to learn a ``--port 0`` binding.
        """
        self._bind()
        if announce is not None:
            announce(f"http://{self.host}:{self.port}")
        if port_file is not None:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(str(self.port))
        self._serve()

    def _bind(self) -> None:
        """Listen on every address ``host`` resolves to, as asyncio does
        (``""`` is every interface of both families), on one port."""
        # A numeric host is its own address; the resolver maps ≈ 0.4 MB.
        addresses = {}
        for family in (socket.AF_INET, socket.AF_INET6):
            with contextlib.suppress(OSError):
                socket.inet_pton(family, self.host)
                addresses[self.host] = family
        if not addresses:
            passive = (0, socket.SOCK_STREAM, 0, socket.AI_PASSIVE)
            found = socket.getaddrinfo(self.host or None, self.port, *passive)
            addresses = {info[4][0]: info[0] for info in found}
        servers = []
        with contextlib.ExitStack() as bound:  # closes them all if one fails
            for address, family in addresses.items():
                server = socket.create_server((address, self.port), family=family)
                servers.append(bound.enter_context(server))
                self.port = server.getsockname()[1]
            bound.pop_all()
        self._server = tuple(servers)
        self._selector = selectors.DefaultSelector()
        for server in servers:
            server.setblocking(False)
            self._selector.register(server, _READ, lambda _, s=server: self._accept(s))
        self._wake = wake, _ = socket.socketpair()
        wake.setblocking(False)
        self._selector.register(wake, _READ, lambda _: wake.recv(64))
        self._stopping = False

    def _accept(self, server: socket.socket) -> None:
        try:
            sock, _ = server.accept()
        except OSError:  # gone before it was accepted, or out of descriptors
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(self)
        connection._transport = _Transport(sock, self._selector, connection)
        self._connections.add(connection)

    def _serve(self) -> None:
        """The loop: dispatch socket events, and answer ``408`` on every
        connection past its read deadline (the nearest one is the select
        timeout; a paused connection has none, nor does an idle server).
        Once stopping it accepts no more and closes every connection when
        its replies are flushed, waiting at most ``read_timeout`` for
        clients that do not read."""
        select = self._selector.select
        check = 0.0  # no deadline passes before this time
        try:
            while not self._stopping:
                wait = max(0.0, check - monotonic()) if self._connections else None
                for key, mask in select(wait):
                    key.data(mask)
                now = monotonic()
                if now >= check:
                    check = now + self._read_timeout
                    for connection in tuple(self._connections):
                        if connection._paused:
                            continue
                        if connection._deadline <= now:
                            connection._refuse(408, "request read timed out")
                        check = min(check, connection._deadline)
            for server in self._server:
                self._selector.unregister(server)
            for connection in tuple(self._connections):
                connection.close()
            give_up = monotonic() + self._read_timeout
            while self._connections and monotonic() < give_up:
                for key, mask in select(give_up - monotonic()):
                    key.data(mask)
        finally:
            for connection in tuple(self._connections):
                connection._transport.abort()
            self._selector.close()
            for sock in (*self._server, *self._wake):
                sock.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _response(
        status: int,
        payload: bytes,
        content_type: str,
        close: bool,
        extra_headers: tuple = (),
    ) -> bytes:
        head = _REPLY_HEADS.get((status, content_type, close))
        if head is None:
            text = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                "Content-Length: %d\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n"
                "%s\r\n%s"
            )
            head = _REPLY_HEADS[status, content_type, close] = text.encode("latin-1")
        extra = b""
        if extra_headers:
            extra = "".join(f"{n}: {v}\r\n" for n, v in extra_headers).encode("latin-1")
        return head % (len(payload), extra, payload)

    @staticmethod
    def _json(status: int, obj) -> tuple[int, bytes, str]:
        return status, _json_body(obj), _JSON

    def _route(self, method: str, target: str, body: bytes):
        """Dispatch one request; returns ``(status, payload, type, headers)``."""
        if target.startswith("/") and not target.startswith("//"):
            # Origin form: a path, then a query, then a fragment.
            path, _, query = target.partition("#")[0].partition("?")
            query = _query(query) if query else {}
        else:
            split = urlsplit(target)
            path = split.path
            query = _query(split.query)
        try:
            result = self._dispatch(method, path, query, body)
        except _HttpError as exc:
            result = self._json(exc.status, {"error": exc.message})
        except FleetRecoveringError as exc:
            # Transient: the partition is healing, not gone.  Degrade to
            # 503 with a Retry-After hint instead of an error.
            retry_after = max(1, ceil(exc.retry_after))
            status, payload, content_type = self._json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
            )
            return status, payload, content_type, (
                ("Retry-After", str(retry_after)),
            )
        except DeploymentError as exc:
            # The fleet's canonical error shape, carried over the wire.
            result = self._json(400, {"error": str(exc)})
        except Exception as exc:  # never let one request kill the loop
            result = self._json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        return (*result, ())

    @staticmethod
    def _body_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            parsed = _json_loads(body)
        except ValueError as exc:  # JSONDecodeError, or bytes not UTF-8
            raise _HttpError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return parsed

    @staticmethod
    def _fields(payload: dict, *names: str) -> list:
        """The named request fields, present and of the type the fleet
        takes: ``count`` a non-negative integer (JSON ``true`` and ``2.7``
        are not), every other field a string.  The fleet would hash,
        encode or ``int()`` whatever it is handed, so a mistyped field is
        refused here as the client's error, not answered as a 500."""
        values = []
        for name in names:
            value = payload.get(name)
            if (
                type(value) is not int or value < 0
                if name == "count"
                else type(value) is not str
            ):
                missing = ", ".join(n for n in names if n not in payload)
                if missing:
                    raise _HttpError(400, f"missing field(s): {missing}")
                if name == "count":
                    raise _HttpError(
                        400, "field 'count' must be a non-negative integer"
                    )
                raise _HttpError(400, f"field {name!r} must be a string")
            values.append(value)
        return values

    def _deliver_events(self, events) -> None:
        """Run one ``{"events": [[key, message], ...]}`` batch.

        Every pair must be a JSON list, checked in C: a string or a
        two-key object would unpack into a pair nobody sent.  The fleet's
        one interning walk (``encode_flat``) does the rest.  Only a batch
        it refuses is checked pair by pair: a malformed pair refuses the
        body with nothing dispatched; unknown keys or messages go through
        ``run(events)``, which dispatches the valid traffic and then
        raises the canonical rejection."""
        refusal = _HttpError(400, "events must be [[key, message], ...]")
        if type(events) is not list or not set(map(type, events)) <= {list}:
            raise refusal
        fleet = self._fleet
        try:
            schedule = fleet.encode_flat(events)
        except (DeploymentError, TypeError, ValueError):
            for event in events:
                if (
                    len(event) != 2
                    or type(event[0]) is not str
                    or type(event[1]) is not str
                ):
                    raise refusal from None
            fleet.run(events, encoding="events")
        else:
            fleet.run(schedule, encoding="flat")

    def _dispatch(self, method: str, path: str, query: dict, body: bytes):
        fleet = self._fleet
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /healthz")
            health = {"status": "ok", "instances": len(fleet)}
            # Supervised fleets surface per-worker lifecycle state; the
            # poll doubles as silent-death detection (a SIGKILLed worker
            # starts recovering on the next health check at the latest).
            check = getattr(fleet, "check_workers", None)
            if check is not None:
                states = check()
                health["workers"] = states
                health["pids"] = fleet.worker_pids()
                if any(state == "recovering" for state in states):
                    health["status"] = "recovering"
                elif any(state == "dead" for state in states):
                    health["status"] = "degraded"
            return self._json(200, health)
        if path == "/spawn":
            if method != "POST":
                raise _HttpError(405, "use POST /spawn")
            payload = self._body_json(body)
            if "key" in payload:
                (key,) = self._fields(payload, "key")
                fleet.spawn(key)
                return self._json(200, {"spawned": [key]})
            payload.setdefault("prefix", "session")
            count, prefix = self._fields(payload, "count", "prefix")
            return self._json(200, {"spawned": fleet.spawn_many(count, prefix)})
        if path == "/deliver":
            if method != "POST":
                raise _HttpError(405, "use POST /deliver")
            payload = self._body_json(body)
            if "events" in payload:
                self._deliver_events(payload["events"])
                return _dispatched_reply(len(payload["events"]))
            key, message = self._fields(payload, "key", "message")
            return _FIRED[bool(fleet.deliver(key, message))]
        if path == "/post":
            if method != "POST":
                raise _HttpError(405, "use POST /post")
            key, message = self._fields(
                self._body_json(body), "key", "message"
            )
            return _ACCEPTED[bool(fleet.post(key, message, source="gateway"))]
        if path == "/drain":
            if method != "POST":
                raise _HttpError(405, "use POST /drain")
            return _dispatched_reply(fleet.drain_all())
        if path == "/state":
            if method != "GET":
                raise _HttpError(405, "use GET /state?key=...")
            key = query.get("key")
            if key is None:
                raise _HttpError(400, "use GET /state?key=...")
            return _state_reply(key, fleet.state_name(key), fleet.is_finished(key))
        if path == "/trace":
            if method != "GET":
                raise _HttpError(405, "use GET /trace?key=...")
            key = query.get("key")
            if key is None:
                raise _HttpError(400, "use GET /trace?key=...")
            trace = fleet.trace(key)
            return self._json(
                200,
                {
                    "key": trace.key,
                    "state": trace.state,
                    "actions": list(trace.actions),
                },
            )
        if path == "/snapshot":
            if method != "GET":
                raise _HttpError(405, "use GET /snapshot")
            partial = query.get("partial", "").lower() in ("1", "true", "yes")
            return self._json(
                200, snapshot_to_json(fleet.snapshot(allow_partial=partial))
            )
        if path == "/restore":
            if method != "POST":
                raise _HttpError(405, "use POST /restore")
            partial = query.get("partial", "").lower() in ("1", "true", "yes")
            snapshot = snapshot_from_json(self._body_json(body))
            fleet.restore(snapshot, allow_partial=partial)
            return self._json(200, {"restored": len(snapshot.instances)})
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET /metrics")
            # The exposition renderers load at the first scrape, not at start.
            from repro.obs.expo import render_prometheus

            registry = MetricsRegistry()
            registry.merge(fleet.telemetry_registry())
            registry.merge(self.registry)
            return (
                200,
                render_prometheus(registry).encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if path == "/shutdown":
            if method != "POST":
                raise _HttpError(405, "use POST /shutdown")
            if not self._allow_remote_shutdown:
                raise _HttpError(
                    403, "remote shutdown disabled; start the gateway "
                    "with allow_remote_shutdown=True (--allow-remote-shutdown)"
                )
            self._stopping = True
            return self._json(200, {"status": "shutting down"})
        raise _HttpError(404, f"unknown path {path!r}")

    # ------------------------------------------------------------------
    # WebSocket
    # ------------------------------------------------------------------

    def _ws_reply(self, payload: bytes) -> tuple[bytes, bool]:
        """The reply to one ``/ws`` text frame and whether it is an error."""
        fleet = self._fleet
        try:
            message = _json_loads(payload)
            op = message.get("op")
            if op == "deliver":
                key, text = self._fields(message, "key", "message")
                result = {"fired": bool(fleet.deliver(key, text))}
            elif op == "post":
                key, text = self._fields(message, "key", "message")
                result = {"accepted": bool(fleet.post(key, text, source="ws"))}
            elif op == "state":
                (key,) = self._fields(message, "key")
                result = {
                    "key": key,
                    "state": fleet.state_name(key),
                    "finished": fleet.is_finished(key),
                }
            elif op == "len":
                result = {"instances": len(fleet)}
            else:
                result = {"error": f"unknown op {op!r}"}
        except _HttpError as exc:  # a missing or mistyped field
            result = {"error": exc.message}
        except DeploymentError as exc:
            result = {"error": str(exc)}
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # Not JSON (or not UTF-8), or not an object.
            result = {"error": f"malformed frame: {exc}"}
        return json.dumps(result).encode("utf-8"), "error" in result

    @staticmethod
    def _frame(opcode: int, payload: bytes) -> bytes:
        length = len(payload)
        if length < 126:
            head = bytes((0x80 | opcode, length))
        elif length < 1 << 16:
            head = bytes((0x80 | opcode, 126)) + length.to_bytes(2, "big")
        else:
            head = bytes((0x80 | opcode, 127)) + length.to_bytes(8, "big")
        return head + payload
