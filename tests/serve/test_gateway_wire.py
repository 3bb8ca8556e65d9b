"""The gateway's wire layer: pure parsers, then the protocol around them.

``parse_request`` and ``parse_frame`` are functions over bytes, so most
of this file needs no socket: a corpus of valid requests and frames must
parse the same whole, split at *every* byte offset and pipelined
back-to-back, and a hypothesis fuzz asserts that hostile bytes only ever
produce *need more data*, a parsed request, or ``_HttpError`` with a 4xx
status — never another exception, never a buffer the connection would
have to grow without bound.

The live-gateway half sends the same corpus over real sockets (every
split point again, compared byte for byte with the one-request-at-a-time
replies) and pins each malformed-framing and shutdown bug this layer
fixed: the status, the JSON body, the closed connection and a silent
stderr.
"""

import asyncio
import json
import os
import pathlib
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.serve.gateway as gateway_module
from repro.serve import make_fleet
from repro.serve.gateway import (
    _MAX_HEAD,
    FleetGateway,
    _HttpError,
    parse_frame,
    parse_request,
)

MAX_BODY = 1 << 20


def post(path: str, payload, *extra: str) -> bytes:
    body = json.dumps(payload).encode()
    lines = [
        f"POST {path} HTTP/1.1",
        "Host: test",
        f"Content-Length: {len(body)}",
        *extra,
    ]
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def frame(opcode: int, payload: bytes, mask: bytes = b"", wide: int = 0) -> bytes:
    """A final frame; ``wide`` forces the 2- or 8-byte length form."""
    length = len(payload)
    flag = 0x80 if mask else 0
    if wide == 8 or length >= 1 << 16:
        head = bytes((0x80 | opcode, flag | 127)) + length.to_bytes(8, "big")
    elif wide == 2 or length >= 126:
        head = bytes((0x80 | opcode, flag | 126)) + length.to_bytes(2, "big")
    else:
        head = bytes((0x80 | opcode, flag | length))
    if mask:
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return head + mask + payload


#: Valid requests, every one repeatable (the replies do not depend on how
#: often or in which order they are sent).  The last one closes.
REQUESTS = [
    b"GET /state?key=session-0000001 HTTP/1.1\r\nHost: test\r\n\r\n",
    post("/deliver", {"key": "session-0000000", "message": "update"}),
    post("/deliver", {"events": []}, "Content-Type: application/json"),
    post("/deliver", {"key": "ghost", "message": "update"}),
    b"GET /trace?key=session-0000000 HTTP/1.1\nHost: bare-lf\n\n",
    b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
]

LEN_OP = json.dumps({"op": "len"}).encode()
LONG_OP = json.dumps({"op": "len", "pad": "x" * 300}).encode()

#: Valid client frames: text (masked and not), ping, the 126 and 127
#: length forms, close last.
FRAMES = [
    frame(0x1, LEN_OP, mask=b"\x11\x22\x33\x44"),
    frame(0x1, LEN_OP),
    frame(0x9, b"are you there", mask=b"\xff\x00\xa5\x5a"),
    frame(0x1, LONG_OP, mask=b"\x01\x02\x03\x04"),
    frame(0x1, LEN_OP, mask=b"\x0a\x0b\x0c\x0d", wide=8),
    frame(0x1, b"", wide=2),
    frame(0x8, b"", mask=b"\x00\x00\x00\x00"),
]


def feed(parser, chunks, max_body=MAX_BODY) -> list:
    """What a connection does with its buffer: append, parse while whole."""
    buffer = b""
    parsed = []
    for chunk in chunks:
        buffer += chunk
        while buffer:
            item = parser(buffer, max_body)
            if item is None:
                break
            parsed.append(item[:-1])
            buffer = buffer[item[-1] :]
    assert buffer == b""
    return parsed


# ----------------------------------------------------------------------
# pure parsers
# ----------------------------------------------------------------------


def test_parse_request_fields():
    method, target, headers, body, consumed = parse_request(REQUESTS[1], MAX_BODY)
    assert (method, target) == ("POST", "/deliver")
    assert headers["host"] == "test"
    assert json.loads(body) == {"key": "session-0000000", "message": "update"}
    assert consumed == len(REQUESTS[1])
    # Bare-LF line ends, lower-case method.
    method, target, headers, body, _ = parse_request(
        b"get /healthz HTTP/1.1\nX-Thing:  padded \n\n", MAX_BODY
    )
    assert (method, target, body) == ("GET", "/healthz", b"")
    assert headers == {"x-thing": "padded"}


@pytest.mark.parametrize("request_bytes", REQUESTS)
def test_request_split_at_every_offset(request_bytes):
    whole = feed(parse_request, [request_bytes])
    assert len(whole) == 1
    for cut in range(1, len(request_bytes)):
        assert parse_request(request_bytes[:cut], MAX_BODY) is None
        assert feed(parse_request, [request_bytes[:cut], request_bytes[cut:]]) == whole


def test_frame_with_a_real_64_bit_length():
    payload = os.urandom(70_000)
    data = frame(0x2, payload, mask=b"\xde\xad\xbe\xef")
    assert data[1] & 0x7F == 127
    assert feed(parse_frame, [data[:9], data[9:40_000], data[40_000:]]) == [
        (0x2, payload)
    ]


MALFORMED = [
    (b"POST /deliver HTTP/1.1\r\nContent-Length: abc\r\n\r\n", "Content-Length"),
    (b"POST /deliver HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "Content-Length"),
    (b"POST /deliver HTTP/1.1\r\nContent-Length: +5\r\n\r\n", "Content-Length"),
    (b"POST /deliver HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n", "Content-Length"),
    (
        b"POST /deliver HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        "Content-Length",
    ),
    (
        b"POST /deliver HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        "conflicting",
    ),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * _MAX_HEAD + b"\r\n\r\n", "head"),
    (b"a" * (_MAX_HEAD + 4), "head"),
    (b"GARBAGE\r\n\r\n", "request line"),
    (b"\r\n\r\n", "request line"),
    (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", "header line"),
    (
        b"POST /deliver HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
        "Transfer-Encoding",
    ),
]


@pytest.mark.parametrize("data, names", MALFORMED)
def test_malformed_framing_is_a_400(data, names):
    with pytest.raises(_HttpError) as caught:
        parse_request(data, MAX_BODY)
    assert caught.value.status == 400
    assert names in caught.value.message


def test_head_at_the_cap_still_parses():
    prefix = b"GET /healthz HTTP/1.1\r\nX-Pad: "
    request = prefix + b"a" * (_MAX_HEAD - len(prefix)) + b"\r\n\r\n"
    assert parse_request(request, MAX_BODY)[1] == "/healthz"
    # Cut inside the blank line, the bytes over the cap may still be it.
    for cut in range(len(request) - 4, len(request)):
        assert parse_request(request[:cut], MAX_BODY) is None
    with pytest.raises(_HttpError):
        parse_request(request[:-4] + b"a\r\n\r\n", MAX_BODY)
    with pytest.raises(_HttpError):
        parse_request(request[:-4] + b"aaaa", MAX_BODY)


def test_declared_sizes_over_max_body_are_refused_before_the_payload():
    with pytest.raises(_HttpError) as caught:
        parse_request(b"POST /restore HTTP/1.1\r\nContent-Length: 65\r\n\r\n", 64)
    assert caught.value.status == 413
    # A 127-length frame may declare 2**63 bytes; ten header bytes suffice.
    for declared in (65, 1 << 62):
        with pytest.raises(_HttpError) as caught:
            parse_frame(bytes((0x81, 0x80 | 127)) + declared.to_bytes(8, "big"), 64)
        assert caught.value.status == 413
    assert parse_frame(frame(0x1, b"x" * 64), 64) == (0x1, b"x" * 64, 66)
    at_limit = b"POST /restore HTTP/1.1\r\nContent-Length: 64\r\n\r\n" + b"x" * 64
    assert parse_request(at_limit, 64)[3] == b"x" * 64


def check_request_outcome(data: bytes, max_body: int) -> None:
    try:
        parsed = parse_request(data, max_body)
    except _HttpError as exc:
        assert 400 <= exc.status < 500
        return
    if parsed is None:
        # What a connection may be left holding is bounded.
        assert len(data) <= _MAX_HEAD + 4 + max_body
        return
    method, target, headers, body, consumed = parsed
    assert 0 < consumed <= len(data)
    assert len(body) <= max_body
    assert method == method.upper() and target
    # The same request, with nothing behind it, parses the same.
    assert parse_request(data[:consumed], max_body) == parsed


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=400), st.sampled_from([0, 16, MAX_BODY]))
@example(b"a" * (_MAX_HEAD + 5), 0)
@example(b"GET / HTTP/1.1\r\nContent-Length: 17\r\n\r\n" + b"a" * 16, 16)
def test_fuzz_arbitrary_bytes_request(data, max_body):
    check_request_outcome(data, max_body)


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(min_value=0, max_value=10_000),
        st.binary(min_size=1, max_size=6)
        | st.sampled_from(
            [b"\r\n", b"\n", b":", b"\r\n\r\n", b"Content-Length: ", b"-1", b"\x00"]
        ),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, mutations) -> bytes:
    for kind, at, piece in mutations:
        at %= len(data) + 1
        if kind == "replace":
            data = data[:at] + piece + data[at + len(piece) :]
        elif kind == "insert":
            data = data[:at] + piece + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + len(piece) :]
        else:
            data = data[:at]
    return data


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(REQUESTS), MUTATIONS, st.sampled_from([16, MAX_BODY]))
def test_fuzz_mutated_requests(request_bytes, mutations, max_body):
    check_request_outcome(mutate(request_bytes, mutations), max_body)


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=200) | st.sampled_from(FRAMES).flatmap(
        lambda data: MUTATIONS.map(lambda mutations: mutate(data, mutations))
    ),
    st.sampled_from([0, 16, MAX_BODY]),
)
def test_fuzz_frames(data, max_body):
    try:
        parsed = parse_frame(data, max_body)
    except _HttpError as exc:
        assert exc.status == 413
        return
    if parsed is None:
        assert len(data) < 14 + max_body
        return
    opcode, payload, consumed = parsed
    assert 0 <= opcode < 16 and len(payload) <= max_body
    assert 2 <= consumed <= len(data)
    assert parse_frame(data[:consumed], max_body) == parsed


# ----------------------------------------------------------------------
# live gateway
# ----------------------------------------------------------------------


def live(body, **gateway_kwargs):
    """Run ``body(gateway, exchange)`` against a live gateway on a commit
    fleet of four instances.  ``exchange(*parts)`` opens a connection,
    sends the parts (letting the server read each before the next is
    sent) and returns everything the server wrote until it closed."""

    async def main():
        fleet = make_fleet("commit", mode="encoded")
        fleet.spawn_many(4)
        gateway = FleetGateway(fleet, port=0, **gateway_kwargs)
        await gateway.start()

        async def exchange(*parts: bytes) -> bytes:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            try:
                for part in parts:
                    writer.write(part)
                    await writer.drain()
                    for _ in range(3):  # the server's read callback runs
                        await asyncio.sleep(0)
                return await asyncio.wait_for(reader.read(), timeout=10)
            finally:
                writer.close()

        try:
            await body(gateway, exchange)
        finally:
            await gateway.stop()
            fleet.close()

    asyncio.run(main())


def responses(data: bytes) -> list:
    """``[(status, headers, body), ...]`` for back-to-back HTTP replies."""
    out = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        out.append((int(lines[0].split()[1]), headers, rest[:length]))
        data = rest[length:]
    return out


CLOSE = b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"


def assert_quiet(capfd, caplog):
    """Nothing on stderr, and nothing logged at WARNING or above (asyncio
    reports a failed callback through ``logging``, which pytest captures
    before it would reach stderr)."""
    assert capfd.readouterr().err == ""
    assert [record.getMessage() for record in caplog.records] == []


def test_live_replies_identical_whole_pipelined_and_split(capfd, caplog):
    stream = b"".join(REQUESTS)

    async def body(gateway, exchange):
        # The first "update" fires; every later one is ignored the same way.
        await exchange(REQUESTS[1] + CLOSE)
        # The reference: one request per connection, each closed off.
        reference = b""
        for request in REQUESTS[:-1]:
            reply = await exchange(request + CLOSE)
            first = responses(reply)[0]
            reference += reply[: reply.index(b"\r\n\r\n") + 4 + len(first[2])]
        reference += await exchange(REQUESTS[-1])
        statuses = [status for status, _, _ in responses(reference)]
        assert statuses == [200, 200, 200, 400, 200, 200]
        assert await exchange(stream) == reference
        for cut in range(1, len(stream)):
            assert await exchange(stream[:cut], stream[cut:]) == reference, cut

    live(body)
    assert_quiet(capfd, caplog)


def test_batch_fed_one_byte_at_a_time_parses_its_head_once(monkeypatch):
    events = [[f"session-000000{i % 4}", "update"] for i in range(64)]
    request = post("/deliver", {"events": events})
    heads = []
    parse_head = gateway_module._parse_head

    def counting(buffer, max_body):
        head = parse_head(buffer, max_body)
        if head is not None:
            heads.append(head[1])
        return head

    async def body(gateway, exchange):
        whole = await exchange(request + CLOSE)
        monkeypatch.setattr(gateway_module, "_parse_head", counting)
        single_bytes = [request[i : i + 1] for i in range(len(request))]
        split = await exchange(*single_bytes, CLOSE)
        assert split == whole
        assert responses(split)[0][2] == b'{"dispatched": 64}\n'
        # Each head was decoded once: the body's segments were collected,
        # not handed to the parser again.
        assert heads == ["/deliver", "/healthz"]

    live(body)


HANDSHAKE = (
    b"GET /ws HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\n"
    b"Connection: Upgrade\r\nSec-WebSocket-Version: 13\r\n"
    b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
)


def test_live_websocket_replies_identical_whole_and_split():
    stream = HANDSHAKE + b"".join(FRAMES)

    async def body(gateway, exchange):
        reference = await exchange(stream)
        head, _, frames = reference.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 101")
        # RFC 6455's own example key and accept value.
        assert b"Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in head
        replies = feed(parse_frame, [frames])
        count = json.dumps({"instances": 4}).encode()
        assert replies == [
            (0x1, count),
            (0x1, count),
            (0xA, b"are you there"),
            (0x1, count),
            (0x1, count),
            (0x1, replies[5][1]),
            (0x8, b""),
        ]
        assert b"malformed frame" in replies[5][1]  # the empty text frame
        assert gateway._ws_messages.value == 5
        for cut in range(1, len(stream)):
            assert await exchange(stream[:cut], stream[cut:]) == reference, cut

    live(body)


@pytest.mark.parametrize("data, names", MALFORMED)
def test_live_malformed_framing_is_answered_and_closed(data, names, capfd, caplog):
    async def body(gateway, exchange):
        (reply,) = responses(await exchange(data))
        status, headers, payload = reply
        assert status == 400
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert names in json.loads(payload)["error"]
        assert gateway._requests.value == 1
        assert gateway._errors.value == 1

    live(body)
    assert_quiet(capfd, caplog)


def test_live_oversized_frame_is_closed_with_1009(capfd, caplog):
    async def body(gateway, exchange):
        reply = await exchange(
            HANDSHAKE + bytes((0x81, 0x80 | 127)) + (1 << 62).to_bytes(8, "big")
        )
        frames = reply.partition(b"\r\n\r\n")[2]
        assert feed(parse_frame, [frames]) == [(0x8, (1009).to_bytes(2, "big"))]
        assert gateway._errors.value == 1

    live(body)
    assert_quiet(capfd, caplog)


def first_byte(data: bytes, first: int) -> bytes:
    """``data`` with its first byte (FIN, RSV bits, opcode) replaced."""
    return bytes((first,)) + data[1:]


MASK = b"\x11\x22\x33\x44"
PROTOCOL_ERROR = [(0x8, (1002).to_bytes(2, "big"))]


async def assert_refused_with_1002(gateway, exchange, *frames: bytes) -> None:
    """Each frame, sent on its own connection and followed by a valid one,
    is answered with one 1002 close frame, counted, and nothing after it."""
    for data in frames:
        errors = gateway._errors.value
        reply = await exchange(HANDSHAKE + data + frame(0x1, LEN_OP, mask=MASK))
        head, _, frames_out = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 101")
        assert feed(parse_frame, [frames_out]) == PROTOCOL_ERROR, data[:1]
        assert gateway._errors.value == errors + 1
    assert gateway._ws_messages.value == 0


def test_live_unfinished_fragment_is_closed_with_1002(capfd, caplog):
    # FIN clear: the first fragment of {"op": "len"} was answered as a
    # whole (malformed) message, and its continuation dropped unnoticed.
    async def body(gateway, exchange):
        await assert_refused_with_1002(
            gateway,
            exchange,
            first_byte(frame(0x1, b'{"op"', mask=MASK), 0x01)
            + frame(0x0, b': "len"}', mask=MASK),
            first_byte(frame(0x2, LEN_OP, mask=MASK), 0x02),
            first_byte(frame(0x9, b"ping", mask=MASK), 0x09),
        )

    live(body)
    assert_quiet(capfd, caplog)


def test_live_bare_continuation_is_closed_with_1002(capfd, caplog):
    async def body(gateway, exchange):
        await assert_refused_with_1002(
            gateway, exchange, frame(0x0, LEN_OP, mask=MASK), frame(0x0, LEN_OP)
        )

    live(body)
    assert_quiet(capfd, caplog)


def test_live_rsv_bit_is_closed_with_1002(capfd, caplog):
    # No extension was negotiated, so no RSV bit may be set.
    async def body(gateway, exchange):
        await assert_refused_with_1002(
            gateway,
            exchange,
            *(
                first_byte(frame(opcode, LEN_OP, mask=MASK), 0x80 | rsv | opcode)
                for rsv in (0x40, 0x20, 0x10, 0x70)
                for opcode in (0x1, 0x9)
            ),
        )

    live(body)
    assert_quiet(capfd, caplog)


def test_live_reserved_opcode_is_closed_with_1002(capfd, caplog):
    async def body(gateway, exchange):
        await assert_refused_with_1002(
            gateway,
            exchange,
            *(
                frame(opcode, LEN_OP, mask=MASK)
                for opcode in (*range(0x3, 0x8), *range(0xB, 0x10))
            ),
        )

    live(body)
    assert_quiet(capfd, caplog)


def test_live_half_closed_request_is_answered_then_closed(capfd, caplog):
    # The client sends a request and shuts its write side down: the
    # reply still arrives whole, then the gateway closes (eof_received).
    async def main():
        fleet = make_fleet("commit", mode="encoded")
        (key,) = fleet.spawn_many(1)
        gateway = FleetGateway(fleet, port=0)
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(post("/deliver", {"key": key, "message": "update"}))
            writer.write_eof()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            ((status, headers, payload),) = responses(reply)
            assert (status, json.loads(payload)) == (200, {"fired": True})
            assert headers["connection"] == "keep-alive"
            for _ in range(500):  # the server drops the connection
                if not gateway._connections:
                    break
                await asyncio.sleep(0.01)
            assert not gateway._connections
        finally:
            await gateway.stop()
            fleet.close()

    asyncio.run(main())
    assert_quiet(capfd, caplog)


@pytest.mark.parametrize(
    "events",
    [[["k"]], 7, [["session-0000000", 5]], [[["k"], "update"]], ["ab"], [None]],
)
def test_live_deliver_events_shape_errors_are_400(events):
    async def body(gateway, exchange):
        reply = await exchange(
            post("/deliver", {"events": events})
            + post("/deliver", {"events": [["session-0000000", "update"]]})
            + CLOSE
        )
        bad, good, _ = responses(reply)
        assert bad[0] == 400
        assert json.loads(bad[2]) == {
            "error": "events must be [[key, message], ...]"
        }
        # The connection survives, and well-shaped pairs still dispatch.
        assert bad[1]["connection"] == "keep-alive"
        assert (good[0], json.loads(good[2])) == (200, {"dispatched": 1})

    live(body)


def test_live_body_that_is_not_utf8_is_a_400():
    async def body(gateway, exchange):
        request = b"POST /deliver HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe"
        bad, _ = responses(await exchange(request + CLOSE))
        assert bad[0] == 400 and "not JSON" in json.loads(bad[2])["error"]

    live(body)


def test_stop_with_a_keepalive_connection_open_is_quiet(capfd, caplog):
    async def main():
        fleet = make_fleet("commit", mode="encoded")
        gateway = FleetGateway(fleet, port=0)
        await gateway.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        assert b"200 OK" in await reader.readline()
        await asyncio.wait_for(gateway.stop(), timeout=5)
        # The server side closed the idle connection: the client sees EOF.
        rest = await asyncio.wait_for(reader.read(), timeout=5)
        assert rest.endswith(b"\n") and not gateway._connections
        writer.close()
        fleet.close()

    asyncio.run(main())
    assert_quiet(capfd, caplog)


def test_served_process_exits_without_a_word_on_stderr(tmp_path):
    """``POST /shutdown`` with a second keep-alive connection still open:
    the whole process, event-loop teardown included, stays silent."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    port_file = tmp_path / "port"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--port-file", str(port_file), "--allow-remote-shutdown",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )  # fmt: skip
    try:
        deadline = time.monotonic() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            assert server.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        port = int(port_file.read_text())
        with socket.create_connection(("127.0.0.1", port), timeout=10) as idle:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert b"200 OK" in idle.recv(4096)
            with socket.create_connection(("127.0.0.1", port), timeout=10) as last:
                last.sendall(
                    b"POST /shutdown HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
                assert b"shutting down" in last.recv(4096)
            assert server.wait(timeout=15) == 0
        assert server.stderr.read() == b""
    finally:
        if server.poll() is None:
            server.kill()
        server.wait()
        server.stderr.close()
