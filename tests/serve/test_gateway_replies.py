"""The gateway's per-request shortcuts, each against the form it replaced.

A request's header block is parsed once and memoised by its bytes,
fixed-shape replies are formatted without ``json.dumps``, reply heads
come from a per-``(status, type, close)`` cache and the query string is
split by one helper.  Each is held here to the slow form it stands in
for: ``parse_qs``/``urlsplit``, ``json.dumps(obj) + "\\n"``, the head the
reply formatter built field by field, and the head parser before the
memo (``reference_parse_request`` below).  The connection-level tests
drive a :class:`_Connection` on a stub transport: no socket, no loop.
"""

import json
import re
from itertools import product
from urllib.parse import parse_qs, quote, urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve import make_fleet
from repro.serve.gateway import (
    _ACCEPTED,
    _BLOCK_BYTES,
    _BLOCKS,
    _BLOCKS_KEPT,
    _FIRED,
    _JSON,
    _MAX_HEAD,
    _STATUS_TEXT,
    FleetGateway,
    _Connection,
    _dispatched_reply,
    _HttpError,
    _query,
    _state_reply,
    parse_request,
)

MAX_BODY = 1 << 20

#: Keys a client may name: quotes, backslashes, control characters,
#: non-ASCII, line separators, astral characters and lone surrogates.
HOSTILE = [
    "",
    '"',
    "\\",
    '\\"',
    "\x00\x01\x1f\x7f",
    "\n\r\t\b\f",
    "é",
    "  ",
    "\U0001f600",
    "\ud800",
    "\udfff",
    "a\ud83dz",
    "</script>",
]


def dumped(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# fixed-shape replies
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.text(st.characters(exclude_categories=())),
    st.text(st.characters(exclude_categories=())),
    st.booleans(),
)
def test_state_reply_is_json_dumps_for_any_key_and_state(key, state, finished):
    assert _state_reply(key, state, finished) == (
        200,
        dumped({"key": key, "state": state, "finished": finished}),
        _JSON,
    )


@pytest.mark.parametrize("key", HOSTILE)
def test_state_reply_is_json_dumps_for_hostile_keys(key):
    for finished in (False, True):
        for state in ("Idle", key):
            body = _state_reply(key, state, finished)[1]
            assert body == dumped({"key": key, "state": state, "finished": finished})


def test_constant_replies_are_json_dumps():
    for flag in (False, True):
        assert _FIRED[flag] == (200, dumped({"fired": flag}), _JSON)
        assert _ACCEPTED[flag] == (200, dumped({"accepted": flag}), _JSON)


@given(st.integers(min_value=0, max_value=1 << 80))
@example(0)
def test_dispatched_reply_is_json_dumps(count):
    assert _dispatched_reply(count) == (200, dumped({"dispatched": count}), _JSON)


def reference_response(status, payload, content_type, close, extra_headers=()):
    """The reply the gateway built before heads were cached."""
    extra = "".join(f"{name}: {value}\r\n" for name, value in extra_headers)
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"{extra}"
        "\r\n"
    )
    return head.encode("latin-1") + payload


@pytest.mark.parametrize("status", [*_STATUS_TEXT, 299])
def test_cached_reply_heads_match_the_formatted_head(status):
    for args in product(
        [status],
        [b"", b"{}\n", b"%d %s\r\n" * 40],
        [_JSON, "text/plain; version=0.0.4"],
        [False, True],
        [(), (("Retry-After", "3"),), (("A", "1"), ("B", "2"))],
    ):
        # Twice: the first call fills the cache, the second reads it.
        assert FleetGateway._response(*args) == reference_response(*args)
        assert FleetGateway._response(*args) == reference_response(*args)


# ----------------------------------------------------------------------
# the query helper and the target split
# ----------------------------------------------------------------------

QUERYISH = st.text(st.sampled_from("ab=&;+% 2F0fé\x00?#\ud800"), max_size=40)


@settings(max_examples=500, deadline=None)
@given(st.one_of(QUERYISH, st.text(st.characters(exclude_categories=()))))
@example("a=1&a=2&b=&c&=x&%62=3&+=4")
@example("key=%E2%82%AC&key=%ZZ&k%3Dy=%FF%FE")
def test_query_helper_is_parse_qs_first_values(string):
    reference = {name: values[0] for name, values in parse_qs(string).items()}
    assert list(_query(string).items()) == list(reference.items())


def routed(target: str):
    """``(path, query)`` as ``_route`` hands them to ``_dispatch``."""
    gateway = FleetGateway(None)
    seen = []

    def dispatch(method, path, query, body):
        seen.append((path, query))
        return 200, b"", _JSON

    gateway._dispatch = dispatch
    gateway._route("GET", target, b"")
    return seen[0]


TARGETS = st.text(st.sampled_from("/ab=&+%2F?#:.é"), min_size=1, max_size=30)


@settings(max_examples=500, deadline=None)
@given(st.one_of(TARGETS, TARGETS.map(lambda text: "/" + text)))
@example("/state?key=session-0000001")
@example("/state#frag?key=x")
@example("//host/state?key=x")
@example("http://host:80/state?key=x#f")
@example("/snapshot?partial=1&partial=0")
def test_target_split_matches_urlsplit(target):
    # A target comes from a request line split on whitespace.
    split = urlsplit(target)
    reference = {name: values[0] for name, values in parse_qs(split.query).items()}
    path, query = routed(target)
    assert (path, list(query.items())) == (split.path, list(reference.items()))


# ----------------------------------------------------------------------
# the head parser: a differential against the parser before the memo
# ----------------------------------------------------------------------

_REFERENCE_HEAD_END = re.compile(rb"\r?\n\r?\n")


def reference_parse_request(buffer: bytes, max_body: int):
    """``parse_request`` as it was before header blocks were memoised."""
    found = _REFERENCE_HEAD_END.search(buffer)
    head_end = len(buffer) - 3 if found is None else found.start()
    if head_end > _MAX_HEAD:
        raise _HttpError(400, f"request head exceeds {_MAX_HEAD} bytes")
    if found is None:
        return None
    lines = buffer[:head_end].decode("latin-1").split("\n")
    request_line = lines[0].split()
    if len(request_line) < 2:
        raise _HttpError(400, "malformed request line")
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise _HttpError(400, "malformed header line (no colon)")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise _HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise _HttpError(
            400, "Transfer-Encoding is not supported; send Content-Length"
        )
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit() and len(declared) < 20):
        raise _HttpError(400, f"malformed Content-Length {declared[:32]!r}")
    length = int(declared)
    if length > max_body:
        raise _HttpError(
            413,
            f"request body of {length} bytes exceeds the {max_body}-byte limit",
        )
    body_start = found.end()
    if len(buffer) < body_start + length:
        return None
    return (
        request_line[0].upper(),
        request_line[1],
        headers,
        buffer[body_start : body_start + length],
        body_start + length,
    )


def outcome(parse, data: bytes, max_body: int):
    try:
        return parse(data, max_body)
    except _HttpError as exc:
        return exc.status, exc.message


#: Heads built from the pieces that steer the parser: line ends of every
#: kind, stray carriage returns, colons, lengths and repeated headers.
HEAD_PIECES = st.lists(
    st.sampled_from(
        [
            b"GET /state?key=a HTTP/1.1",
            b"POST /deliver HTTP/1.1",
            b"\r\n",
            b"\n",
            b"\r",
            b"\r\r\n",
            b"Host: x",
            b"Content-Length: 2",
            b"content-length:3",
            b"Content-Length: x",
            b"Connection: close",
            b"Upgrade: websocket",
            b"Transfer-Encoding: chunked",
            b"no colon",
            b": empty name",
            b"{}",
            b" ",
        ]
    ),
    max_size=12,
).map(b"".join)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(HEAD_PIECES, st.binary(max_size=200)),
    st.sampled_from([0, 2, MAX_BODY]),
)
@example(b"GET / HTTP/1.1\n\r\r\n\r\n", 0)
@example(b"\r\n\r\n", 0)
@example(b"GET /\n\r\n", 0)
@example(b"GET / HTTP/1.1\r\n\n", 0)
@example(b"GET / HTTP/1.1\r\nA: b\r\n\nrest", 0)
def test_parse_request_matches_the_parser_before_the_memo(data, max_body):
    # Twice: the second parse of a block may come from the memo.
    for _ in range(2):
        assert outcome(parse_request, data, max_body) == outcome(
            reference_parse_request, data, max_body
        )


def test_declared_length_is_checked_on_every_request():
    data = b"POST /deliver HTTP/1.1\r\nHost: memo\r\nContent-Length: 100\r\n\r\n"
    assert parse_request(data + b"x" * 100, MAX_BODY)[3] == b"x" * 100
    with pytest.raises(_HttpError) as caught:
        parse_request(data, 99)
    assert caught.value.status == 413
    assert parse_request(data, 100) is None


def test_callers_cannot_mutate_a_memoised_header_dict():
    data = b"GET /healthz HTTP/1.1\r\nHost: mutate-me\r\n\r\n"
    parse_request(data, MAX_BODY)[2]["host"] = "changed"
    assert parse_request(data, MAX_BODY)[2] == {"host": "mutate-me"}


# ----------------------------------------------------------------------
# the memo on a connection
# ----------------------------------------------------------------------


class StubTransport:
    def __init__(self):
        self.data = b""
        self.closed = False

    def write(self, data: bytes) -> None:
        self.data += data

    def close(self) -> None:
        self.closed = True


def replies(data: bytes) -> list:
    """``[(status, body), ...]`` for back-to-back replies."""
    out = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        out.append((int(head.split()[1]), rest[:length]))
        data = rest[length:]
    return out


@pytest.fixture
def gateway():
    fleet = make_fleet("commit", mode="encoded")
    fleet.spawn_many(4)
    gateway = FleetGateway(fleet, port=0)
    yield gateway
    fleet.close()


def connect(gateway) -> _Connection:
    connection = _Connection(gateway)
    connection._transport = StubTransport()
    return connection


def test_distinct_header_blocks_are_all_answered_and_the_memo_stays_bounded(gateway):
    fleet = gateway.fleet
    expected = dumped(
        {
            "key": "session-0000001",
            "state": fleet.state_name("session-0000001"),
            "finished": fleet.is_finished("session-0000001"),
        }
    )
    connection = connect(gateway)
    transport = connection._transport
    for nonce in range(1000):
        transport.data = b""
        connection.data_received(
            b"GET /state?key=session-0000001 HTTP/1.1\r\n"
            b"Host: test\r\nX-Nonce: %d\r\n\r\n" % nonce
        )
        assert replies(transport.data) == [(200, expected)]
        assert 0 < len(_BLOCKS) <= _BLOCKS_KEPT
    assert not transport.closed
    assert gateway._requests.value == 1000
    assert gateway._errors.value == 0


def test_large_header_blocks_are_not_memoised(gateway):
    connection = connect(gateway)
    pad = b"a" * _BLOCK_BYTES
    data = b"GET /healthz HTTP/1.1\r\nX-Pad: " + pad + b"\r\n\r\n"
    connection.data_received(data)
    assert replies(connection._transport.data)[0][0] == 200
    assert not any(pad in block for block in _BLOCKS)


MALFORMED_BLOCKS = [
    b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
    b"POST /deliver HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
    b"POST /deliver HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    b"POST /deliver HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
]


@pytest.mark.parametrize("data", MALFORMED_BLOCKS)
def test_a_malformed_header_block_is_refused_every_time(gateway, data):
    answers = []
    for _ in range(2):
        connection = connect(gateway)
        connection.data_received(data)
        assert connection._transport.closed
        answers.append(replies(connection._transport.data))
    assert answers[0] == answers[1]
    assert [status for status, _ in answers[0]] == [400]
    assert gateway._errors.value == 2
    block = data[data.index(b"\n") + 1 : data.index(b"\r\n\r\n")]
    assert not any(block in stored for stored in _BLOCKS)


@pytest.mark.parametrize("key", HOSTILE[1:])
def test_state_of_a_hostile_key_over_the_wire_is_json_dumps(gateway, key):
    # Over the wire a key is percent-encoded UTF-8: a lone surrogate
    # arrives as U+FFFD, so the served key is the one the query names.
    sent = quote(key.encode("utf-8", "surrogatepass"), safe="")
    key = parse_qs(f"key={sent}")["key"][0]
    gateway.fleet.spawn(key)
    connection = connect(gateway)
    connection.data_received(f"GET /state?key={sent} HTTP/1.1\r\n\r\n".encode())
    ((status, body),) = replies(connection._transport.data)
    expected = {
        "key": key,
        "state": gateway.fleet.state_name(key),
        "finished": gateway.fleet.is_finished(key),
    }
    assert (status, body) == (200, dumped(expected))

