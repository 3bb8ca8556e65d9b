"""The framed parent↔worker channel of the multiprocess fleet.

A :class:`~repro.serve.channel.Channel` frames every message as a kind
byte, an 8-byte length and a body.  These tests drive it over a bare
socket pair: frames that arrive in pieces or bigger than the socket
buffer, a peer that vanishes mid-frame, the raw ``run_flat`` body, and
the worker's counters crossing as a tuple.
"""

import os
import pickle
import socket
import threading
import time
import tracemalloc
from array import array

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.channel import FLAT, HEADER, PICKLED, Channel, _read_exact
from repro.serve.metrics import FleetMetrics, QueueDepths


@pytest.fixture
def pair():
    """``(near, far)`` channels over one socket pair, closed afterwards."""
    left, right = socket.socketpair()
    near, far = Channel(left), Channel(right)
    yield near, far
    near.close()
    far.close()


def frame_bytes(send) -> bytes:
    """The exact bytes ``send(channel)`` puts on the wire."""
    left, right = socket.socketpair()
    with left, right:
        send(Channel(left))
        right.setblocking(False)
        return right.recv(1 << 20)


def test_a_frame_written_one_byte_at_a_time_is_read_whole(pair):
    request = ("actions_since", "session-0000001", 3)
    wire = frame_bytes(lambda channel: channel.send_request(request))
    near, far = pair
    writer_fd = near._fd

    def trickle():
        for offset in range(len(wire)):
            os.write(writer_fd, wire[offset : offset + 1])
            time.sleep(0.0005)

    writer = threading.Thread(target=trickle)
    writer.start()
    try:
        assert far.recv_request() == request
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_a_frame_bigger_than_the_socket_buffer_crosses(pair):
    near, far = pair
    big = array("q", range(1 << 20))  # 8 MiB, a checkpoint-sized frame
    assert big.itemsize * len(big) > near._conn.getsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF
    )
    writer = threading.Thread(target=near.send_request, args=(("run_flat", big),))
    writer.start()
    try:
        op, received = far.recv_request()
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert op == "run_flat" and received == big


def test_reading_a_big_frame_fills_one_buffer_in_place():
    # Linear in the frame size: the body lands in one preallocated
    # buffer.  A ``bytes +=`` loop would hold the old and the new copy at
    # once on every chunk (and copy O(size^2 / chunk) bytes doing it).
    size = 8 << 20
    payload = os.urandom(size)
    left, right = socket.socketpair()
    with left, right:
        writer = threading.Thread(target=left.sendall, args=(payload,))
        writer.start()
        tracemalloc.start()
        try:
            received = _read_exact(right.fileno(), size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            writer.join(timeout=30)
    assert not writer.is_alive()
    assert received == payload
    assert peak < 1.5 * size


@pytest.mark.parametrize("cut", ["header", "body"])
def test_eof_inside_a_frame_is_an_eoferror(pair, cut):
    wire = frame_bytes(lambda channel: channel.send_request(("state", "k")))
    near, far = pair
    keep = HEADER.size - 3 if cut == "header" else len(wire) - 2
    os.write(near._fd, wire[:keep])
    near.close()
    with pytest.raises(EOFError):
        far.recv_request()


def test_eof_at_a_frame_boundary_is_an_eoferror(pair):
    near, far = pair
    near.close()
    with pytest.raises(EOFError):
        far.recv_reply()
    with pytest.raises(OSError):  # BrokenPipeError, an OSError
        far.send_reply("ok", None, None)


def test_a_closed_channel_refuses_to_send(pair):
    near, _ = pair
    near.close()
    with pytest.raises(OSError):
        near.send_request(("stop",))


def test_an_empty_run_flat_buffer_round_trips(pair):
    near, far = pair
    near.send_request(("run_flat", array("q")))
    op, buffer = far.recv_request()
    assert op == "run_flat" and buffer == array("q") and buffer.typecode == "q"


def test_a_run_flat_body_is_the_raw_buffer():
    buffer = array("q", [3, 1, 4, 1, 5, 9, -2, 1 << 40])
    wire = frame_bytes(lambda channel: channel.send_request(("run_flat", buffer)))
    kind, size = HEADER.unpack(wire[: HEADER.size])
    assert kind == FLAT
    assert size == 8 * len(buffer) == len(wire) - HEADER.size
    assert wire[HEADER.size :] == buffer.tobytes()


def test_other_requests_are_pickled_frames(pair):
    request = ("spawn_keys", ["a", "b"])
    wire = frame_bytes(lambda channel: channel.send_request(request))
    kind, size = HEADER.unpack(wire[: HEADER.size])
    assert kind == PICKLED and size == len(wire) - HEADER.size
    assert pickle.loads(wire[HEADER.size :]) == request


def every_counter_set() -> FleetMetrics:
    """A fleet counter view with every counter distinct and off zero."""
    metrics = FleetMetrics(MetricsRegistry(), QueueDepths(MetricsRegistry()))
    for index, counter in enumerate(metrics.counters):
        counter.value = 1000 + 17 * index
    return metrics


def test_the_counters_carry_every_field(pair):
    near, far = pair
    sent = every_counter_set()
    far.send_reply("ok", {"payload": 1}, sent.counts())
    status, payload, received = near.recv_reply()
    assert (status, payload) == ("ok", {"payload": 1})
    # One int per declared counter, in declaration order.
    assert len(received) == len(FleetMetrics.COUNTERS)
    assert all(type(value) is int for value in received)
    assert dict(zip((f for f, _ in FleetMetrics.COUNTERS), received)) == {
        field: value
        for field, value in sent.as_dict().items()
        if field not in ("shard_depths", "peak_shard_depth")
    }


def test_a_reply_without_counters_has_none(pair):
    near, far = pair
    far.send_reply("fail", "RuntimeError: no engine", None)
    assert near.recv_reply() == ("fail", "RuntimeError: no engine", None)
