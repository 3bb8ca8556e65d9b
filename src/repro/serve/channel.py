"""Framed transport between a multiprocess fleet and its workers.

A :class:`Channel` speaks over the file descriptor of one end of a
duplex :func:`multiprocessing.Pipe` (a Unix socket pair, read and written
with :func:`os.readv`/:func:`os.writev`, so POSIX only).  Every message
is one frame: a fixed :data:`HEADER` — a kind byte and the body's length
as an 8-byte integer — then the body.

* A ``("run_flat", buffer)`` request is a :data:`FLAT` frame whose body
  is the ``array('q')`` buffer's raw bytes (``8 * len(buffer)`` of
  them): the bulk path pickles nothing.
* Every other request, and every reply, is a :data:`PICKLED` frame.  A
  reply is ``(status, payload, counts)``, where ``counts`` is the
  worker's fleet counters as a flat int tuple (or ``None``), in the
  order :class:`~repro.serve.metrics.FleetMetrics` declares them, so no
  registry is pickled on the way back either.

The :class:`multiprocessing.connection.Connection` stays the owner of
the descriptor: it is what crosses to a worker started with ``spawn``,
and what :meth:`Channel.close` closes.  A peer that is gone shows the
way it did through the ``Connection``: end of file on any read raises
:class:`EOFError`, and a write to a closed pipe raises
:class:`BrokenPipeError` (an :class:`OSError`).
"""

from __future__ import annotations

import os
import pickle
from array import array
from struct import Struct

__all__ = ["Channel", "FLAT", "HEADER", "PICKLED"]

#: Every frame starts with its kind and its body's length in bytes.
HEADER = Struct("<BQ")
#: Frame kinds: a ``run_flat`` request's raw int64 buffer; anything pickled.
FLAT, PICKLED = 0, 1

_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: The largest frame read with one ``read``: under glibc's 128 KiB mmap
#: threshold, so a small reply is never a mapped block.
_ONE_READ = 1 << 16


class Channel:
    """One end of the parent↔worker hop.

    Both sides hold one: the parent sends requests and reads replies,
    the worker the reverse.  Not thread-safe — a fleet talks to each
    worker from one thread at a time.
    """

    __slots__ = ("_conn", "_fd")

    def __init__(self, conn):
        self._conn = conn
        self._fd = conn.fileno()

    # -- requests (parent -> worker) ------------------------------------

    def send_request(self, request: tuple) -> None:
        if request[0] == "run_flat":
            self._send(FLAT, request[1])
        else:
            self._send(PICKLED, pickle.dumps(request, _PROTOCOL))

    def recv_request(self) -> tuple:
        kind, body = self._recv()
        if kind == FLAT:
            return ("run_flat", array("q", body))
        return pickle.loads(body)

    # -- replies (worker -> parent) -------------------------------------

    def send_reply(self, status: str, payload, counts) -> None:
        self._send(PICKLED, pickle.dumps((status, payload, counts), _PROTOCOL))

    def recv_reply(self) -> tuple:
        """``(status, payload, counts)``: counts an int tuple or ``None``."""
        _, body = self._recv()
        return pickle.loads(body)

    # -- frames ------------------------------------------------------------

    def _send(self, kind: int, body) -> None:
        size = memoryview(body).nbytes
        header = HEADER.pack(kind, size)
        sent = os.writev(self._fd, (header, body))
        if sent < HEADER.size + size:  # a partial write: finish the frame
            rest = memoryview(header + body)[sent:]
            while rest:
                rest = rest[os.write(self._fd, rest):]

    def _recv(self) -> tuple:
        kind, size = HEADER.unpack(_read_exact(self._fd, HEADER.size))
        return kind, _read_exact(self._fd, size)

    def close(self) -> None:
        """Close the descriptor (idempotent); later use raises OSError."""
        self._fd = -1
        self._conn.close()


def _read_exact(fd: int, size: int):
    """Exactly ``size`` bytes from ``fd``; EOF first is an EOFError.

    A frame up to :data:`_ONE_READ` bytes is one ``read`` when the socket
    buffer holds it whole.  A bigger one is read into one preallocated
    buffer from its first byte: ``read`` allocates the whole size it is
    asked for before it shrinks to what arrived, so asking for a big
    frame would map a frame-sized block and copy what it got.
    """
    if not size:
        return b""
    data = b""
    if size <= _ONE_READ:
        data = os.read(fd, size)
        if len(data) == size:
            return data
        if not data:
            raise EOFError("channel closed by its peer")
    buffer = bytearray(size)
    view = memoryview(buffer)
    got = len(data)
    view[:got] = data
    while got < size:
        read = os.readv(fd, (view[got:],))
        if not read:
            raise EOFError("channel closed by its peer mid-frame")
        got += read
    return buffer
