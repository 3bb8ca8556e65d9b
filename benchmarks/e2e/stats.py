"""Order statistics and the host fingerprint for the end-to-end benchmark."""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
from time import perf_counter

#: What :func:`calibration_s` takes on the reference host (2-vCPU Firecracker
#: guest, CPython 3.11) in its fast mode: the 10th percentile of 400 calls,
#: measured 2026-09-30.  It only sets the scale, so that normalised numbers
#: read like the reference host's own; comparisons do not depend on it.
REFERENCE_CALIBRATION_S = 0.0192


def calibration_s() -> float:
    """Time a fixed pure-Python loop (dict updates and integer arithmetic,
    about 20 ms): how fast the host is right now.

    The reference host is a shared machine whose speed moves by a third from
    one minute to the next, all workloads together (README, "Bounds").  The
    loop is run just before and just after every timed section, and the
    section's time is rescaled by :func:`host_speed`, which removes most of
    that common movement; the raw figures are reported beside the rescaled
    ones.  The loop belongs to the benchmark, not to the program under test,
    so no change to the program moves it.
    """
    started = perf_counter()
    table: dict = {}
    total = 0
    for i in range(150_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += key
    return perf_counter() - started


def host_speed(before: float, after: float) -> float:
    """Host speed during a section bracketed by two calibrations: 1.0 is the
    reference host's fast mode, 0.7 a host running 30 % slower.  A time
    measured in the section, multiplied by this, is what it would have been
    at speed 1.0; a rate is divided by it."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


class HostClock:
    """Timed sections, summed both as measured and rescaled to host speed 1.0.

    ``with clock.section(): work()`` runs the calibration loop before and
    after ``work`` and adds its time to :attr:`raw` and, rescaled, to
    :attr:`normalised`.  Long work is cut into several sections so that each
    is bracketed closely: the host changes speed every 0.1-1.5 s.
    """

    def __init__(self):
        self.raw = 0.0
        self.normalised = 0.0
        self._last = (float("-inf"), 0.0)  # (when it ended, what it read)

    @contextlib.contextmanager
    def section(self):
        ended, before = self._last
        if perf_counter() - ended > 0.002:
            # Back-to-back sections share the calibration between them.
            before = calibration_s()
        started = perf_counter()
        yield
        elapsed = perf_counter() - started
        after = calibration_s()
        self._last = (perf_counter(), after)
        self.raw += elapsed
        self.normalised += elapsed * host_speed(before, after)

    @property
    def speed(self) -> float:
        """Time-weighted host speed over the sections so far."""
        return self.normalised / self.raw


def percentile(ordered, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 <= q <= 1``) of an ascending list."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values) -> dict:
    """Median, quartiles, relative spread and count of repeated measurements."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": list(values),
    }


def host_fingerprint() -> dict:
    """What the numbers were measured on (the caller adds the load average
    at the start and at the end of the run, so a busy host shows)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "network": "loopback (127.0.0.1), client and server on one host",
    }
