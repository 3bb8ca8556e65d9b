"""Counters, gauges and log-scaled latency histograms behind one registry.

Every count the serve stack keeps lives in a :class:`MetricsRegistry`: a
fleet owns one (its ``fleet_*_total`` counters, its queue-depth gauges
and, instrumented, its latency histograms), a scenario engine another.
The primitives are deliberately Prometheus-shaped so the exposition layer
(:mod:`repro.obs.expo`) renders them in the standard text format:

* :class:`Counter` — a monotone count (``add``);
* :class:`Gauge` — a last-observation value (``set``);
* :class:`LatencyHistogram` — a **fixed array of log-scaled buckets**
  (geometric bounds ``lo, lo*factor, lo*factor^2, ... >= hi`` plus one
  overflow bucket).  Observation is one :func:`bisect.bisect_left` and two
  integer adds — cheap enough to observe per batch on the hot serve path —
  and the fixed layout makes histograms *mergeable*: shards, worker
  engines and repeated runs combine by elementwise bucket addition.
  ``quantile(q)`` reads percentiles back with a worst-case error of one
  bucket width (it reports the upper edge of the quantile bucket), which
  is the precision contract the tests assert against.
* :class:`MetricsRegistry` — named instruments with get-or-create
  accessors, whole-registry :meth:`~MetricsRegistry.merge` (disjoint
  registries union; shared names combine per instrument kind) and a plain
  ``as_dict()`` for JSON artifacts.
* :class:`CounterView` — the field-named, read-only face of a block of
  counters declared once in a registry: ``fleet.metrics`` and a
  scenario engine's ``metrics`` are views, so code reads
  ``metrics.events_dispatched`` while the count itself lives in the
  registry ``/metrics`` renders.

Nothing here reads the clock or touches the serve plane: callers observe
values they measured themselves, so the instruments stay usable from the
fleet engine, the scenario wheel, the gateway and the benchmarks alike.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

__all__ = ["Counter", "CounterView", "Gauge", "LatencyHistogram", "MetricsRegistry"]

#: Default bucket layout for second-valued latencies: 100ns to ~100s in
#: factor-2 steps (31 bounds + overflow).  Wide enough for both a 10M ev/s
#: dispatch loop's per-event service time and a saturated queue's backlog.
DEFAULT_LO = 1e-7
DEFAULT_HI = 100.0
DEFAULT_FACTOR = 2.0


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):  # noqa: A002 - prom naming
        self.name = name
        self.help = help
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """A value that reflects the most recent observation."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):  # noqa: A002
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


def _geometric_bounds(lo: float, hi: float, factor: float) -> tuple[float, ...]:
    if lo <= 0 or hi <= lo:
        raise ValueError(f"histogram needs 0 < lo < hi, got lo={lo}, hi={hi}")
    if factor <= 1.0:
        raise ValueError(f"histogram bucket factor must be > 1, got {factor}")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


class LatencyHistogram:
    """Fixed log-scaled buckets; mergeable; quantiles within one bucket.

    Bucket *i* counts observations ``v <= bounds[i]`` (and, for ``i > 0``,
    ``v > bounds[i-1]``); one extra overflow bucket counts ``v >
    bounds[-1]`` and renders as ``+Inf``.  The bounds are a geometric
    series fixed at construction, so two histograms with the same layout
    merge by adding their count arrays — no rebucketing, no precision
    loss beyond the layout itself.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "total")

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002
        *,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        factor: float = DEFAULT_FACTOR,
    ):
        self.name = name
        self.help = help
        self.bounds: tuple[float, ...] = _geometric_bounds(lo, hi, factor)
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp into the first bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def observe_count(self, value: float, n: int) -> None:
        """Record ``n`` observations of the same value in O(1).

        The batch-granular form the fleet uses for queue latency: every
        event drained in one batch shares the drain instant, so one
        bucket increment covers the whole batch.
        """
        if n <= 0:
            return
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, accurate to one bucket width.

        Returns the upper edge of the bucket holding the quantile rank
        (``inf`` when it falls in the overflow bucket, ``0.0`` when the
        histogram is empty), so the result is monotone in ``q`` and never
        below the true quantile by more than one bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1.0, q * self.count)
        cum = 0
        for i, bucket in enumerate(self.counts):
            cum += bucket
            if cum >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - cum == count ends the loop

    def bucket_bounds(self, value: float) -> tuple[float, float]:
        """The ``(lower, upper)`` edges of the bucket holding ``value``.

        The upper edge of the overflow bucket is ``inf``; the lower edge
        of the first bucket is ``0.0``.  ``upper - lower`` is the "one
        bucket width" tolerance the tests assert quantiles within.
        """
        i = bisect_left(self.bounds, value)
        lower = self.bounds[i - 1] if i > 0 else 0.0
        upper = self.bounds[i] if i < len(self.bounds) else float("inf")
        return lower, upper

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        """Add another histogram's observations into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket layouts differ ({len(other.bounds)} vs "
                f"{len(self.bounds)} bounds)"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total

    def copy(self) -> "LatencyHistogram":
        """An independent histogram with the same layout and contents."""
        clone = LatencyHistogram.__new__(LatencyHistogram)
        clone.name = self.name
        clone.help = self.help
        clone.bounds = self.bounds
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.total = self.total
        return clone

    def as_dict(self) -> dict:
        """JSON-safe summary: count, sum, headline quantiles, sparse buckets.

        Only non-empty buckets are listed (as ``[upper_bound, count]``
        pairs; the overflow bucket's bound is ``None``) — a fresh
        histogram serialises to a few bytes, not its whole layout.
        """
        buckets = [
            [self.bounds[i] if i < len(self.bounds) else None, n]
            for i, n in enumerate(self.counts)
            if n
        ]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms with get-or-create access."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, LatencyHistogram] = {}

    def _check_free(self, name: str, kind: dict) -> None:
        for family in (self.counters, self.gauges, self.histograms):
            if family is not kind and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with a different type"
                )

    def counter(self, name: str, help: str = "") -> Counter:  # noqa: A002
        instrument = self.counters.get(name)
        if instrument is None:
            self._check_free(name, self.counters)
            instrument = self.counters[name] = Counter(name, help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:  # noqa: A002
        instrument = self.gauges.get(name)
        if instrument is None:
            self._check_free(name, self.gauges)
            instrument = self.gauges[name] = Gauge(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        *,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        factor: float = DEFAULT_FACTOR,
    ) -> LatencyHistogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            self._check_free(name, self.histograms)
            instrument = self.histograms[name] = LatencyHistogram(
                name, help, lo=lo, hi=hi, factor=factor
            )
        return instrument

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: the shard/engine aggregation step.

        Counters add, gauges take the other registry's (newer)
        observation, histograms merge bucket-wise; instruments present
        only in ``other`` are copied in, so merging disjoint registries
        is a pure union.
        """
        for name, counter in other.counters.items():
            self.counter(name, counter.help).add(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name, gauge.help).set(gauge.value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self._check_free(name, self.histograms)
                self.histograms[name] = hist.copy()
            else:
                mine.merge(hist)

    def as_dict(self) -> dict:
        """All instruments as one JSON-safe dict (the artifact form)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
        }


_value = attrgetter("value")


class CounterView:
    """A read-only, live view of declared counters, one field per counter.

    A subclass declares its counters once, as ``(field, help)`` pairs in
    ``COUNTERS``; building the view declares each in the registry as the
    counter ``{PREFIX}{field}_total``, and the field reads its value.
    The view holds instruments, never counts, and has no setters:
    counting code bumps the :class:`Counter` objects (:meth:`handles`).
    """

    __slots__ = ("_counters",)
    PREFIX = ""
    COUNTERS: tuple[tuple[str, str], ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(field for field, _help in cls.COUNTERS)
        for i, field in enumerate(fields):
            setattr(cls, field, property(lambda self, i=i: self._counters[i].value))
        cls._Handles = type(f"{cls.__name__}Counters", (), {"__slots__": fields})

    def __init__(self, registry: MetricsRegistry):
        self._counters = tuple(
            registry.counter(f"{self.PREFIX}{field}_total", help)
            for field, help in self.COUNTERS
        )

    def handles(self):
        """The registry's :class:`Counter` objects as slots named by
        field — ``handles().events_dispatched.value += n`` counts."""
        handles = self._Handles()
        for field, counter in zip(self._Handles.__slots__, self._counters):
            setattr(handles, field, counter)
        return handles

    @property
    def counters(self) -> tuple[Counter, ...]:
        """Every declared counter, in declaration order."""
        return self._counters

    def counts(self) -> tuple[int, ...]:
        """Every counter's value, in declaration order (the wire form)."""
        return tuple(map(_value, self._counters))

    def as_dict(self) -> dict:
        """Every field and its value (for JSON artifacts and reports)."""
        return {
            field: counter.value
            for (field, _help), counter in zip(self.COUNTERS, self._counters)
        }
