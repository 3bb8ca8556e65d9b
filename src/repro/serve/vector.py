"""Vectorized batch dispatch kernel over the columnar fleet store.

The encoded hot path is pure int arithmetic (``offset = states[slot] +
col; next = jump[offset]``) but still executes one Python bytecode
iteration per event; this module executes a whole dispatch round as
numpy gather/scatter over the same jump table the scalar loop walks:

* **gather** — ``offsets = states[slots] + cols`` and
  ``next = jump[offsets]`` pull every event's transition in two array
  reads;
* **scatter** — ``states[slots] = next`` writes every fired transition
  back in one pass.

A gather/scatter round is only race-free when each slot appears at most
once, so a batch is first split into *occurrence rounds* — round *r*
holds every slot's *r*-th event, which preserves per-instance order
exactly — and the rounds execute sequentially.
Round splitting is itself vectorized (two stable radix argsorts; ids
below 2**16 sort as ``uint16``, where numpy's stable sort is an O(n)
radix pass) and happens once per schedule at *encode* time:
:class:`VectorSchedule` is the batch's two id columns permuted into
round order plus the round boundaries, so a repeated ``run`` pays only
the gathers — the same "intern once per workload" contract the encoded
plane already has.  Held schedules are what a workload keeps (the
scenario wheel one per future instant, a bulk generator one per batch),
so each column is stored in the narrowest unsigned dtype that holds it:
5 bytes per event below 65 536 instances, 256 messages and 65 536
events, against 24 for three ``int64`` values.  The kernel widens them
once per batch.

The non-vectorizable edges are masked out and post-processed scalar-side:

* **inapplicable messages** never branch: the kernel's jump variant maps
  a ``-1`` (message inapplicable) entry to the *current* premultiplied
  state, so the scatter is unconditional; the ignored and recycled
  counts come from one flags gather over the whole batch's offsets.
* **action logging** (``log_policy='full'``) gathers an
  actions-present mask and walks only the matching events in Python,
  appending the identical action tuples the scalar loop appends — traces
  stay byte-identical.
* **finish-state auto-recycle** gathers the recycle mask (transitions
  whose ``acts`` sentinel is ``None``) and clears those slots' logs
  scalar-side, mirroring the encoded loop exactly.
* **unknown instances/messages** never reach the kernel: interning at
  intake (``run``/``encode_flat``/``post``) rejects them with the
  canonical :class:`~repro.core.errors.DeploymentError`, exactly as in
  every other mode.

numpy is a *soft* dependency and this module is the single import guard:
everything else asks :data:`HAS_NUMPY` / :func:`require_numpy`, and it is
:func:`require_numpy` that imports it — a process that never builds a
vector fleet or schedule never loads numpy.  Without numpy (or with
``REPRO_NO_NUMPY`` set, which CI uses to exercise the fallback) a
``mode='vector'`` fleet raises the canonical
:class:`~repro.core.errors.DeploymentError` at construction and the
pure-Python encoded path — which stays the differential oracle for the
kernel — serves unchanged.
"""

from __future__ import annotations

import os
from array import array
from importlib.util import find_spec

from repro.core.errors import DeploymentError

__all__ = [
    "HAS_NUMPY",
    "NUMPY_UNAVAILABLE_REASON",
    "StateColumn",
    "VectorKernel",
    "VectorSchedule",
    "require_numpy",
]

#: numpy itself, bound by the first :func:`require_numpy` that succeeds.
_np = None

if os.environ.get("REPRO_NO_NUMPY"):
    NUMPY_UNAVAILABLE_REASON: str | None = (
        "numpy disabled via REPRO_NO_NUMPY (fallback-path testing)"
    )
elif find_spec("numpy") is None:  # pragma: no cover - exercised via REPRO_NO_NUMPY
    NUMPY_UNAVAILABLE_REASON = "numpy is not installed (pip install 'repro[vector]')"
else:
    NUMPY_UNAVAILABLE_REASON = None

#: Whether the vectorized kernel can run in this environment (decided by
#: looking numpy up, not by importing it).
HAS_NUMPY = NUMPY_UNAVAILABLE_REASON is None

#: Occurrence ranks sort as uint16 (numpy's O(n) stable radix path) below
#: this; deeper batches fall back to the comparison argsort.  Slots need no
#: such cast: a compact slot column below it already is ``uint16``.
_RADIX_LIMIT = 1 << 16


def _flat_count(flat) -> int:
    """Events in a flat ``[slot, col, ...]`` buffer.

    A buffer of odd length ends in a slot with no column; it raises the
    one canonical error every dispatch mode refuses it with, before
    anything is dispatched or a half-pair is paired with a neighbour.
    """
    if len(flat) % 2:
        raise DeploymentError(
            f"flat schedule has odd length {len(flat)}: a [slot, col, ...] "
            "buffer must hold whole pairs"
        )
    return len(flat) // 2


def require_numpy(feature: str = "vector dispatch") -> None:
    """Import numpy for the vector plane, or raise the canonical error.

    Everything here that touches numpy calls this first, so the import
    (0.1 s and ~15 MB) is paid by the first vector fleet or schedule a
    process builds and by nothing else.
    """
    global _np
    if _np is not None:
        return
    reason = NUMPY_UNAVAILABLE_REASON
    if reason is None:
        try:
            import numpy as _np  # binds the module global

            return
        except ImportError as exc:
            reason = f"numpy is installed but failed to import ({exc})"
    raise DeploymentError(f"{feature} needs numpy: {reason}")


def _unsigned_below(bound: int):
    """The narrowest unsigned dtype holding every int in ``[0, bound)``
    (``int64`` past 32 bits)."""
    for dtype, limit in (
        (_np.uint8, 1 << 8),
        (_np.uint16, 1 << 16),
        (_np.uint32, 1 << 32),
    ):
        if bound <= limit:
            return dtype
    return _np.int64


def _compact(ids):
    """An id column in the narrowest dtype that holds every value.

    Non-negative ids take :func:`_unsigned_below` their maximum; a column
    with a negative id (only a trusted ``array('q')`` can carry one) stays
    ``int64``, so narrowing never changes a value.  A strided view is
    copied, so a schedule does not keep the buffer it was built from.
    """
    if not len(ids):
        return ids.astype(_np.uint8)
    low, high = int(ids.min()), int(ids.max())
    dtype = _np.int64 if low < 0 else _unsigned_below(high + 1)
    return _np.ascontiguousarray(ids, dtype=dtype)


class StateColumn:
    """The store's ``states`` column as a growable flat numpy array.

    Scalar accesses (``deliver``, ``state_name``, restore) keep the exact
    list semantics — ``__getitem__`` returns a plain ``int`` so snapshots
    stay bit-identical with list-backed fleets — while the kernel gathers
    and scatters against the raw :attr:`data` buffer directly.  Growth is
    amortized doubling; only indices below ``len(self)`` are ever live,
    exactly like the list column.
    """

    __slots__ = ("data", "size")

    def __init__(self) -> None:
        require_numpy("the vectorized states column")
        self.data = _np.zeros(64, dtype=_np.int64)
        self.size = 0

    def append(self, value: int) -> None:
        if self.size == len(self.data):
            grown = _np.empty(2 * len(self.data), dtype=_np.int64)
            grown[: self.size] = self.data
            self.data = grown
        self.data[self.size] = value
        self.size += 1

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, slot: int) -> int:
        return int(self.data[slot])

    def __setitem__(self, slot: int, value: int) -> None:
        self.data[slot] = value


class VectorSchedule:
    """A pre-encoded schedule with its round structure already computed.

    The vector twin of the flat ``array('q')`` schedule: the batch's
    ``slots`` and ``cols`` as two compact columns permuted into
    occurrence-round order, and ``bounds`` — round *r* is
    ``[bounds[r], bounds[r + 1])`` of both.  Every slot is unique inside
    a round and rounds keep arrival order, so dispatch is a walk over
    ``bounds`` and never pays the split; the number of arrays held does
    not depend on the number of rounds.  Build one from a flat
    ``[slot, col, ...]`` buffer (``VectorSchedule(flat)``) or straight
    from two id columns (:meth:`of_columns`).  Schedules are
    fleet-specific — encode against the fleet that will run the schedule.

    Each column, and the arrival position of each round-ordered event,
    is stored in the narrowest unsigned dtype that holds every value, so
    below 65 536 instances, 256 messages and 65 536 events a held event
    costs 5 bytes (``uint16`` slot, ``uint8`` column, ``uint16``
    position), not the 24 of three ``int64`` values.  Narrowing never
    changes a value: a column with a negative id keeps ``int64``.  The
    schedule keeps no derived copy — ``.flat`` rebuilds arrival order
    from the compact columns on each read.
    """

    __slots__ = ("slots", "cols", "bounds", "count", "_order")

    def __init__(self, flat: array):
        require_numpy("a vector schedule")
        _flat_count(flat)
        pairs = _np.frombuffer(flat, dtype=_np.int64)
        self._split(pairs[0::2], pairs[1::2])

    @classmethod
    def of_columns(cls, slots, cols) -> "VectorSchedule":
        """The schedule of two parallel id lists in arrival order."""
        require_numpy("a vector schedule")
        schedule = cls.__new__(cls)
        # Through array('Q'): CPython fills one from a list at ~7 ns an
        # element, against ~16 for 'q' and 20-26 for np.fromiter/np.array
        # (3.11, numpy 2.4); ids are never negative, so the bits agree.
        schedule._split(
            _np.frombuffer(array("Q", slots), dtype=_np.int64),
            _np.frombuffer(array("Q", cols), dtype=_np.int64),
        )
        return schedule

    def _split(self, slots, cols) -> None:
        """Compact arrival-order columns and permute them into
        occurrence-round order."""
        count = self.count = len(slots)
        slots, cols = _compact(slots), _compact(cols)
        self.slots, self.cols = slots, cols
        self.bounds = [0, count] if count else [0]
        #: Arrival position of each round-ordered event (``None``: the
        #: batch is one round and the columns are still in arrival order).
        self._order = None
        if count < 2:
            return
        # A stable sort by slot lines each slot's events up as one run,
        # still in arrival order; compact slots below 2**16 make it
        # numpy's O(n) radix pass.
        by_slot = _np.argsort(slots, kind="stable")
        runs = slots[by_slot]
        first = _np.empty(count, dtype=_np.bool_)
        first[0] = True
        _np.not_equal(runs[1:], runs[:-1], out=first[1:])
        if first.all():
            return
        # An event's round is its distance from the start of its run;
        # a stable sort by round keeps arrival order inside each round.
        positions = _np.arange(count, dtype=_np.int64)
        depth = positions - _np.maximum.accumulate(_np.where(first, positions, 0))
        narrow = int(depth.max()) < _RADIX_LIMIT
        round_of = _np.empty(count, dtype=_np.uint16 if narrow else _np.int64)
        round_of[by_slot] = depth
        order = _np.argsort(round_of, kind="stable")
        self.slots, self.cols = slots[order], cols[order]
        self.bounds = [0, *_np.cumsum(_np.bincount(depth)).tolist()]
        self._order = order.astype(_unsigned_below(count))

    def _arrival(self) -> tuple:
        """The two compact columns back in arrival order."""
        order = self._order
        if order is None:
            return self.slots, self.cols
        slots = _np.empty_like(self.slots)
        cols = _np.empty_like(self.cols)
        slots[order] = self.slots
        cols[order] = self.cols
        return slots, cols

    @property
    def rounds(self) -> list:
        """Each round's ``(slots, cols)``, as views over the two columns."""
        bounds = self.bounds
        return [
            (self.slots[start:end], self.cols[start:end])
            for start, end in zip(bounds, bounds[1:])
        ]

    @property
    def flat(self) -> array:
        """The batch as a flat ``[slot, col, ...]`` buffer in arrival order.

        Built on each read and not kept: only scalar consumers (an
        ``encoded`` or ``naive`` fleet handed this schedule,
        cross-checks) read it, and the schedule stays at its compact
        size.
        """
        flat = array("q", bytes(16 * self.count))
        pairs = _np.frombuffer(flat, dtype=_np.int64).reshape(-1, 2)
        pairs[:, 0], pairs[:, 1] = self._arrival()
        return flat

    def __len__(self) -> int:
        return self.count


class VectorKernel:
    """Execute encoded batches as gather/scatter over the jump table.

    Built by a ``mode='vector'`` :class:`~repro.serve.fleet.FleetEngine`
    from the same ``jump``/``acts`` arrays the scalar encoded loop uses;
    the kernel precomputes three per-offset arrays so a dispatch round is
    pure array arithmetic:

    * ``jump`` — next premultiplied state, with ``-1`` (inapplicable)
      entries remapped to the offset's *own* premultiplied state so the
      scatter needs no mask;
    * ``flags`` — ``int8``, 1 where the message is inapplicable, 2 where
      the transition carries the auto-recycle sentinel (the two are
      disjoint), so both counters come out of *one* gather per batch;
    * ``logged`` / ``recycles`` — booleans marking the offsets that need
      scalar-side post-processing under ``log_policy='full'`` (action
      retention, clearing a recycled slot's log).
    """

    __slots__ = (
        "_store",
        "_acts",
        "_jump",
        "_flags",
        "_logged",
        "_recycles",
        "_any_logged",
        "_any_recycles",
        "_any_flags",
    )

    def __init__(self, store, jump, acts, width: int, log_policy: str):
        require_numpy()
        self._store = store
        self._acts = acts
        offsets = _np.arange(len(jump), dtype=_np.int64)
        raw = _np.asarray(jump, dtype=_np.int64)
        inapplicable = raw < 0
        # Remap inapplicable entries to the offset's own premultiplied
        # state (offset // width * width) so the round scatter needs no
        # mask: an ignored event rewrites the state it read.
        self._jump = _np.where(inapplicable, offsets - (offsets % width), raw)
        self._logged = _np.fromiter(
            (entry is not None and len(entry) > 0 for entry in acts),
            dtype=_np.bool_,
            count=len(acts),
        )
        self._recycles = _np.fromiter(
            (entry is None for entry in acts), dtype=_np.bool_, count=len(acts)
        )
        self._flags = (
            inapplicable.astype(_np.int8) + 2 * self._recycles.astype(_np.int8)
        )
        # ``off`` keeps no logs, so neither edge needs the scalar walk:
        # its acts table has no action to log, and its recycles only
        # bump a counter, which the flags gather covers.
        self._any_logged = bool(self._logged.any())
        self._any_recycles = log_policy == "full" and bool(self._recycles.any())
        self._any_flags = bool(inapplicable.any() or self._recycles.any())

    def dispatch(self, schedule: VectorSchedule) -> tuple[int, int]:
        """Run every round of a schedule; returns ``(ignored, recycled)``.

        The tally means what the scalar encoded loop's does: ``ignored``
        counts inapplicable messages, ``recycled`` protocol-completing
        transitions under auto-recycle.  A round is four array
        operations — gather the states, add them into the round's slice
        of the batch's offsets buffer, gather the jumps, scatter — and the
        tally comes from one flags gather over that buffer afterwards.
        The compact columns widen once per batch, not per round: the
        slots to ``intp`` indices, the columns into the offsets buffer
        itself.
        """
        count = schedule.count
        states = self._store.states.data
        jump = self._jump
        all_slots = schedule.slots.astype(_np.intp, copy=False)
        offsets = schedule.cols.astype(_np.int64)
        add = _np.add
        # The masked scalar walk runs per round because a slot's log
        # order is its round order.
        scalar_edges = self._any_logged or self._any_recycles
        start = 0
        for end in schedule.bounds[1:]:
            slots = all_slots[start:end]
            window = offsets[start:end]
            add(window, states[slots], out=window)
            states[slots] = jump[window]
            if scalar_edges:
                self._post_process(slots, window)
            start = end
        ignored = recycled = 0
        if self._any_flags and count:
            tally = _np.bincount(self._flags[offsets], minlength=3)
            ignored, recycled = int(tally[1]), int(tally[2])
        return ignored, recycled

    def _post_process(self, slots, offsets) -> None:
        """Scalar-side handling of the masked edges of one round.

        Only the events whose offsets carry retained actions or the
        auto-recycle sentinel are touched; everything else stayed inside
        the vector path.  Appends the identical action tuples the scalar
        loop appends, in the identical per-slot order (rounds run
        sequentially; a slot appears at most once per round).
        """
        logs = self._store.logs
        if self._any_logged:
            mask = self._logged[offsets]
            if mask.any():
                acts_table = self._acts
                for slot, offset in zip(
                    slots[mask].tolist(), offsets[mask].tolist()
                ):
                    logs[slot].append(acts_table[offset])
        if self._any_recycles:
            mask = self._recycles[offsets]
            if mask.any():
                for slot in slots[mask].tolist():
                    logs[slot].clear()
