"""Step-function bandwidth traces and transfer-time integration.

A :class:`BandwidthTrace` holds sample times ``t[0..n-1]`` (seconds) and
rates ``r[0..n-1]`` (bytes/second); the instantaneous rate is ``r[i]`` for
``t[i] <= t < t[i+1]``.  Before ``t[0]`` the rate is ``r[0]``; after the
last sample the rate holds at ``r[n-1]`` (the trace segments used in the
experiments are long enough that this never matters).

The core operation is :meth:`BandwidthTrace.transfer_time`: the time to
move ``nbytes`` starting at ``t0``, found by inverting the cumulative
byte integral of the step function.  This is what makes the network model
honest about transfers that straddle bandwidth changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

#: Smallest rate we allow, so transfer times stay finite.  1 byte/s is far
#: below anything a mid-1990s WAN path would sustain while still "up".
MIN_RATE = 1.0

#: Maximum segments a cursor walks forward before falling back to binary
#: search.  Near-monotone query streams advance a handful of segments per
#: call; a jump past this many segments is cheaper to locate in O(log n).
_CURSOR_MAX_ADVANCE = 32


class TraceCursor:
    """A mutable segment-index hint for near-monotone trace queries.

    Consecutive :meth:`BandwidthTrace.transfer_time` queries on one link
    start at (almost always) non-decreasing times, so the containing
    segment advances by a few positions per call.  A cursor remembers the
    last segment index; the trace resumes the search there with an
    amortized-O(1) pointer advance instead of an O(log n) binary search,
    falling back to binary search for out-of-order or far-jumping queries.

    Cursors are an *optimization hint only*: results are bit-identical
    with or without one (pinned by ``tests/traces/test_cursor.py``).  They
    live on the mutable query-side object (e.g. :class:`repro.net.link.
    Link`), never on the trace itself — traces stay immutable and safely
    shared across links, runs and sweep workers.
    """

    __slots__ = ("index",)

    def __init__(self, index: int = 0) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"TraceCursor(index={self.index})"


class BandwidthTrace:
    """An immutable step-function of available bandwidth over time.

    Parameters
    ----------
    times:
        Strictly increasing sample times, seconds.
    rates:
        Bandwidth at each sample time, bytes/second.  Clamped below at
        :data:`MIN_RATE`.
    name:
        Optional label (e.g. ``"umd-ucla"``).
    """

    __slots__ = (
        "times", "rates", "name", "_cumbytes",
        "_times_view", "_rates_view", "_cum_view",
    )

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        rates: Sequence[float] | np.ndarray,
        name: str = "",
    ) -> None:
        times_arr = np.asarray(times, dtype=np.float64)
        rates_arr = np.asarray(rates, dtype=np.float64)
        if times_arr.ndim != 1 or rates_arr.ndim != 1:
            raise ValueError("times and rates must be one-dimensional")
        if times_arr.size == 0:
            raise ValueError("a trace needs at least one sample")
        if times_arr.size != rates_arr.size:
            raise ValueError(
                f"length mismatch: {times_arr.size} times vs {rates_arr.size} rates"
            )
        if times_arr.size > 1 and not np.all(np.diff(times_arr) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(times_arr)):
            raise ValueError("times must be finite")
        if not np.all(np.isfinite(rates_arr)):
            raise ValueError("rates must be finite")

        self.times = times_arr
        self.rates = np.maximum(rates_arr, MIN_RATE)
        self.name = name
        # _cumbytes[i] = bytes transferred between times[0] and times[i]
        # at the trace's rates.  Lazily computed.
        self._cumbytes: np.ndarray | None = None
        self._drop_views()

    # The per-transfer paths read the arrays through read-only float
    # memoryviews: indexing one yields a Python float, where indexing the
    # array would build a numpy scalar per step.  The views share the
    # arrays' buffers, are built on first use and never pickled.
    def _drop_views(self) -> None:
        self._times_view: memoryview | None = None
        self._rates_view: memoryview | None = None
        self._cum_view: memoryview | None = None

    def _views(self) -> tuple[memoryview, memoryview]:
        if self._times_view is None:
            self._times_view = memoryview(self.times).toreadonly()
            self._rates_view = memoryview(self.rates).toreadonly()
        return self._times_view, self._rates_view

    def __getstate__(self) -> tuple:
        return (self.times, self.rates, self.name, self._cumbytes)

    def __setstate__(self, state: tuple) -> None:
        self.times, self.rates, self.name, self._cumbytes = state
        self._drop_views()

    # -- basic queries ------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def start(self) -> float:
        """Time of the first sample."""
        return float(self.times[0])

    @property
    def end(self) -> float:
        """Time of the last sample."""
        return float(self.times[-1])

    @property
    def duration(self) -> float:
        """``end - start``."""
        return self.end - self.start

    def rate_at(self, t: float, hint: "TraceCursor | None" = None) -> float:
        """Instantaneous bandwidth (bytes/s) at time ``t``."""
        index = self._locate(t, hint)
        return self._rates_view[index]

    def mean_rate(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted mean bandwidth over ``[t0, t1]`` (default: whole trace)."""
        if t0 is None:
            t0 = self.start
        if t1 is None:
            t1 = self.end
        if t1 <= t0:
            return self.rate_at(t0)
        return self.bytes_between(t0, t1) / (t1 - t0)

    def cursor(self) -> TraceCursor:
        """A fresh :class:`TraceCursor` for near-monotone queries."""
        return TraceCursor()

    # -- integration --------------------------------------------------------
    def _cum(self) -> np.ndarray:
        if self._cumbytes is None:
            if len(self) == 1:
                self._cumbytes = np.zeros(1)
            else:
                deltas = np.diff(self.times) * self.rates[:-1]
                self._cumbytes = np.concatenate(([0.0], np.cumsum(deltas)))
        return self._cumbytes

    def ensure_cum(self) -> "BandwidthTrace":
        """Eagerly compute the cumulative-bytes prefix sum; returns ``self``.

        The prefix sum is computed exactly once and shared read-only by
        every consumer of the trace (links, runs, sweep workers), so batch
        pipelines prime it up front instead of paying the lazy computation
        inside the first simulated transfer.  Values are identical either
        way — this only moves *when* the array is built.
        """
        self._cum()
        return self

    def _locate(self, t0: float, hint: TraceCursor | None = None) -> int:
        """Index ``i`` with ``times[i] <= t0 < times[i+1]``, clamped to
        ``[0, len-1]`` — exactly ``searchsorted(times, t0, 'right') - 1``,
        found with :func:`bisect.bisect_right` on the float view.

        With a ``hint`` the search resumes from the cursor's last index
        and walks forward (amortized O(1) for near-monotone query times);
        out-of-order queries and jumps past :data:`_CURSOR_MAX_ADVANCE`
        segments fall back to binary search.  The hint is updated to the
        returned index either way.
        """
        times = self._times_view
        if times is None:
            times = self._views()[0]
        last = len(times) - 1
        if hint is not None:
            index = hint.index
            if 0 <= index <= last and times[index] <= t0:
                steps = 0
                advanced = True
                while index < last and times[index + 1] <= t0:
                    index += 1
                    steps += 1
                    if steps > _CURSOR_MAX_ADVANCE:
                        advanced = False
                        break
                if advanced:
                    hint.index = index
                    return index
        index = bisect_right(times, t0) - 1
        index = 0 if index < 0 else (last if index > last else index)
        if hint is not None:
            hint.index = index
        return index

    def bytes_between(self, t0: float, t1: float) -> float:
        """Bytes deliverable between ``t0`` and ``t1`` at the trace's rates.

        Head (before the first sample) and tail (after the last sample)
        regions are computed directly against the flat extension rates, so
        results stay accurate far outside the sampled window.
        """
        if t1 < t0:
            raise ValueError(f"t1={t1} earlier than t0={t0}")
        start, end = self.start, self.end
        total = 0.0
        if t0 < start:
            total += (min(t1, start) - t0) * float(self.rates[0])
        if t1 > end:
            total += (t1 - max(t0, end)) * float(self.rates[-1])
        lo, hi = max(t0, start), min(t1, end)
        if hi > lo:
            total += self._bytes_window(lo, hi)
        return total

    def _bytes_window(self, lo: float, hi: float) -> float:
        """Bytes between ``lo`` and ``hi`` for start <= lo < hi <= end.

        Summed directly over the segments the window covers rather than as
        a difference of prefix sums: the prefix sum grows with every byte
        before ``lo``, so its difference cancels catastrophically for a
        short, slow window late in a fast trace.  Every term here is
        non-negative, so the result is accurate relative to itself.
        """
        i, j = self._locate(lo), self._locate(hi)
        times, rates = self._times_view, self._rates_view
        if i == j:
            return (hi - lo) * rates[i]
        head = (times[i + 1] - lo) * rates[i]
        middle = np.dot(np.diff(self.times[i + 1 : j + 1]), self.rates[i + 1 : j])
        tail = (hi - times[j]) * rates[j]
        return float(head + middle + tail)

    def transfer_time(
        self, nbytes: float, t0: float, hint: "TraceCursor | None" = None
    ) -> float:
        """Seconds to move ``nbytes`` starting at time ``t0``.

        The transfer consumes the step function's instantaneous rate; a
        rate change mid-transfer changes the transfer's speed from that
        moment on.  ``nbytes == 0`` takes zero time.

        The first (partial) segment is handled directly — exact, never
        negative, even for tiny transfers far outside the sampled window.
        A transfer that spans further is inverted against the cumulative
        prefix-sum byte integral with one binary search, so the cost is
        O(log n) rather than a Python-level walk over every straddled
        segment (the tests keep that walk as the reference,
        ``tests/oracles/trace_scan.py``).  Every step reads the float
        views, so no numpy scalar is made per call.

        ``hint`` (a :class:`TraceCursor`, typically owned by a
        :class:`repro.net.link.Link`) amortizes the *starting-segment*
        lookup to O(1) across a near-monotone stream of query times; the
        result is bit-identical with or without it.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        if nbytes == 0:
            return 0.0
        times, rates = self._times_view, self._rates_view
        if times is None:
            times, rates = self._views()
        last = len(times) - 1

        if t0 >= times[last]:
            if hint is not None:
                hint.index = last
            return nbytes / rates[last]
        remaining = float(nbytes)
        elapsed = 0.0
        start = times[0]
        if t0 < start:
            head_capacity = (start - t0) * rates[0]
            if remaining <= head_capacity:
                return remaining / rates[0]
            remaining -= head_capacity
            elapsed = start - t0
            cursor = start
            index = 0
            if hint is not None:
                hint.index = 0
        else:
            index = self._locate(t0, hint)
            cursor = t0
        if index == last:
            return elapsed + remaining / rates[last]
        # Finish the (partial) segment the transfer starts in exactly.
        boundary = times[index + 1]
        capacity = (boundary - cursor) * rates[index]
        if remaining <= capacity:
            return elapsed + remaining / rates[index]
        remaining -= capacity
        elapsed += boundary - cursor
        index += 1
        if index == last:
            return elapsed + remaining / rates[last]
        # From the sample boundary ``times[index]`` onward, invert the
        # cumulative byte integral: find the segment whose prefix-sum
        # bracket contains ``cum[index] + remaining``.  The prefix sums
        # never decrease, so the search can start at ``index``.
        cum = self._cum_view
        if cum is None:
            cum = self._cum_view = memoryview(self._cum()).toreadonly()
        target = cum[index] + remaining
        stop = bisect_right(cum, target, index) - 1
        if stop >= last:
            return (
                elapsed
                + times[last] - times[index]
                + (target - cum[last]) / rates[last]
            )
        stop = max(stop, index)
        within = (target - cum[stop]) / rates[stop]
        return elapsed + times[stop] - times[index] + within

    # -- transforms ----------------------------------------------------------
    def shifted(self, offset: float) -> "BandwidthTrace":
        """A copy whose time axis is shifted by ``offset`` seconds."""
        return BandwidthTrace(self.times + offset, self.rates, name=self.name)

    def segment(self, t0: float, t1: float) -> "BandwidthTrace":
        """The sub-trace covering ``[t0, t1]`` (rates extended flat)."""
        if t1 <= t0:
            raise ValueError(f"empty segment [{t0}, {t1}]")
        inside = (self.times > t0) & (self.times < t1)
        times = np.concatenate(([t0], self.times[inside], [t1]))
        rates = np.concatenate(
            ([self.rate_at(t0)], self.rates[inside], [self.rate_at(t1)])
        )
        return BandwidthTrace(times, rates, name=self.name)

    def rebased(self, new_start: float = 0.0) -> "BandwidthTrace":
        """A copy shifted so that the first sample sits at ``new_start``."""
        return self.shifted(new_start - self.start)

    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy with all rates multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        return BandwidthTrace(self.times, self.rates * factor, name=self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandwidthTrace):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.rates, other.rates)
        )

    def __hash__(self) -> int:  # identity hash; traces are mutable-free but big
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (
            f"<BandwidthTrace {self.name!r} n={len(self)} "
            f"[{self.start:.0f}s..{self.end:.0f}s] "
            f"mean={self.mean_rate() / 1024:.1f}KB/s>"
        )


def constant_trace(rate: float, name: str = "constant") -> BandwidthTrace:
    """A trace with a single, constant rate (bytes/second)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    return BandwidthTrace([0.0], [rate], name=name)
