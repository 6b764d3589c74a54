"""Reference transfer-time computations over a trace's numpy arrays.

:meth:`repro.traces.BandwidthTrace.transfer_time` inverts the cumulative
byte integral with one binary search over float views of the arrays.
This module keeps two references the trace tests compare it with:

* :func:`transfer_time_scan`, the straightforward walk that drains each
  straddled segment in turn; it agrees up to floating-point association
  order;
* :func:`transfer_time_prefix` and :func:`rate_at_prefix`, the same
  prefix-sum inversion done with ``np.searchsorted`` and numpy scalars;
  they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.traces import BandwidthTrace


def _locate(trace: BandwidthTrace, t0: float) -> int:
    last = len(trace) - 1
    index = int(np.searchsorted(trace.times, t0, side="right")) - 1
    return min(max(index, 0), last)


def transfer_time_scan(trace: BandwidthTrace, nbytes: float, t0: float) -> float:
    """Seconds to move ``nbytes`` over ``trace`` starting at ``t0``."""
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes!r}")
    if nbytes == 0:
        return 0.0
    rates = trace.rates
    times = trace.times
    last = len(trace) - 1

    if t0 >= trace.end:
        return nbytes / float(rates[last])
    remaining = float(nbytes)
    elapsed = 0.0
    if t0 < trace.start:
        head_capacity = (trace.start - t0) * float(rates[0])
        if remaining <= head_capacity:
            return remaining / float(rates[0])
        remaining -= head_capacity
        elapsed = trace.start - t0
        cursor = trace.start
        index = 0
    else:
        index = _locate(trace, t0)
        cursor = t0
    while index < last:
        segment_end = float(times[index + 1])
        capacity = (segment_end - cursor) * float(rates[index])
        if remaining <= capacity:
            return elapsed + remaining / float(rates[index])
        remaining -= capacity
        elapsed += segment_end - cursor
        cursor = segment_end
        index += 1
    return elapsed + remaining / float(rates[last])


def rate_at_prefix(trace: BandwidthTrace, t: float) -> float:
    """Instantaneous rate at ``t``, located with ``np.searchsorted``."""
    return float(trace.rates[_locate(trace, t)])


def transfer_time_prefix(trace: BandwidthTrace, nbytes: float, t0: float) -> float:
    """Seconds to move ``nbytes`` from ``t0``: the prefix-sum inversion
    over the numpy arrays, one ``np.searchsorted`` per lookup."""
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes!r}")
    if nbytes == 0:
        return 0.0
    rates = trace.rates
    times = trace.times
    last = len(trace) - 1

    if t0 >= trace.end:
        return nbytes / float(rates[last])
    remaining = float(nbytes)
    elapsed = 0.0
    if t0 < trace.start:
        head_capacity = (trace.start - t0) * float(rates[0])
        if remaining <= head_capacity:
            return remaining / float(rates[0])
        remaining -= head_capacity
        elapsed = trace.start - t0
        cursor = trace.start
        index = 0
    else:
        index = _locate(trace, t0)
        cursor = t0
    if index == last:
        return elapsed + remaining / float(rates[last])
    boundary = float(times[index + 1])
    capacity = (boundary - cursor) * float(rates[index])
    if remaining <= capacity:
        return elapsed + remaining / float(rates[index])
    remaining -= capacity
    elapsed += boundary - cursor
    index += 1
    if index == last:
        return elapsed + remaining / float(rates[last])
    cum = trace._cum()
    target = float(cum[index]) + remaining
    stop = int(np.searchsorted(cum, target, side="right")) - 1
    if stop >= last:
        return (
            elapsed
            + float(times[last]) - float(times[index])
            + (target - float(cum[last])) / float(rates[last])
        )
    stop = max(stop, index)
    within = (target - float(cum[stop])) / float(rates[stop])
    return elapsed + float(times[stop]) - float(times[index]) + within
