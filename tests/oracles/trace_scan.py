"""The reference transfer-time walk: one trace segment at a time.

:meth:`repro.traces.BandwidthTrace.transfer_time` inverts the cumulative
byte integral with one ``searchsorted``.  This module keeps the
straightforward walk it replaced, which drains each straddled segment in
turn; the two agree up to floating-point association order.  The trace
tests compare them.
"""

from __future__ import annotations

import numpy as np

from repro.traces import BandwidthTrace


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
        index = int(np.searchsorted(times, t0, side="right")) - 1
        index = min(max(index, 0), last)
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
