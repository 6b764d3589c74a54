"""The float-view trace walk equals the numpy prefix-sum reference exactly.

``transfer_time``, ``rate_at`` and ``_locate`` read read-only memoryviews
and ``bisect``; ``tests/oracles/trace_scan.py`` keeps the same inversion
over the numpy arrays with ``np.searchsorted``.  Every answer must be
bit-identical (``==``), with or without a cursor, for start times before,
inside, at the end of and past the trace, for single-sample traces, for
cursor jumps past ``_CURSOR_MAX_ADVANCE`` and across a pickle taken after
the views were built.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.trace import _CURSOR_MAX_ADVANCE, BandwidthTrace
from tests.oracles.trace_scan import rate_at_prefix, transfer_time_prefix


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=3 * _CURSOR_MAX_ADVANCE))
    deltas = draw(
        st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=n, max_size=n)
    )
    rates = draw(
        st.lists(st.floats(min_value=0.5, max_value=1e8), min_size=n, max_size=n)
    )
    offset = draw(st.floats(min_value=-1e4, max_value=1e4))
    return BandwidthTrace(offset + np.cumsum(deltas), rates)


@st.composite
def start_times(draw, trace):
    """Before the start, on or between samples, at the end, past it."""
    times = trace.times
    kind = draw(st.sampled_from(["before", "sample", "inside", "end", "after"]))
    if kind == "before":
        return trace.start - draw(st.floats(min_value=1e-6, max_value=1e4))
    if kind == "sample":
        return float(times[draw(st.integers(0, len(trace) - 1))])
    if kind == "inside":
        return draw(st.floats(min_value=trace.start, max_value=trace.end))
    if kind == "end":
        return trace.end
    return trace.end + draw(st.floats(min_value=1e-6, max_value=1e4))


@st.composite
def queries(draw):
    trace = draw(traces())
    sizes = st.floats(min_value=0.0, max_value=1e10)
    batch = draw(
        st.lists(st.tuples(sizes, start_times(trace)), min_size=1, max_size=25)
    )
    return trace, batch


def assert_matches_reference(trace, batch, cursor=None):
    for nbytes, t0 in batch:
        assert trace.transfer_time(nbytes, t0, hint=cursor) == (
            transfer_time_prefix(trace, nbytes, t0)
        )
        assert trace.rate_at(t0, hint=cursor) == rate_at_prefix(trace, t0)


@given(queries())
@settings(max_examples=150, deadline=None)
def test_without_cursor(case):
    trace, batch = case
    assert_matches_reference(trace, batch)


@given(queries(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_with_cursor(case, monotone):
    """A shared cursor over arbitrary and over sorted query orders."""
    trace, batch = case
    if monotone:
        batch = sorted(batch, key=lambda query: query[1])
    assert_matches_reference(trace, batch, trace.cursor())


@given(queries())
@settings(max_examples=60, deadline=None)
def test_pickled_after_views_built(case):
    trace, batch = case
    assert_matches_reference(trace, batch, trace.cursor())
    clone = pickle.loads(pickle.dumps(trace))
    assert clone._times_view is None and clone._cum_view is None
    assert_matches_reference(clone, batch, clone.cursor())


def test_single_sample_trace():
    trace = BandwidthTrace([5.0], [250.0])
    cursor = trace.cursor()
    for t0 in (-1e6, 0.0, 4.999, 5.0, 5.001, 1e9):
        for nbytes in (0.0, 1e-9, 1.0, 1e6):
            assert trace.transfer_time(nbytes, t0, hint=cursor) == (
                transfer_time_prefix(trace, nbytes, t0)
            )
        assert trace.rate_at(t0, hint=cursor) == rate_at_prefix(trace, t0)


def test_cursor_jumps_past_walk_limit():
    rng = np.random.default_rng(7)
    n = 8 * _CURSOR_MAX_ADVANCE
    trace = BandwidthTrace(
        np.cumsum(rng.uniform(1.0, 30.0, size=n)), rng.uniform(1e3, 1e6, size=n)
    )
    cursor = trace.cursor()
    for index in (0, 1, _CURSOR_MAX_ADVANCE + 2, 3 * _CURSOR_MAX_ADVANCE, 2, n - 1):
        t0 = float(trace.times[index]) + 0.25
        assert trace.rate_at(t0, hint=cursor) == rate_at_prefix(trace, t0)
        assert cursor.index == index
        nbytes = float(rng.uniform(1.0, 1e9))
        assert trace.transfer_time(nbytes, t0, hint=cursor) == (
            transfer_time_prefix(trace, nbytes, t0)
        )
