"""Bandwidth traces: representation, synthesis, statistics and I/O.

The paper drives its simulations with real two-day Internet bandwidth
traces collected by repeatedly timing 16 KB round-trip transfers between
host pairs in the US, Europe and Brazil.  Those traces are not available,
so this package provides a synthetic substitute (see
:mod:`repro.traces.synthetic` and :mod:`repro.traces.study`) calibrated to
the statistic the paper reports: bandwidth changes of at least 10 % occur
roughly every two minutes in expectation, with both transient bursts and
persistent (hours-long) shifts.

:class:`~repro.traces.trace.BandwidthTrace` is a step function of time
(bytes/second).  Transfers *integrate* the step function, so a transfer
that straddles a bandwidth change is slowed/accelerated mid-flight exactly
as it would be on a real path.
"""

from repro.traces.trace import BandwidthTrace, TraceCursor, constant_trace
from repro.traces.synthetic import SyntheticTraceModel, TraceGenParams
from repro.traces.study import InternetStudy, StudyHost, TraceLibrary
from repro.traces.stats import TraceStats, change_intervals, trace_stats
from repro.traces.transform import (
    clip_rates,
    load_trace_measurements,
    resample,
    stitch,
)
from repro.traces.io import (
    load_library_json,
    load_trace_csv,
    save_library_json,
    save_trace_csv,
)

__all__ = [
    "BandwidthTrace",
    "InternetStudy",
    "StudyHost",
    "SyntheticTraceModel",
    "TraceGenParams",
    "TraceCursor",
    "TraceLibrary",
    "TraceStats",
    "change_intervals",
    "clip_rates",
    "constant_trace",
    "load_library_json",
    "load_trace_csv",
    "load_trace_measurements",
    "resample",
    "save_library_json",
    "save_trace_csv",
    "stitch",
    "trace_stats",
]
