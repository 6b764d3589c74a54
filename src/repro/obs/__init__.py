"""repro.obs — structured run-trace observability.

A zero-cost-when-disabled tracing subsystem: hand a :class:`Tracer` to
:func:`repro.engine.simulation.run_simulation` (or pass ``--trace`` on
the CLI) and every hot seam of the stack — DES kernel, network links,
actors, controllers, monitors and planners — records typed span/point
events plus counters and histograms.  Export as JSONL or a Chrome
``trace_event`` file (Perfetto-loadable), summarize with ``repro
trace``, or replay the aggregates via ``RunMetrics.from_trace``.
:class:`~repro.obs.metrics.RunMetrics` lives here too: the network, the
monitor and the engine count each query's run into one.

The default is :data:`NULL_TRACER`, whose methods are no-ops and whose
``enabled`` is False, so untraced runs pay a single attribute test per
instrumented site.

For runs too long to buffer in memory, :class:`StreamingTracer` spools
events to rotating, size/age-budgeted JSONL segments
(:class:`RotatingTraceWriter`) that :func:`read_segments` replays
lazily — see :mod:`repro.obs.rotating`.  Both JSONL formats go through
one record codec, :mod:`repro.obs.codec`.
"""

from repro.obs import events
from repro.obs.events import EVENT_KINDS, SPAN_EVENTS, is_span
from repro.obs.exporters import (
    TRACE_SCHEMA,
    events_only,
    read_jsonl,
    to_chrome,
    trace_counters,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.rotating import (
    SEGMENT_HEADER,
    RotatingTraceWriter,
    StreamingTracer,
    read_segments,
    segment_paths,
)
from repro.obs.summary import (
    TraceSummary,
    format_trace_summary,
    query_records,
    summarize_records,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    ScopedTracer,
    Tracer,
    ensure_tracer,
)

__all__ = [
    "events",
    "EVENT_KINDS",
    "SPAN_EVENTS",
    "is_span",
    "TRACE_SCHEMA",
    "events_only",
    "read_jsonl",
    "to_chrome",
    "trace_counters",
    "write_chrome_trace",
    "write_jsonl",
    "SEGMENT_HEADER",
    "RotatingTraceWriter",
    "StreamingTracer",
    "read_segments",
    "segment_paths",
    "TraceSummary",
    "format_trace_summary",
    "query_records",
    "summarize_records",
    "NULL_TRACER",
    "NullTracer",
    "ScopedTracer",
    "Tracer",
    "ensure_tracer",
]
