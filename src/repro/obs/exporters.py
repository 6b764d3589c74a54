"""Trace exporters: JSONL archives and Chrome ``trace_event`` files.

JSONL layout (one JSON object per line):

* a ``trace.header`` record (``schema``, free-form ``meta``);
* the event records, chronologically, exactly as the tracer emitted them;
* a ``trace.footer`` record carrying the tracer's counters and histogram
  summaries.

The Chrome exporter converts the same records into the `trace_event
format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
(the JSON flavour ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ open directly): span events become complete
(``"ph": "X"``) events, point events become instants (``"ph": "i"``), and
each simulated host gets its own named track.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Union

from repro.obs import codec as _codec
from repro.obs.events import is_span
from repro.obs.tracer import Tracer

PathLike = Union[str, Path]

#: Version of the JSONL trace layout.
TRACE_SCHEMA = 1

#: Record types that frame a JSONL archive or a rotating segment (not
#: simulation events).
FRAME_TYPES = frozenset({"trace.header", "trace.footer", "trace.segment"})


# -- JSONL ------------------------------------------------------------------
def write_jsonl(tracer: Tracer, path: PathLike) -> int:
    """Archive a tracer's events as JSONL; returns the record count."""
    header = {"type": "trace.header", "schema": TRACE_SCHEMA, "meta": tracer.meta}
    footer = {
        "type": "trace.footer",
        "counters": tracer.counters,
        "histograms": tracer.histogram_summary(),
    }
    with open(path, "w") as fh:
        return _codec.CODEC.write(fh, chain((header,), tracer.events, (footer,)))


def read_jsonl(path: PathLike) -> list[dict[str, Any]]:
    """Load every record (header, events, footer) of a JSONL trace.

    A malformed line raises :class:`ValueError` naming the file and line.
    """
    return list(_codec.CODEC.read(path))


def events_only(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Drop the header/footer frame records, keeping simulation events."""
    return [r for r in records if r.get("type") not in FRAME_TYPES]


def trace_counters(records: Iterable[dict[str, Any]]) -> dict[str, float]:
    """The footer's counters (empty dict if the trace has no footer)."""
    for record in records:
        if record.get("type") == "trace.footer":
            return dict(record.get("counters", {}))
    return {}


# -- Chrome trace_event -----------------------------------------------------
_TRACK_FIELDS = ("host", "src_host", "viewer", "actor", "algorithm")


def _track_of(event: dict[str, Any]) -> str:
    """The display track (Chrome ``tid``) an event belongs to."""
    for field in _TRACK_FIELDS:
        value = event.get(field)
        if value:
            return str(value)
    return "run"


def _json_safe(value: Any) -> Any:
    """Strict-JSON stand-in: Perfetto rejects Infinity/NaN literals."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def to_chrome(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert trace records to a Chrome ``trace_event`` JSON object."""
    events = events_only(list(records))
    tracks: dict[str, int] = {}
    trace_events: list[dict[str, Any]] = []

    for event in events:
        etype = event["type"]
        track = _track_of(event)
        tid = tracks.setdefault(track, len(tracks) + 1)
        args = {
            k: _json_safe(v)
            for k, v in event.items()
            if k not in ("type", "t", "dur")
        }
        ts = float(event["t"]) * 1e6  # trace_event wants microseconds
        out: dict[str, Any] = {
            "name": etype,
            "cat": etype.split(".", 1)[0],
            "pid": 1,
            "tid": tid,
            "ts": ts,
            "args": args,
        }
        if is_span(etype):
            out["ph"] = "X"
            out["dur"] = float(event.get("dur", 0.0)) * 1e6
        else:
            out["ph"] = "i"
            out["s"] = "t"  # instant scoped to its thread/track
        trace_events.append(out)

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro simulation"},
        }
    ]
    for track, tid in sorted(tracks.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    counters = trace_counters(records)
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"counters": counters} if counters else {},
    }


def write_chrome_trace(
    source: "Tracer | Iterable[dict[str, Any]]", path: PathLike
) -> int:
    """Write a Chrome/Perfetto-loadable trace file.

    ``source`` may be a :class:`Tracer` or the records returned by
    :func:`read_jsonl`.  Returns the number of ``traceEvents`` written.
    """
    if isinstance(source, Tracer):
        records: list[dict[str, Any]] = [
            *source.events,
            {"type": "trace.footer", "counters": source.counters},
        ]
    else:
        records = list(source)
    payload = to_chrome(records)
    Path(path).write_text(json.dumps(payload))
    return len(payload["traceEvents"])
