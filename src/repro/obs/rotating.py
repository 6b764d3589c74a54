"""Bounded-memory tracing: rotating JSONL segments and a streaming tracer.

A buffered :class:`~repro.obs.tracer.Tracer` holds every event in memory
until :func:`~repro.obs.exporters.write_jsonl` archives it — fine for one
query, unworkable for a day-long open-loop fleet.  This module bounds
both memory and disk:

* :class:`RotatingTraceWriter` spools records straight to
  ``segment-NNNNNN.jsonl`` files in a directory, rotating when a segment
  reaches ``max_segment_bytes`` and pruning the *oldest* segments to
  honor ``max_segments`` and/or ``max_age_seconds`` (simulation-time age,
  measured between segment timestamps).  Every segment opens with a
  ``trace.segment`` header carrying the run meta, so any surviving
  suffix of segments is independently replayable.
* :class:`StreamingTracer` is a drop-in :class:`Tracer` that forwards
  events to a writer instead of buffering them (counters, histograms and
  meta stay in memory — they are tiny).
* :func:`read_segments` streams the surviving records back in order,
  lazily, for :func:`repro.workload.fleet_from_trace`'s single-pass
  replay.

A trace whose early segments were pruned replays the *observable
suffix*: queries whose full lifecycle survived are summarized; orphan
``run.end`` records are skipped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Union

from repro.obs import codec as _codec
from repro.obs.exporters import TRACE_SCHEMA
from repro.obs.tracer import NO_FIELDS, Tracer

PathLike = Union[str, Path]

#: Per-segment header record type (also accepted as a trace header by
#: the workload replay's mode detection).
SEGMENT_HEADER = "trace.segment"

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"

#: Default rotation point: 8 MiB per segment.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


class _Segment:
    __slots__ = ("index", "path", "bytes", "first_t", "last_t")

    def __init__(self, index: int, path: Path) -> None:
        self.index = index
        self.path = path
        self.bytes = 0
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None


class RotatingTraceWriter:
    """Write trace records to rotating, budgeted JSONL segments."""

    def __init__(
        self,
        directory: PathLike,
        *,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segments: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be >= 1")
        if max_segments is not None and max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        if max_age_seconds is not None and max_age_seconds <= 0:
            raise ValueError("max_age_seconds must be > 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = int(max_segment_bytes)
        self.max_segments = max_segments
        self.max_age_seconds = max_age_seconds
        #: Run metadata embedded in every segment header.  Held by
        #: reference: a :class:`StreamingTracer` shares its ``meta`` dict
        #: so later updates land in subsequently opened segments.
        self.meta: dict[str, Any] = meta if meta is not None else {}
        self.records_written = 0
        self.segments_dropped = 0
        self._segments: list[_Segment] = []
        self._fh = None
        self._closed = False

    # -- segments -------------------------------------------------------
    def _open_segment(self) -> None:
        index = self._segments[-1].index + 1 if self._segments else 0
        path = self.directory / f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"
        segment = _Segment(index, path)
        self._fh = open(path, "w")
        self._segments.append(segment)
        header = {
            "type": SEGMENT_HEADER,
            "schema": TRACE_SCHEMA,
            "segment": index,
            "meta": dict(self.meta),
        }
        self._write_line(header, segment)

    def _write_line(self, record: dict[str, Any], segment: _Segment) -> None:
        line = _codec.CODEC.line(record)
        self._fh.write(line)
        segment.bytes += len(line)

    def _rotate(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._open_segment()
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        def drop_oldest() -> None:
            oldest = self._segments.pop(0)
            oldest.path.unlink(missing_ok=True)
            self.segments_dropped += 1

        if self.max_segments is not None:
            while len(self._segments) > self.max_segments:
                drop_oldest()
        if self.max_age_seconds is not None:
            newest = next(
                (
                    s.last_t
                    for s in reversed(self._segments)
                    if s.last_t is not None
                ),
                None,
            )
            while (
                newest is not None
                and len(self._segments) > 1
                and self._segments[0].last_t is not None
                and newest - self._segments[0].last_t > self.max_age_seconds
            ):
                drop_oldest()

    # -- the write path -------------------------------------------------
    def write(self, record: dict[str, Any]) -> None:
        """Append one record, rotating/pruning as budgets require."""
        if self._closed:
            raise ValueError("writer is closed")
        if (
            self._fh is None
            or self._segments[-1].bytes >= self.max_segment_bytes
        ):
            self._rotate()
        segment = self._segments[-1]
        self._write_line(record, segment)
        t = record.get("t")
        if t is not None:
            if segment.first_t is None:
                segment.first_t = t
            segment.last_t = t
        self.records_written += 1

    def close(
        self,
        counters: Optional[dict[str, float]] = None,
        histograms: Optional[dict[str, Any]] = None,
    ) -> None:
        """Write a ``trace.footer`` into the last segment and close."""
        if self._closed:
            return
        if self._fh is None:
            self._open_segment()
        footer: dict[str, Any] = {"type": "trace.footer"}
        if counters is not None:
            footer["counters"] = counters
        if histograms is not None:
            footer["histograms"] = histograms
        self._write_line(footer, self._segments[-1])
        self._fh.close()
        self._fh = None
        self._closed = True

    @property
    def segment_paths(self) -> list[Path]:
        """The surviving segment files, oldest first."""
        return [segment.path for segment in self._segments]

    def __enter__(self) -> "RotatingTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingTracer(Tracer):
    """A tracer that spools events to a :class:`RotatingTraceWriter`.

    Drop-in for :class:`~repro.obs.tracer.Tracer` anywhere a tracer is
    accepted (the workload engine, ``ScopedTracer`` views, the kernel
    hook): events go straight to disk, ``events`` stays empty, and
    counters/histograms/meta remain in memory.  The writer shares this
    tracer's ``meta`` dict, so engine-set metadata appears in every
    segment header.  Call :meth:`close` (or use as a context manager) to
    write the footer.
    """

    __slots__ = ("writer",)

    def __init__(
        self,
        writer: Union[RotatingTraceWriter, PathLike],
        **writer_kwargs: Any,
    ) -> None:
        super().__init__()
        if isinstance(writer, RotatingTraceWriter):
            self.writer = writer
        else:
            self.writer = RotatingTraceWriter(writer, **writer_kwargs)
        self.writer.meta = self.meta

    def emit(
        self, event_type: str, t: float, fields: dict[str, Any] = NO_FIELDS
    ) -> None:
        self.writer.write({"type": event_type, "t": t, **fields})

    def span(
        self,
        event_type: str,
        start: float,
        end: float,
        fields: dict[str, Any] = NO_FIELDS,
    ) -> None:
        self.writer.write(
            {"type": event_type, "t": start, "dur": end - start, **fields}
        )

    def close(self) -> None:
        self.writer.close(
            counters=self.counters, histograms=self.histogram_summary()
        )

    def __enter__(self) -> "StreamingTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def segment_paths(directory: PathLike) -> list[Path]:
    """The segment files under ``directory``, in index order."""

    def index_of(path: Path) -> int:
        stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
        return int(stem)

    return sorted(
        Path(directory).glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"),
        key=index_of,
    )


def read_segments(directory: PathLike) -> Iterator[dict[str, Any]]:
    """Stream every record of the surviving segments, oldest first.

    Lazy — one bounded chunk of lines is parsed at a time, so a day-long
    trace replays in constant memory.  Feed the result to
    :func:`repro.workload.fleet_from_trace`, which recognizes the
    per-segment headers.  A malformed line raises :class:`ValueError`
    naming the segment file and line.
    """
    for path in segment_paths(directory):
        yield from _codec.CODEC.read(path)
