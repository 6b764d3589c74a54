"""The tracer: an in-memory event bus with counters and histograms.

Two implementations share one interface:

* :class:`Tracer` — records everything; hand one to
  :func:`repro.engine.simulation.run_simulation` (or ``repro run
  --trace``) and export with :mod:`repro.obs.exporters`.
* :class:`NullTracer` — the default.  ``enabled`` is False and every
  method is a no-op, so instrumentation sites can guard their payload
  construction with ``if tracer.enabled:`` and cost nothing when tracing
  is off.  :data:`NULL_TRACER` is the shared singleton.

Events are plain dicts (see :mod:`repro.obs.events` for the taxonomy);
counters are monotonically increasing integers/floats; histograms collect
raw float observations and summarize on export.

An instrumentation site hands over its event's fields as one dict it
builds itself, ``tracer.emit(kind, t, {"a": a, "b": b})``: the record is
``{"type": kind, "t": t, **fields}`` (spans add ``"dur"`` after ``"t"``),
built once.  A site that may carry a ``query_id`` sets it last.  The
tracer never keeps or mutates the dict it is handed.
"""

from __future__ import annotations

import math
from typing import Any, Optional

#: The fields of an event that has none.  Shared; never mutate it.
NO_FIELDS: dict[str, Any] = {}


class Tracer:
    """Recording tracer: typed span/point events, counters, histograms."""

    __slots__ = ("events", "counters", "meta", "_histograms", "_kernel_keys")

    #: Instrumentation sites test this before building event payloads.
    enabled = True

    def __init__(self) -> None:
        #: Chronological event records (dicts with ``type`` and ``t``).
        self.events: list[dict[str, Any]] = []
        #: Monotonic counters, e.g. ``sim.events``.
        self.counters: dict[str, float] = {}
        #: Free-form run metadata (exported in the JSONL header).
        self.meta: dict[str, Any] = {}
        self._histograms: dict[str, list[float]] = {}
        #: Per-event-class counter names of :meth:`kernel_hook`.
        self._kernel_keys: dict[type, str] = {}

    # -- events -------------------------------------------------------------
    def emit(
        self, event_type: str, t: float, fields: dict[str, Any] = NO_FIELDS
    ) -> None:
        """Record a point event at simulation time ``t``."""
        self.events.append({"type": event_type, "t": t, **fields})

    def span(
        self,
        event_type: str,
        start: float,
        end: float,
        fields: dict[str, Any] = NO_FIELDS,
    ) -> None:
        """Record a span event covering ``[start, end]``."""
        self.events.append(
            {"type": event_type, "t": start, "dur": end - start, **fields}
        )

    # -- counters & histograms ---------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        self._histograms.setdefault(name, []).append(value)

    def histogram_summary(self) -> dict[str, dict[str, float]]:
        """Per-histogram count/min/max/mean/p50/p95."""
        summary: dict[str, dict[str, float]] = {}
        for name, values in self._histograms.items():
            ordered = sorted(values)
            n = len(ordered)
            summary[name] = {
                "count": n,
                "min": ordered[0],
                "max": ordered[-1],
                "mean": math.fsum(ordered) / n,
                "p50": ordered[(n - 1) // 2],
                "p95": ordered[min(n - 1, math.ceil(0.95 * n) - 1)],
            }
        return summary

    # -- kernel hook --------------------------------------------------------
    def kernel_hook(self, now: float, event: Any) -> None:
        """Per-step hook for :class:`repro.sim.Environment`.

        Counts processed calendar events overall and by event class —
        cheap enough to run on every step of a *traced* run, and never
        installed on an untraced one.
        """
        counters = self.counters
        counters["sim.events"] = counters.get("sim.events", 0) + 1
        cls = type(event)
        key = self._kernel_keys.get(cls)
        if key is None:
            key = self._kernel_keys[cls] = "sim.events." + cls.__name__
        counters[key] = counters.get(key, 0) + 1


class NullTracer:
    """The do-nothing default tracer.

    ``enabled`` is False; hot paths guard with ``if tracer.enabled:`` and
    skip payload construction entirely, so an untraced run pays only that
    one attribute test per instrumented site.
    """

    __slots__ = ()

    enabled = False

    def emit(
        self, event_type: str, t: float, fields: dict[str, Any] = NO_FIELDS
    ) -> None:
        pass

    def span(
        self,
        event_type: str,
        start: float,
        end: float,
        fields: dict[str, Any] = NO_FIELDS,
    ) -> None:
        pass

    def incr(self, name: str, value: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def histogram_summary(self) -> dict[str, dict[str, float]]:
        return {}

    def kernel_hook(self, now: float, event: Any) -> None:
        pass


class ScopedTracer:
    """A view of another tracer that stamps fixed fields on every event.

    The workload engine hands each query's runtime a
    ``ScopedTracer(shared, query_id=...)`` so every event the query emits
    carries its ``query_id`` while all queries still share one
    chronological event stream.  Counters, histograms, metadata and the
    kernel hook delegate to the wrapped tracer unscoped.

    ``enabled`` is snapshotted from the wrapped tracer at construction,
    so the ``if tracer.enabled:`` zero-cost-off guards keep working: a
    scoped view of the :data:`NULL_TRACER` is itself disabled.
    """

    __slots__ = ("_inner", "_fields", "enabled")

    def __init__(self, inner: "Tracer | NullTracer | ScopedTracer", **fields: Any) -> None:
        self._inner = inner
        self._fields = fields
        self.enabled = inner.enabled

    def emit(
        self, event_type: str, t: float, fields: dict[str, Any] = NO_FIELDS
    ) -> None:
        self._inner.emit(
            event_type,
            t,
            {**self._fields, **fields} if fields else self._fields,
        )

    def span(
        self,
        event_type: str,
        start: float,
        end: float,
        fields: dict[str, Any] = NO_FIELDS,
    ) -> None:
        self._inner.span(
            event_type,
            start,
            end,
            {**self._fields, **fields} if fields else self._fields,
        )

    def incr(self, name: str, value: float = 1) -> None:
        self._inner.incr(name, value)

    def observe(self, name: str, value: float) -> None:
        self._inner.observe(name, value)

    def histogram_summary(self) -> dict[str, dict[str, float]]:
        return self._inner.histogram_summary()

    def kernel_hook(self, now: float, event: Any) -> None:
        self._inner.kernel_hook(now, event)

    @property
    def meta(self) -> dict[str, Any]:
        """The wrapped tracer's (shared) run metadata."""
        return getattr(self._inner, "meta", {})

#: Shared no-op tracer: the default everywhere a tracer is accepted.
NULL_TRACER = NullTracer()


def record_event(
    tracer: "Tracer | NullTracer | ScopedTracer",
    sink: Any,
    event_type: str,
    t: float,
    fields: dict[str, Any],
) -> None:
    """Record one overload or coordination transition, once.

    The event is emitted on ``tracer`` when it is enabled, and the same
    type and ``fields`` go to ``sink.fleet_event`` (``fleet_from_trace``
    hands that method the emitted record instead).  A ``None`` sink
    counts nothing.
    """
    if tracer.enabled:
        tracer.emit(event_type, t, fields)
    if sink is not None:
        sink.fleet_event(event_type, fields)


def ensure_tracer(tracer: "Optional[Tracer | NullTracer]") -> "Tracer | NullTracer":
    """``tracer`` if given, else the shared :data:`NULL_TRACER`."""
    return NULL_TRACER if tracer is None else tracer
