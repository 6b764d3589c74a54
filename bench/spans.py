"""Span recording at layer seams, from outside the program.

A :class:`SpanRecorder` hands out wrappers for functions at the seams
between the simulator's layers.  Each wrapped call pushes a frame on one
stack, so a layer's *self* time is its spans' duration minus the time
covered by the spans nested inside them.  Aggregates (self seconds,
calls, calls made from inside each layer) live in flat lists the
wrappers update in place; full span records are kept only for the ops
passed ``keep=True`` and are written out as a Chrome trace at the end.

The wrappers cost time of their own.  :meth:`SpanRecorder.measure_overhead`
times an empty wrapped call nested in a wrapped loop, which splits that
cost into the part a span charges to itself and the part it charges to
the span around it; the metrics code subtracts both per call.  This
module never imports ``repro``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

#: Layer index of the root frame: time inside an op but outside every span.
ROOT = 0


class SpanRecorder:
    """Self time, calls and counters per layer for one op at a time."""

    def __init__(self, layers: tuple[str, ...]) -> None:
        self.layers = ("(root)", *layers)
        self.index = {name: i for i, name in enumerate(self.layers)}
        size = len(self.layers)
        self.self_s = [0.0] * size
        self.calls = [0] * size
        #: Spans opened directly inside a span of each layer (index ROOT
        #: counts the op's top-level spans).
        self.child_calls = [0] * size
        self.counters: dict[str, float] = {}
        #: Full span records of the current op, or None when not kept:
        #: (layer, label, start, end, parent record index, op).
        self.records: Optional[list] = None
        self.kept: list[tuple] = []
        self.op = -1
        self._stack: list[list] = [[ROOT, 0.0, -1]]

    # -- per-op bookkeeping ----------------------------------------------
    def begin_op(self, op: int, keep: bool = False) -> None:
        for values in (self.self_s, self.calls, self.child_calls):
            for i in range(len(values)):
                values[i] = 0
        self.counters.clear()
        del self._stack[1:]
        self._stack[0] = [ROOT, 0.0, -1]
        self.op = op
        self.records = [] if keep else None

    def end_op(self, wall_s: float) -> dict[str, Any]:
        """Close the op; ``wall_s`` is its measured duration."""
        if len(self._stack) != 1:
            raise RuntimeError("span stack unbalanced at the end of an op")
        root = self._stack[0]
        self.self_s[ROOT] = wall_s - root[1]
        # Calls between ops (output checks) land in a fresh root frame
        # and are discarded by the next begin_op.
        self._stack[0] = [ROOT, 0.0, -1]
        if self.records is not None:
            base = len(self.kept)
            self.kept.extend(
                (layer, label, start, end, parent + base if parent >= 0 else -1, op)
                for layer, label, start, end, parent, op in self.records
            )
            self.records = None
        return {
            "self_s": list(self.self_s),
            "calls": list(self.calls),
            "child_calls": list(self.child_calls),
            "counters": dict(self.counters),
        }

    # -- wrappers ----------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        label: str,
        resolve: Optional[Callable[[Any], int]] = None,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording a ``layer`` span around every call of ``fn``.

        ``resolve`` maps the call's first argument to a layer index and
        overrides ``layer`` per call (the kernel's dispatch points run
        code of whichever layer owns the resumed generator).
        ``on_return(counters, args, result, seconds)`` records counts at
        the seam after the call.
        """
        static_layer = self.index[layer]
        stack = self._stack
        self_s, calls, child_calls = self.self_s, self.calls, self.child_calls
        recorder = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = static_layer if resolve is None else resolve(args[0])
            records = recorder.records
            slot = -1
            if records is not None:
                slot = len(records)
                records.append(None)
            frame = [index, 0.0, slot]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[index] += duration - frame[1]
                calls[index] += 1
                parent = stack[-1]
                parent[1] += duration
                child_calls[parent[0]] += 1
                if slot >= 0:
                    records[slot] = (
                        index, label, start, end, parent[2], recorder.op
                    )
            if on_return is not None:
                on_return(recorder.counters, args, result, duration)
            return result

        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- wrapper cost --------------------------------------------------------
    @staticmethod
    def measure_overhead(calls: int = 20000) -> tuple[float, float]:
        """Wall seconds per wrapped call: (charged to itself, to its parent).

        An empty function is wrapped and called ``calls`` times from a
        wrapped loop.  The inner spans' total is what a span adds to its
        own layer; the loop span's self time beyond the same loop run
        unwrapped is what each call adds to the layer around it.
        """
        probe = SpanRecorder(("inner", "outer"))

        def empty():
            return None

        inner = probe.wrap(empty, "inner", "inner")

        def loop(fn):
            for _ in range(calls):
                fn()

        outer = probe.wrap(loop, "outer", "outer")
        start = time.perf_counter()
        loop(empty)
        bare_s = time.perf_counter() - start
        probe.begin_op(0)
        start = time.perf_counter()
        outer(inner)
        stats = probe.end_op(time.perf_counter() - start)
        inner_s = stats["self_s"][probe.index["inner"]]
        outer_s = stats["self_s"][probe.index["outer"]]
        return inner_s / calls, max(outer_s - bare_s, 0.0) / calls


def median_overhead(rounds: int = 5) -> tuple[float, float]:
    """Median :meth:`SpanRecorder.measure_overhead` over ``rounds``."""
    costs = [SpanRecorder.measure_overhead() for _ in range(rounds)]
    return (
        statistics.median(own for own, _ in costs),
        statistics.median(parent for _, parent in costs),
    )


def write_chrome_trace(recorder: SpanRecorder, path: Path) -> int:
    """Write the kept span records as a Chrome ``trace_event`` file.

    Each op is one track (``tid``); nesting follows from the times, and
    ``args.parent`` names the enclosing span's ``args.id`` (-1 at the top).
    """
    records = recorder.kept
    origin = min((r[2] for r in records), default=0.0)
    events = []
    for ident, (layer, label, start, end, parent, op) in enumerate(records):
        events.append(
            {
                "name": label,
                "cat": recorder.layers[layer],
                "ph": "X",
                "pid": 1,
                "tid": op,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": ident, "parent": parent},
            }
        )
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return len(events)
