"""Simulation environment and process machinery.

The :class:`Environment` owns the clock and the event calendar (a binary
heap keyed by ``(time, priority, sequence)`` — the sequence number makes the
simulation fully deterministic).  A :class:`Process` wraps a generator that
yields :class:`~repro.sim.events.Event` objects.
"""

from __future__ import annotations

import typing
from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.sim.errors import EventFailed, SimulationError, StopSimulation
from repro.sim.events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    AnyOf,
    Callback,
    Event,
    Timeout,
)

ProcessGenerator = Generator[Event, Any, Any]


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "trace_hook",
        "events_processed",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Calendar events processed over the environment's lifetime.
        #: The callback transfer paths exist to shrink this number; the
        #: counter is what benchmarks and metrics report it from.
        self.events_processed = 0
        #: Observability hook ``(now, event) -> None`` invoked per processed
        #: event.  None (the default) keeps the hot loop untouched; traced
        #: runs install :meth:`repro.obs.Tracer.kernel_hook` here.
        self.trace_hook: Optional[typing.Callable[[float, Event], None]] = None

    # -- clock & calendar ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Put ``event`` on the calendar ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heappush(self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def step(self) -> None:
        """Process the next event on the calendar."""
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise SimulationError("no scheduled events") from None
        self.events_processed += 1

        if self.trace_hook is not None:
            self.trace_hook(self._now, event)

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            exc = typing.cast(BaseException, event._value)
            raise EventFailed(f"unhandled failure in {event!r}: {exc!r}") from exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the calendar is empty;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed and return
          its value.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed; nothing to run.
                    if stop_event._ok:
                        return stop_event._value
                    raise typing.cast(BaseException, stop_event._value)
                stop_event.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until={at} lies in the past (now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                # URGENT so the clock stops before same-time NORMAL events.
                self.schedule(stop_event, priority=URGENT, delay=at - self._now)
                stop_event.callbacks.append(self._stop_callback)

        # The hot loop: step() inlined with the queue, heappop and the
        # exception types bound locally.  Sweeps spend the bulk of their
        # time here, so every attribute lookup per event counts.  The
        # traced variant exists so untraced runs pay nothing — not even a
        # per-event None test.
        queue = self._queue
        pop = heappop
        failed = EventFailed
        hook = self.trace_hook
        processed = 0
        try:
            if hook is None:
                while queue:
                    self._now, _, _, event = pop(queue)
                    processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event.defused:
                        exc = typing.cast(BaseException, event._value)
                        raise failed(
                            f"unhandled failure in {event!r}: {exc!r}"
                        ) from exc
            else:
                while queue:
                    self._now, _, _, event = pop(queue)
                    processed += 1
                    hook(self._now, event)
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event.defused:
                        exc = typing.cast(BaseException, event._value)
                        raise failed(
                            f"unhandled failure in {event!r}: {exc!r}"
                        ) from exc
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += processed

        if stop_event is not None and isinstance(until, Event):
            raise SimulationError(
                "simulation ran out of events before the awaited event fired"
            )
        return None

    def stop(self, value: Any = None) -> None:
        """Abort :meth:`run` immediately from inside a callback/process."""
        raise StopSimulation(value)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise typing.cast(BaseException, event._value)

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def schedule_callback(
        self,
        delay: float,
        fn: typing.Callable[[], Any],
        priority: int = NORMAL,
    ) -> Callback:
        """Schedule ``fn()`` to run once, ``delay`` seconds from now.

        A process-free one-shot: exactly one calendar entry, no
        generator churn.  The network runs every transfer through this
        instead of a :class:`Process`.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = Callback(self, fn)
        # schedule(), inlined: one calendar push per transfer.
        heappush(self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> "Process":
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """Condition event firing once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Condition event firing once any of ``events`` has fired."""
        return AnyOf(self, events)


class Process(Event):
    """A running simulation process.

    A process wraps a generator.  Each value the generator yields must be an
    :class:`Event`; the process sleeps until that event fires and is then
    resumed with the event's value (or, for failed events, has the event's
    exception thrown into it).  The process object is itself an event that
    fires when the generator returns — its value is the generator's return
    value — so processes can wait for one another.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self, env: Environment, generator: ProcessGenerator, name: str = ""
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)  # type: ignore[union-attr]
        env.schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not exited."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event, then wait again.

        A process waits on exactly one event at a time, so it is resumed
        exactly once per yield and never after its generator returned.
        """
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(
                    typing.cast(BaseException, event._value)
                )
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.env is not self.env:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another environment"
            )
        if next_event.callbacks is None:
            # Already processed: resume immediately (keeps same-time order
            # deterministic by going through the calendar).
            resume = Event(self.env)
            resume._ok = next_event._ok
            resume._value = next_event._value
            if not resume._ok:
                resume.defused = True
            resume.callbacks.append(self._resume)  # type: ignore[union-attr]
            self.env.schedule(resume, priority=URGENT)
        else:
            next_event.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} ({state})>"
