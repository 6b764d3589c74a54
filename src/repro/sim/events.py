"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence on the simulation timeline.  It
moves through three states: *pending* (created but not yet triggered),
*triggered* (scheduled on the calendar with a value or an exception) and
*processed* (its callbacks have run).  Processes wait on events by yielding
them; the kernel resumes the process when the event is processed.
"""

from __future__ import annotations

import typing
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.core import Environment

#: Sentinel for "this event has no value yet".
PENDING: Any = object()

#: Calendar sub-priority for events that must run before same-time events.
URGENT = 0
#: Default calendar sub-priority.
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    #: Events are allocated by the hundreds of thousands per simulation;
    #: ``__slots__`` keeps them dict-free (every subclass declares its own).
    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (in order) when the event is processed.  Set to
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set by a handler to prevent an unhandled failure from crashing
        #: the simulation run.
        self.defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance for failed events)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have ``exception`` thrown into
        them.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Callback(Event):
    """A one-shot scheduled function call.

    The transfer engine's primitive: no generator, no
    :class:`~repro.sim.core.Process` machinery — processing the event
    simply invokes ``fn``.  Created via
    :meth:`~repro.sim.core.Environment.schedule_callback`, which puts it
    on the calendar.  A fault-free transfer is one callback where a
    process would cost an init event, a timeout and a process-completion
    event; a faulted transfer is a chain of callbacks, one per step the
    process would have taken, minus the process-completion event.
    """

    __slots__ = ("_fn",)

    def __init__(self, env: "Environment", fn: Callable[[], Any]) -> None:
        super().__init__(env)
        self._fn = fn
        self._ok = True
        self._value = None
        self.callbacks.append(self._invoke)  # type: ignore[union-attr]

    def _invoke(self, _event: "Event") -> None:
        self._fn()

    def __repr__(self) -> str:
        name = getattr(self._fn, "__name__", repr(self._fn))
        return f"<Callback {name}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Condition(Event):
    """Composite event over a set of sub-events.

    ``evaluate`` receives the list of sub-events and the count of those that
    have fired so far and returns True when the condition is satisfied.  Use
    the :class:`AllOf` / :class:`AnyOf` conveniences rather than this class
    directly.  The condition's value is None: a waiter that needs a
    sub-event's value reads it from that event.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")

        if self._evaluate(self._events, 0):
            self.succeed()
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(typing.cast(BaseException, event._value))
        elif self._evaluate(self._events, self._count):
            self.succeed()


class StoreGet(Event):
    """A message-queue get: fires with the retrieved item as its value.

    :class:`repro.net.host.Mailbox` hands these out; the traced kernel
    counts them under ``sim.events.StoreGet``.
    """

    __slots__ = ()


class AllOf(Condition):
    """Fires when *all* of the given events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = list(events)
        super().__init__(env, lambda evts, count: count >= len(evts), events)


class AnyOf(Condition):
    """Fires when *any* of the given events has fired.

    With an empty event list it fires immediately (there is nothing to wait
    for), mirroring the behaviour of :class:`AllOf`.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = list(events)
        super().__init__(
            env, lambda evts, count: count > 0 or len(evts) == 0, events
        )
