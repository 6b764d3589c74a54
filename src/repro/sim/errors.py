"""Exception types used by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class StopSimulation(Exception):
    """Raised internally to terminate :meth:`Environment.run` early.

    Users normally stop a simulation by passing ``until`` to
    :meth:`Environment.run`; this exception is the mechanism behind
    :meth:`Environment.stop`.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class EventFailed(SimulationError):
    """An event failed and nobody handled the failure.

    Raised out of :meth:`Environment.run` when a failed event's exception
    propagates to the top level (e.g. a process died with an unhandled
    exception and no other process was waiting on it).
    """
